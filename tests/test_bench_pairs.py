from pathlib import Path

import pytest

import bench_pairs
from bench_pairs import parse_tier1, summarize


def test_summary_of_a_lower_is_better_metric():
    parent = [10.0, 12.0, 11.0, 13.0, 14.0]
    change = [9.0, 11.5, 11.0, 10.0, 15.0]
    row = summarize(parent, change, "lower")
    # inclusive quartiles of 10..14 are 11 and 13
    assert (row["parent_q1"], row["parent_median"], row["parent_q3"]) == (11.0, 12.0, 13.0)
    assert row["change_median"] == 11.0
    assert row["rel_change"] == pytest.approx(-1.0 / 12.0)
    # a tie (11 vs 11) is no win
    assert (row["wins"], row["pairs"]) == (3, 5)
    assert row["claim_met"] is False


def test_claim_needs_nine_wins_in_ten_and_a_gain_beyond_the_quartile_spread():
    parent = [100.0 + k for k in range(10)]  # q1 102.25, median 104.5, q3 106.75
    row = summarize(parent, [p - 4.0 for p in parent], "lower")
    assert row["wins"] == 10 and row["claim_met"] is False  # a gain of 4 within 4.5
    row = summarize(parent, [p - 5.0 for p in parent], "lower")
    assert row["wins"] == 10 and row["claim_met"] is True
    change = [200.0] + [p - 6.0 for p in parent[1:]]  # median 99.5: a gain of 5
    row = summarize(parent, change, "lower")
    assert row["wins"] == 9 and row["claim_met"] is True
    change = [200.0, 101.1] + [p - 8.0 for p in parent[2:]]  # median 98.5: a gain of 6
    row = summarize(parent, change, "lower")
    assert row["wins"] == 8 and row["claim_met"] is False


def test_higher_is_better_counts_wins_upward():
    row = summarize([1.0, 2.0, 3.0], [2.0, 3.0, 1.0], "higher")
    assert row["wins"] == 2
    assert row["rel_change"] == 0.0


def test_summary_refuses_unpaired_runs():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")


def test_tier1_output_is_read_for_its_time_counts_and_slowest_tests():
    stdout = """........................................................................ [ 99%]
.x                                                                       [100%]
============================= slowest 10 durations =============================
4.53s call     tests/test_linred.py::test_chain_paths
0.50s setup    tests/test_refusals.py::test_refusal[trace of the empty code]
713 passed, 2 xfailed in 37.81s
"""
    run = parse_tier1(stdout)
    assert run["pytest_s"] == 37.81
    assert run["counts"] == {"passed": 713, "xfailed": 2}
    assert run["slowest"] == [
        {"s": 4.53, "when": "call", "test": "tests/test_linred.py::test_chain_paths"},
        {"s": 0.5, "when": "setup",
         "test": "tests/test_refusals.py::test_refusal[trace of the empty code]"},
    ]
    with pytest.raises(ValueError, match="not a pytest summary line"):
        parse_tier1("collecting ...\n")


def test_tier1_pairs_run_both_sides_at_one_hypothesis_seed_per_pair(monkeypatch):
    runs = []

    def run_tier1(tree, seed):
        runs.append((tree.name, seed))
        return {"wall_s": float(len(runs)), "counts": {"passed": 1}}

    monkeypatch.setattr(bench_pairs, "run_tier1", run_tier1)
    row = bench_pairs.run_tier1_set(Path("parent"), Path("change"), 3, 50)
    assert runs == [("parent", 50), ("change", 50), ("change", 51), ("parent", 51),
                    ("parent", 52), ("change", 52)]
    assert row["seeds"] == [50, 51, 52]
    assert row["wall_s"]["parent"] == [1.0, 4.0, 5.0]
