"""Self-test of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q

The package's own suite (``tests/``) does not collect this file.
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

cyclospec = run.import_cyclospec()

import cases  # noqa: E402  (needs cyclospec on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a fraction of a second."""
    monkeypatch.setattr(cases, "CHAIN_SHAPES", [(1, 1, 3, 2), (2, 2, 1, 2), (3, 1, 1, 2)])
    monkeypatch.setattr(cases, "RECIPE_ROUNDS_PER_PASS", 2)
    monkeypatch.setattr(cases, "SCENARIOS", (("example1", 20), ("example3", 20),
                                             ("example2-correlated", 20)))
    monkeypatch.setattr(cases, "SCENARIO_TRIALS", 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric(tiny, capsys, workload, trace, section):
    result = run.measure(workload, seed=5, seconds=1, trace=trace, started=time.perf_counter())
    assert result["failed"] == 0 and result["error_rate"] == 0.0
    run.print_run(result)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in last["metrics"].values())
        assert all(v > 0 for v in result["notes"].get("slowness", [1.0]))
        assert set(result["notes"]["raw"]) == {"wall_s", "case_p50_ms", "case_tail_ms"}


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1.0


@pytest.mark.parametrize("workload,owner,name", [
    ("oracle-chains", cyclospec, "chain_moment_unreduced"),
    ("recipes-small", cyclospec, "poly_moment"),
    ("scenarios", cases, "scenario_reference"),
])
def test_corrupted_reference_shows_in_error_rate(tiny, monkeypatch, workload, owner, name):
    original = getattr(owner, name)
    if name == "scenario_reference":
        monkeypatch.setattr(owner, name, lambda s: [v + 1.0 for v in original(s)])
    else:
        monkeypatch.setattr(owner, name, _off_by_one(original))
    result = run.measure(workload, seed=5, seconds=1, trace=0, started=time.perf_counter())
    assert result["attempted"] >= 1
    assert result["error_rate"] == 1.0


def test_tail_percentile_keeps_ten_cases_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_tracer_counts_on_criterion3():
    assert run.criterion3_counts() == run.CRITERION3_COUNTS


def test_every_pass_repeats_the_shapes(tiny):
    passes = cases.passes("recipes-small", seed=5, seconds=2 * cases.PASS_SECONDS["recipes-small"])
    sizes = [[len(case.run()[0].values) for case in cases_] for cases_ in passes]
    assert len(sizes) == 2 and sizes[0] == sizes[1]


def test_reference_loops_belong_to_workloads():
    assert set(run.REFERENCES) < set(run.WORKLOADS)


def test_case_times_are_medians_over_passes():
    assert run.per_case_medians([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]) == [2.0, 20.0]
