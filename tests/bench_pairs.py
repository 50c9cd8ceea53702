"""Record alternating benchmark pairs of two source trees in a ``BENCH_<PR>.json``.

Runs ``perfbench/run.py`` of a parent tree and of a changed tree in
alternating order, one pair per seed, and appends the set to a JSON file:

    python3 tests/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload scenarios --pairs 10 --seconds 30 --seed 301 --out BENCH_<PR>.json

The workload ``tier1`` runs each tree's tier-1 tests instead (pytest with
``--durations=10``, the tree's ``src`` on ``PYTHONPATH``) and records per
side each run's wall time, pytest's own time, its outcome counts and its 10
slowest tests, under the file's ``"tier1"`` key.  Both sides of pair k run
with ``--hypothesis-seed <seed + k>``, so they draw the same examples:

    python3 tests/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload tier1 --pairs 3 --seed 1 --out BENCH_<PR>.json

Make the parent tree with ``git archive <rev> | tar -x -C PARENT_DIR`` (or
``git worktree``).  Pair k runs both trees with ``--seed <seed + k>``; the
parent goes first in even pairs and second in odd ones.  Each run's last line
of standard output is the benchmark's JSON summary.

For every end-to-end metric of the change's ``BENCHMARK.json`` a set records
the parent's median and quartiles, the change's median, the relative change,
and the pairs the change won.  A set meets the benchmark's rule for a claimed
gain when the change wins at least 9 pairs in 10 and its median beats the
parent's by more than the parent's q3 - q1.  A file holds every set that ran,
so one set is never read as the whole evidence.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WIN_SHARE = 0.9


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs; ``better`` is ``"lower"`` or ``"higher"``.

    Quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least 2 runs")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    change_median = statistics.median(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (median - change_median)
    return {
        "parent_median": median,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": change_median,
        "rel_change": (change_median - median) / median,
        "wins": wins,
        "pairs": len(parent),
        "claim_met": wins >= WIN_SHARE * len(parent) and gain > q3 - q1,
        "parent": parent,
        "change": change,
    }


def describe(row: dict) -> str:
    """A :func:`summarize` row on one line: the parent's median and quartiles,
    the change's median, the relative change and the wins."""
    return (f"{row['parent_median']:.6g} [{row['parent_q1']:.6g}, {row['parent_q3']:.6g}] "
            f"-> {row['change_median']:.6g} ({100 * row['rel_change']:+.1f}%), "
            f"wins {row['wins']}/{row['pairs']}{', claim met' if row['claim_met'] else ''}")


def alternate(pairs: int, run) -> dict:
    """``run(side, k)`` for both sides of pairs ``k = 0 .. pairs - 1``, the
    parent first in even pairs and second in odd ones; each side's results
    in pair order, by side."""
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side, k))
    return runs


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary (last stdout line) of one benchmark run in ``tree``,
    with its ``env`` line as ``"env"``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    env = [line.strip()[len("env: "):] for line in lines if line.strip().startswith("env: ")]
    summary["env"] = json.loads(env[-1]) if env else {}
    return summary


def run_set(parent: Path, change: Path, workload: str, pairs: int, seconds: float,
            seed: int) -> dict:
    def run(side, k):
        summary = run_tree(parent if side == "parent" else change, workload, seed + k, seconds)
        print(f"pair {k + 1}/{pairs} seed {seed + k} {side}: "
              f"{json.dumps(summary['metrics'])}", file=sys.stderr)
        return summary

    runs = alternate(pairs, run)
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in runs}
        metrics[name] = {"unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"],
                         **summarize(values["parent"], values["change"], metric["better"])}
    return {
        "seconds": seconds,
        "seeds": [seed + k for k in range(pairs)],
        "attempted": {side: sum(run["attempted"] for run in runs[side]) for side in runs},
        "failed": {side: sum(run["failed"] for run in runs[side]) for side in runs},
        "env": runs["change"][-1]["env"],
        "metrics": metrics,
    }


def parse_tier1(stdout: str) -> dict:
    """pytest's time, outcome counts and slowest tests from the output of
    ``pytest -q --durations=10``."""
    final = stdout.strip().splitlines()[-1]
    seconds = re.search(r" in ([0-9.]+)s", final)
    if seconds is None:
        raise ValueError(f"not a pytest summary line: {final!r}")
    counts = {kind: int(count) for count, kind in re.findall(r"(\d+) ([a-z]+)", final)}
    slowest = [{"s": float(s), "when": when, "test": test} for s, when, test in
               re.findall(r"^([0-9.]+)s (call|setup|teardown) +(.+)$", stdout, re.M)]
    return {"pytest_s": float(seconds.group(1)), "counts": counts, "slowest": slowest}


def run_tier1(tree: Path, seed: int) -> dict:
    """One tier-1 run in ``tree`` at hypothesis seed ``seed``: its wall time
    and :func:`parse_tier1`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10", "-p", "no:cacheprovider", "--hypothesis-seed", str(seed)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return {"wall_s": time.perf_counter() - start, "exit_code": proc.returncode,
            **parse_tier1(proc.stdout)}


def run_tier1_set(parent: Path, change: Path, pairs: int, seed: int) -> dict:
    def run(side, k):
        result = run_tier1(parent if side == "parent" else change, seed + k)
        print(f"pair {k + 1}/{pairs} seed {seed + k} {side}: "
              f"{result['wall_s']:.1f} s, {result['counts']}", file=sys.stderr)
        return result

    runs = alternate(pairs, run)
    walls = {side: [run["wall_s"] for run in runs[side]] for side in runs}
    return {"runs": runs, "seeds": [seed + k for k in range(pairs)],
            "wall_s": summarize(walls["parent"], walls["change"], "lower")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", required=True, type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True,
                        help="the first pair's seed (for tier1, its hypothesis seed)")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<PR>.json to extend")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("--pairs must be >= 2")
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    if args.workload == "tier1":
        entry = doc.setdefault("tier1", {"sets": []})
        entry["sets"].append(run_tier1_set(args.parent, args.change, args.pairs, args.seed))
        entry["sets_run"] = len(entry["sets"])
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"tier1 wall_s: {describe(entry['sets'][-1]['wall_s'])}")
        return 0
    new = run_set(args.parent, args.change, args.workload, args.pairs, args.seconds, args.seed)
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {"sets": []})
    entry["sets"].append(new)
    entry["sets_run"] = len(entry["sets"])
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, row in new["metrics"].items():
        print(f"{args.workload} {name}: {describe(row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
