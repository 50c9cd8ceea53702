"""Record alternating benchmark pairs of two source trees in a ``BENCH_<PR>.json``.

Runs ``perfbench/run.py`` of a parent tree and of a changed tree in
alternating order, one pair per seed, and appends the set to a JSON file:

    python3 tests/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --workload scenarios --pairs 10 --seconds 30 --seed 301 --out BENCH_<PR>.json

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
import statistics
import subprocess
import sys
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
    runs = {"parent": [], "change": []}
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(run_tree(tree, workload, seed + k, seconds))
            print(f"pair {k + 1}/{pairs} seed {seed + k} {side}: "
                  f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", required=True, type=Path, help="the change's source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_<PR>.json to extend")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        raise SystemExit("--pairs must be >= 2")
    new = run_set(args.parent, args.change, args.workload, args.pairs, args.seconds, args.seed)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {"sets": []})
    entry["sets"].append(new)
    entry["sets_run"] = len(entry["sets"])
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for name, row in new["metrics"].items():
        print(f"{args.workload} {name}: {row['parent_median']:.6g} "
              f"[{row['parent_q1']:.6g}, {row['parent_q3']:.6g}] -> {row['change_median']:.6g} "
              f"({100 * row['rel_change']:+.1f}%), wins {row['wins']}/{row['pairs']}"
              f"{', claim met' if row['claim_met'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
