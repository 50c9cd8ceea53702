"""Print how often each pinned random-matrix gate's statistic exceeds its bound.

    PYTHONPATH=src python tests/print_gate_odds.py [--seeds 24] [--variant no-haar]

Five tier-1 gates read a 5-trial statistic of one demo at one pinned seed
against a fixed bound (``tests/test_acceptance.py``): criterion 5
(example1's moment errors), the criterion-6 supplementary run (example3 at
n=600), criterion 7's correlated run, and the two XFAILs (example3 at n=300,
example2 at n=300).  For each gate this runs the gate's scenario at the
gate's n and trials over the seed stream 1..``--seeds`` and prints the
statistic's mean and sd over the seeds and the number of seeds beyond the
bound.  A match gate's statistic is ``match_mean_max_rel``, printed beside
``match_mean_signed_max_rel``; criterion 5 prints each moment's error, and a
seed is beyond when any error exceeds its bound.

``--variant no-haar`` runs every scenario with ``haar_conjugate_b`` off
(example1's file has it off already, so its rows are the canonical ones).
About a minute a variant at 24 seeds on a 2-core x86 host.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from cyclospec import Scenario, builtin_scenario, run_scenario

# (gate, demo, n, trials, bound): the gates of tests/test_acceptance.py
GATES = [
    ("criterion 5", "example1", 300, 5, (0.08, 0.08, 0.12)),
    ("criterion 6 supplementary", "example3", 600, 5, 0.10),
    ("criterion 6 as stated (XFAIL)", "example3", 300, 5, 0.10),
    ("criterion 7 correlated", "example2-correlated", 300, 5, 0.15),
    ("criterion 7 independent (XFAIL)", "example2", 300, 5, 0.15),
]


def summaries(demo: str, n: int, trials: int, seeds, haar: bool | None = None) -> list[dict]:
    """The ``summary`` of ``demo`` at ``n`` and ``trials`` for each seed, with
    ``haar_conjugate_b`` set to ``haar`` unless it is ``None``."""
    out = []
    for seed in seeds:
        doc = builtin_scenario(demo, n=n, trials=trials, seed=seed).to_dict()
        if haar is not None:
            doc["haar_conjugate_b"] = haar
        out.append(run_scenario(Scenario.from_dict(doc)).summary)
    return out


def mean_sd(values) -> str:
    return f"{statistics.fmean(values):.4f} sd {statistics.stdev(values):.4f}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=24, help="seeds 1..SEEDS (default: 24)")
    parser.add_argument("--variant", choices=("canonical", "no-haar"), default="canonical")
    args = parser.parse_args(argv)
    seeds = range(1, args.seeds + 1)
    haar = False if args.variant == "no-haar" else None
    print(f"variant {args.variant}, seeds 1..{args.seeds}")
    for gate, demo, n, trials, bound in GATES:
        runs = summaries(demo, n, trials, seeds, haar)
        print(f"{gate}: {demo}, n={n}, {trials} trials, bound {bound}")
        if isinstance(bound, tuple):
            errs = [run["moment_rel_err_vs_prediction"] for run in runs]
            for k, limit in enumerate(bound):
                moment = [e[k] for e in errs]
                print(f"  moment {k + 1} rel err: mean {mean_sd(moment)}, max {max(moment):.4f}, "
                      f"beyond {limit}: {sum(e > limit for e in moment)}")
            beyond = sum(any(e > b for e, b in zip(err, bound)) for err in errs)
        else:
            rels = [run["match_mean_max_rel"] for run in runs]
            signed = [run["match_mean_signed_max_rel"] for run in runs]
            print(f"  max_rel: mean {mean_sd(rels)}, max {max(rels):.4f}")
            print(f"  signed_max_rel: mean {mean_sd(signed)}, max {max(signed):.4f}")
            beyond = sum(rel > bound for rel in rels)
        print(f"  seeds beyond the bound: {beyond} / {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
