"""Replay one recipes-small pass's state and weight asks on two source trees, alternating, in one process.

    python tests/replay_memo_asks.py --parent PARENT_DIR [--change CHANGE_DIR] \\
        [--seed 1] [--rounds 21]

Runs one pass of the recipes-small workload (``perfbench/cases.py``, as
``perfbench/run.py`` builds it at ``--seed``) with the change's package and
records, in order, every ``MomentTable.tau`` and ``SpectrumFamily.omega``
ask its oracle makes: the per-word memo lookups of that workload (about 96k
a pass).  Then it loads the parent's package under a name of its own and,
``--rounds`` times, builds fresh models of both trees from the recorded
models' data and times the replay of every ask on each tree's models, the
trees in alternating order (the parent first in even rounds).  A fresh
model's memo starts empty, as a case's does, so the replay makes the
pass's misses too.  It prints each tree's median and quartiles of a replay
and the change's median relative to the parent's.

Make the parent tree with ``git archive <rev> | tar -x -C PARENT_DIR``.  It
reads the package's private names, so it follows the code it replays, not
a stable API.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]


def load_package(src: Path, name: str):
    """The ``cyclospec`` package under ``src``, imported as ``name``."""
    home = src / "cyclospec"
    spec = importlib.util.spec_from_file_location(
        name, home / "__init__.py", submodule_search_locations=[str(home)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def record_asks(cs, cases, seed: int):
    """The ``(model, method name, word)`` asks of one recipes-small pass."""
    asks = []

    def logged(cls, method):
        original = getattr(cls, method)

        def ask(model, w):
            asks.append((model, method, w))
            return original(model, w)
        return mock.patch.object(cls, method, ask)

    one_pass = next(cases.passes("recipes-small", seed, cases.PASS_SECONDS["recipes-small"]))
    with logged(cs.MomentTable, "tau"), logged(cs.SpectrumFamily, "omega"):
        for case in one_pass:
            case.run()
    return asks


def fresh_asks(cs, asks):
    """The recorded asks as bound methods of fresh models of package ``cs``,
    one fresh model per recorded one."""
    fresh = {}

    def model_like(model, method):
        if id(model) not in fresh:
            fresh[id(model)] = (
                cs.MomentTable(model._table, degree_cap=model.degree_cap) if method == "tau"
                else cs.SpectrumFamily(model.spectra))
        return fresh[id(model)]

    return [(getattr(model_like(model, method), method), w) for model, method, w in asks]


def replay(bound) -> float:
    start = time.perf_counter()
    for ask, w in bound:
        ask(w)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's source tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.change / "src"), str(args.change / "perfbench")]
    import cases  # noqa: E402  (perfbench/cases.py)
    import cyclospec  # noqa: E402

    trees = {"parent": load_package(args.parent / "src", "cyclospec_parent"),
             "change": cyclospec}
    asks = record_asks(cyclospec, cases, args.seed)
    times = {side: [] for side in trees}
    for k in range(args.rounds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            bound = fresh_asks(trees[side], asks)
            gc.collect()
            times[side].append(replay(bound))
            del bound
    print(f"recipes-small (seed {args.seed}): {len(asks):,} asks, {args.rounds} rounds")
    for side, runs in times.items():
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        print(f"  {side}: median {1e3 * median:.2f} ms [{1e3 * q1:.2f}, {1e3 * q3:.2f}], "
              f"{1e9 * median / len(asks):.0f} ns an ask")
    parent, change = (statistics.median(times[side]) for side in ("parent", "change"))
    print(f"  change against parent: {100 * (change - parent) / parent:+.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
