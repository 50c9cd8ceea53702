"""Replay one oracle-chains pass's weight batches and chain expansions on two source trees, alternating, in one process.

    python tests/replay_chain_batches.py --parent PARENT_DIR [--change CHANGE_DIR] \\
        [--seed 1] [--rounds 21]

Runs one pass of the oracle-chains workload (``perfbench/cases.py``, as
``perfbench/run.py`` builds it at ``--seed``) with the change's package and
records three layers of it, as plain data:

- every ``MatrixTraceFamily.omega_many`` batch: the family's matrices, the
  codes and their ``WordCode`` (``linred.chain_moment``'s weights);
- every ``linred.chain_moment`` expansion: the coded A-grids, the reduced B
  scalars and the order, from which the grid arithmetic forms the trace;
- every ``linred.chain_moment_unreduced`` expansion: the coded grids of the
  whole chain and the order.

Then it loads the parent's package under a name of its own and, ``--rounds``
times, replays each layer on each tree, the trees in alternating order (the
parent first in even rounds): the batches on fresh families, the expansions
through each tree's ``grid_scaled`` and its chain trace,
``grid_chain_trace`` where the tree has it and otherwise ``grid_product``
steps and ``grid_power_trace``.  It prints each tree's median and quartiles
of a layer's replay, the change's median relative to the parent's, and
whether the two trees' values agree bitwise (weights by ``float.hex``,
traces by key, order and coefficient).  It exits 1 when any layer's values
differ.

Make the parent tree with ``git archive <rev> | tar -x -C PARENT_DIR``.  It
reads the package's private names, so it follows the code it replays, not
a stable API.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

from replay_memo_asks import ROOT, load_package


def record(cs, cases, seed: int) -> dict:
    """The three recorded layers of one oracle-chains pass, by name."""
    linred = cs.linred
    layers = {"omega_many batches": [], "reduced expansions": [], "unreduced expansions": []}
    omega_many = cs.MatrixTraceFamily.omega_many
    reduced, unreduced = linred.chain_moment, linred.chain_moment_unreduced

    def batch(model, codes, code):
        layers["omega_many batches"].append((model.matrices, list(codes), code))
        return omega_many(model, codes, code)

    def chain_moment(chain, m, a_model, b_state):
        scalars = [linred.reduce_b_matrix(b, b_state) for b in chain[1::2]]
        layers["reduced expansions"].append((linred._coded_grids(chain[0::2])[1], scalars, m))
        return reduced(chain, m, a_model, b_state)

    def chain_moment_unreduced(chain, m, a_model, b_state):
        layers["unreduced expansions"].append((linred._coded_grids(chain)[1], m))
        return unreduced(chain, m, a_model, b_state)

    one_pass = next(cases.passes("oracle-chains", seed, cases.PASS_SECONDS["oracle-chains"]))
    with mock.patch.object(cs.MatrixTraceFamily, "omega_many", batch), \
            mock.patch.object(cs, "chain_moment", chain_moment), \
            mock.patch.object(cs, "chain_moment_unreduced", chain_moment_unreduced):
        for case in one_pass:
            case.run()
    return layers


def replay_batches(cs, batches) -> tuple[float, list]:
    families = [(cs.MatrixTraceFamily(matrices), codes, code) for matrices, codes, code in batches]
    gc.collect()
    start = time.perf_counter()
    values = [family.omega_many(codes, code) for family, codes, code in families]
    return time.perf_counter() - start, values


def chain_trace(linred, grids, m) -> dict:
    """The trace of ``(G1 @ ... @ GL)**m`` by the tree's own kernel."""
    if hasattr(linred, "grid_chain_trace"):
        return linred.grid_chain_trace(grids, m)
    product = grids[0]
    for grid in grids[1:]:
        product = linred.grid_product(product, grid)
    return linred.grid_power_trace(product, m)


def replay_reduced(cs, expansions) -> tuple[float, list]:
    linred = cs.linred
    gc.collect()
    start = time.perf_counter()
    traces = [chain_trace(linred, [linred.grid_scaled(a_grid, scalar)
                                   for a_grid, scalar in zip(a_grids, scalars)], m)
              for a_grids, scalars, m in expansions]
    return time.perf_counter() - start, traces


def replay_unreduced(cs, expansions) -> tuple[float, list]:
    linred = cs.linred
    gc.collect()
    start = time.perf_counter()
    traces = [chain_trace(linred, grids, m) for grids, m in expansions]
    return time.perf_counter() - start, traces


REPLAYS = {
    "omega_many batches": replay_batches,
    "reduced expansions": replay_reduced,
    "unreduced expansions": replay_unreduced,
}


def bits(values) -> list:
    """``values``, lists of complex weights or term maps, with every
    coefficient by ``float.hex`` and every map in its order."""
    def one(x):
        if isinstance(x, dict):
            return [(key, one(c)) for key, c in x.items()]
        return (x.real.hex(), x.imag.hex())
    return [[one(x) for x in v] if isinstance(v, list) else one(v) for v in values]


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
    layers = record(cyclospec, cases, args.seed)
    print(f"oracle-chains (seed {args.seed}), {args.rounds} rounds")
    all_equal = True
    for layer, recorded in layers.items():
        replay = REPLAYS[layer]
        times = {side: [] for side in trees}
        values = {}
        for k in range(args.rounds):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                elapsed, values[side] = replay(trees[side], recorded)
                times[side].append(elapsed)
        equal = bits(values["parent"]) == bits(values["change"])
        all_equal &= equal
        print(f"{layer}: {len(recorded)} calls, values bitwise equal: {equal}")
        for side, runs in times.items():
            # one round's quartiles are its one run
            q1, median, q3 = statistics.quantiles(runs if len(runs) > 1 else runs * 2,
                                                  n=4, method="inclusive")
            print(f"  {side}: median {1e3 * median:.2f} ms [{1e3 * q1:.2f}, {1e3 * q3:.2f}]")
        parent, change = (statistics.median(times[side]) for side in ("parent", "change"))
        print(f"  change against parent: {100 * (change - parent) / parent:+.1f}%")
    return 0 if all_equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
