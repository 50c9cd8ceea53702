"""Replay the oracle's hot layers of two benchmark passes on two source trees, alternating, in one process.

    python tests/replay_layers.py --parent PARENT_DIR [--change CHANGE_DIR] \\
        [--seed 1] [--rounds 21]

Runs one recipes-small pass and one oracle-chains pass (``perfbench/cases.py``
of this checkout, as ``perfbench/run.py`` builds them at ``--seed``) with the
change's package and records four layers of them:

- every ``MomentTable.tau`` and ``SpectrumFamily.omega`` ask of the
  recipes-small pass, in order (the per-word memo lookups, about 96k);
- every ``MatrixTraceFamily.omega_many`` batch of the oracle-chains pass: the
  family's matrices, the codes and their ``WordCode``;
- every ``linred.chain_moment`` expansion: the coded A-grids, the reduced B
  scalars and the order;
- every ``linred.chain_moment_unreduced`` expansion: the coded grids of the
  whole chain and the order.

Then it loads the parent's package under a name of its own and, ``--rounds``
times, replays each layer on each tree in :func:`bench_pairs.alternate`'s
order: the asks and the batches on fresh models (a fresh model's memo starts
empty, as a case's does), the expansions through the tree's ``grid_scaled``
and ``grid_chain_trace``.  Per layer it prints whether the two trees' values
agree bitwise (:func:`bits`) and, from two rounds on, the
:func:`bench_pairs.summarize` line of its times in ms.  It exits 1 when any
layer's values differ.

The change tree needs only ``src``.  Make the parent tree with
``git archive <rev> | tar -x -C PARENT_DIR``.  It reads the package's private
names, so it follows the code it replays, not a stable API.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import sys
import time
from pathlib import Path
from unittest import mock

from bench_pairs import alternate, describe, summarize

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


def fresh_asks(cs, asks) -> list:
    """The recorded asks on fresh models of package ``cs``, one fresh model
    per recorded one."""
    fresh = {}

    def model_like(model, method):
        if id(model) not in fresh:
            fresh[id(model)] = (
                cs.MomentTable(model._table, degree_cap=model.degree_cap) if method == "tau"
                else cs.SpectrumFamily(model.spectra))
        return fresh[id(model)]

    return [(getattr(model_like(model, method), method), (w,)) for model, method, w in asks]


def fresh_batches(cs, batches) -> list:
    return [(cs.MatrixTraceFamily(matrices).omega_many, (codes, code))
            for matrices, codes, code in batches]


def reduced_traces(cs, expansions) -> list:
    linred = cs.linred

    def trace(a_grids, scalars, m):
        return linred.grid_chain_trace(
            [linred.grid_scaled(a_grid, scalar) for a_grid, scalar in zip(a_grids, scalars)], m)
    return [(trace, expansion) for expansion in expansions]


def unreduced_traces(cs, expansions) -> list:
    return [(cs.linred.grid_chain_trace, expansion) for expansion in expansions]


# each layer's ``(function, args)`` calls on a package, from its recorded calls
LAYERS = {
    "recipes-small asks": fresh_asks,
    "omega_many batches": fresh_batches,
    "reduced expansions": reduced_traces,
    "unreduced expansions": unreduced_traces,
}


def record(cs, cases, seed: int) -> dict:
    """Each layer's recorded calls, by name."""
    linred = cs.linred
    layers = {layer: [] for layer in LAYERS}

    def logged(owner, name, layer, keep):
        original = getattr(owner, name)

        def call(*args):
            layers[layer].append(keep(*args))
            return original(*args)
        return mock.patch.object(owner, name, call)

    patches = {
        "recipes-small": [
            logged(cs.MomentTable, "tau", "recipes-small asks", lambda t, w: (t, "tau", w)),
            logged(cs.SpectrumFamily, "omega", "recipes-small asks",
                   lambda f, w: (f, "omega", w)),
        ],
        "oracle-chains": [
            logged(cs.MatrixTraceFamily, "omega_many", "omega_many batches",
                   lambda family, codes, code: (family.matrices, list(codes), code)),
            logged(cs, "chain_moment", "reduced expansions",
                   lambda chain, m, a_model, b_state: (
                       linred._coded_grids(chain[0::2])[1],
                       [linred.reduce_b_matrix(b, b_state) for b in chain[1::2]], m)),
            logged(cs, "chain_moment_unreduced", "unreduced expansions",
                   lambda chain, m, a_model, b_state: (linred._coded_grids(chain)[1], m)),
        ],
    }
    for workload, workload_patches in patches.items():
        one_pass = next(cases.passes(workload, seed, cases.PASS_SECONDS[workload]))
        with contextlib.ExitStack() as stack:
            for patch in workload_patches:
                stack.enter_context(patch)
            for case in one_pass:
                case.run()
    return layers


def bits(x):
    """``x`` with every number as the ``float.hex`` of its two parts and every
    term map as its items in order; lists and tuples item by item."""
    if isinstance(x, dict):
        return [(key, bits(c)) for key, c in x.items()]
    if isinstance(x, (list, tuple)):
        return [bits(v) for v in x]
    return (x.real.hex(), x.imag.hex())


def timed(calls) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    values = [function(*args) for function, args in calls]
    return time.perf_counter() - start, values


def replay(trees: dict, layers: dict, rounds: int) -> bool:
    """Replay each layer, ``{name: (calls of a package, recorded)}``, on the
    packages ``trees["parent"]`` and ``trees["change"]``; whether every
    layer's values agree bitwise."""
    all_equal = True
    for name, (calls, recorded) in layers.items():
        values = {}

        def run(side, k):
            elapsed, values[side] = timed(calls(trees[side], recorded))
            return 1e3 * elapsed

        times = alternate(rounds, run)
        equal = bits(values["parent"]) == bits(values["change"])
        all_equal &= equal
        print(f"{name}: {len(recorded):,} calls, values "
              f"{'bitwise equal' if equal else 'DIFFER between the trees'}")
        if rounds > 1:
            print(f"  ms: {describe(summarize(times['parent'], times['change'], 'lower'))}")
    return all_equal


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent's source tree")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's source tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.change / "src"), str(ROOT / "perfbench")]
    import cases  # noqa: E402  (perfbench/cases.py)
    import cyclospec  # noqa: E402

    trees = {"parent": load_package(args.parent / "src", "cyclospec_parent"),
             "change": cyclospec}
    recorded = record(cyclospec, cases, args.seed)
    print(f"recipes-small and oracle-chains (seed {args.seed}), {args.rounds} rounds")
    equal = replay(trees, {name: (LAYERS[name], calls) for name, calls in recorded.items()},
                   args.rounds)
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
