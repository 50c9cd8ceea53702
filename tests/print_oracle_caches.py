"""Print the asks and hits of each oracle cache over one pass of each benchmark workload.

    python tests/print_oracle_caches.py [--seed 1] [--workload NAME ...]

Builds one pass of each workload with ``perfbench/cases.py``, as
``perfbench/run.py`` does at that seed, runs every case and checks it
against its reference, and counts, per model class, what the oracle's caches
answer while the cases run (case generation is not counted):

- ``memo``: the per-word memos of ``MomentTable.tau`` and
  ``SpectrumFamily.omega``, which last as long as the model; an ask is a
  hit when its word is already in the memo.
- ``asks``: the matrix models' ``omega`` and ``tau``, which keep no value;
  ``in sweep`` counts the asks a coded sweep's memo makes on a miss, and
  ``repeats`` the asks of a word the same model was already asked since the
  last oracle sweep (``cmcalc._sweep``) over it began or ended, which a memo
  living one sweep, or one stretch between sweeps, would answer.  For the state, which keeps no product,
  ``products`` counts the matrix products its asks make.
- ``cache``: the asks of ``_SemicircleState.tau`` (the B state derived from
  ``b_spec``), which keeps no memo of its own, and the hits and misses of
  the process-wide ``functools.cache`` of ``_noncrossing_pairings`` during
  them (its ``cache_info()`` deltas, recursive calls included).
- ``coded``: a coded sweep's two memos (``CodedSweep.taus`` and
  ``omegas``): lookups, hits, misses (each one ask of the model), and the
  entries an ``omegas`` memo starts from, the weights ``chain_moment``
  batched; ``batch`` counts the ``omega_many`` calls and their codes.
- ``stack``: ``WordProducts.product`` calls (the weight's), the matrix
  products they make, and the products the same words need without the
  prefix stack.

It uses the standard library, numpy and the package only, and reads the
package's private names, so it follows the code it counts, not a stable API.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cases  # noqa: E402  (perfbench/cases.py)
from cyclospec import cmcalc, linred  # noqa: E402


def _shared(w, last, stack) -> int:
    """The leading letters of ``w`` whose product the stack holds, as
    ``WordProducts.product`` finds them."""
    shared, limit = 0, min(len(w), len(stack))
    while shared < limit and w[shared] == last[shared]:
        shared += 1
    return shared


def _coded_row(memo) -> str | None:
    """The row of a coded sweep's memo (``CodedSweep.taus`` or ``omegas``),
    named by the model its evaluator asks; ``None`` for any other memo."""
    evaluate = memo._evaluate
    if getattr(evaluate, "func", None) is not cmcalc._decoded:
        return None
    return f"coded {type(evaluate.args[0].__self__).__name__} memo"


class Counts:
    """Counters installed on the oracle's caches for the length of a block."""

    def __init__(self):
        self.n = Counter()
        self._seen: dict[int, set] = {}  # words asked of a matrix model in this window
        self._in_sweep = 0

    def _patch(self, owner, name, make):
        self._patches.enter_context(mock.patch.object(owner, name, make(getattr(owner, name))))

    def __enter__(self):
        self._patches = contextlib.ExitStack()
        n = self.n
        for cls, method in ((cmcalc.MomentTable, "tau"), (cmcalc.SpectrumFamily, "omega")):
            def memo(original, key=f"memo {cls.__name__}.{method}"):
                def ask(model, w):
                    n[key, "asks"] += 1
                    n[key, "hits"] += w in model._values
                    return original(model, w)
                return ask
            self._patch(cls, method, memo)
        for cls, method in ((cmcalc.MatrixTraceFamily, "omega"),
                            (cmcalc.TraceMatrixState, "tau")):
            def matrix(original, key=f"asks {cls.__name__}.{method}", state=method == "tau"):
                def ask(model, w):
                    n[key, "asks"] += 1
                    n[key, "in sweep"] += bool(self._in_sweep)
                    seen = self._seen.setdefault(id(model), set())
                    n[key, "repeats"] += w in seen
                    seen.add(w)
                    if state:
                        n[key, "products"] += max(len(w) - 1, 0)
                    return original(model, w)
                return ask
            self._patch(cls, method, matrix)

        def semicircle(original, key="cache _SemicircleState.tau"):
            def ask(state, w):
                before = cmcalc._noncrossing_pairings.cache_info()
                try:
                    return original(state, w)
                finally:
                    after = cmcalc._noncrossing_pairings.cache_info()
                    n[key, "asks"] += 1
                    n[key, "pairings hits"] += after.hits - before.hits
                    n[key, "pairings misses"] += after.misses - before.misses
            return ask
        self._patch(cmcalc._SemicircleState, "tau", semicircle)

        def sweep(original):
            def counted(terms, a_model, b_state, *code):
                models = id(a_model), id(b_state)
                for model in models:  # a sweep's asks start a window of their own
                    self._seen.pop(model, None)
                try:
                    return original(terms, a_model, b_state, *code)
                finally:
                    for model in models:
                        self._seen.pop(model, None)
            return counted
        # poly_moment reads cmcalc's name, chain_moment_unreduced linred's
        for module in (cmcalc, linred):
            self._patch(module, "_sweep", sweep)

        # every lazily filled table is a cmcalc._Memo; only a coded sweep's
        # two are counted here
        def memo_init(original):
            def init(memo, evaluate, known=()):
                original(memo, evaluate, known)
                key = _coded_row(memo)
                if key:
                    n[key, "seeded"] += len(known)
            return init
        self._patch(cmcalc._Memo, "__init__", memo_init)

        def lookup(original):  # dict.__getitem__, which calls __missing__ on a miss
            def get(memo, c):
                key = _coded_row(memo)
                if key is None:
                    return original(memo, c)
                n[key, "lookups"] += 1
                if c in memo:
                    n[key, "hits"] += 1
                    return original(memo, c)
                n[key, "misses"] += 1
                self._in_sweep += 1
                try:
                    return original(memo, c)
                finally:
                    self._in_sweep -= 1
            return get
        self._patch(cmcalc._Memo, "__getitem__", lookup)

        def batch(original):
            def omega_many(model, codes, code):
                n["batch omega_many", "calls"] += 1
                n["batch omega_many", "codes"] += len(codes)
                return original(model, codes, code)
            return omega_many
        self._patch(cmcalc.MatrixTraceFamily, "omega_many", batch)

        def product(original):
            def counted(products, w):
                shared = _shared(w, products._word, products._stack)
                n["stack WordProducts.product", "calls"] += 1
                n["stack WordProducts.product", "products"] += len(w) - 1 - max(shared - 1, 0)
                n["stack WordProducts.product", "without stack"] += len(w) - 1
                return original(products, w)
            return counted
        self._patch(cmcalc.WordProducts, "product", product)
        return self

    def __exit__(self, *exc):
        return self._patches.__exit__(*exc)

    def rows(self):
        """``(cache, {field: count})`` in first-counted order."""
        out: dict[str, dict[str, int]] = {}
        for (cache, field), value in self.n.items():
            out.setdefault(cache, {})[field] = value
        return out.items()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(cases.PASS_SECONDS))
    args = parser.parse_args(argv)
    failed = 0
    for workload in args.workload or list(cases.PASS_SECONDS):
        one_pass = next(cases.passes(workload, args.seed, cases.PASS_SECONDS[workload]))
        with Counts() as counts:
            outputs = [case.run() for case in one_pass]
        bad = sum(not case.check(out)[0] for case, out in zip(one_pass, outputs))
        failed += bad
        print(f"{workload} (seed {args.seed}, one pass of {len(one_pass)} cases, "
              f"{bad} failed their reference)")
        rows = list(counts.rows())
        if not rows:
            print("  no oracle cache was asked")
        for cache, fields in rows:
            text = ", ".join(f"{field} {value:,}" for field, value in fields.items())
            print(f"  {cache}: {text}")
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
