"""Outside-in tracer: timers and counters wrapped around cyclospec's public names.

A function is wrapped under every module attribute that holds it, because a
caller looks it up by the name it imported: ``rmtlab.sample_gue`` and
``linred.cm_moment`` are bindings of their own, separate from
``ensembles.sample_gue`` and ``cmcalc.cm_moment``.  ``omega`` and ``tau`` are
wrapped on each model class that defines them.

Open spans are kept in memory on a stack.  When a span closes, its duration
is added to its name's busy time and to its parent's child time; its self
time is the duration minus that child time.  Closed spans are folded into
per-name totals at once, so memory stays flat however many calls are made.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "cyclospec",
    "cyclospec.ncalg",
    "cyclospec.cmcalc",
    "cyclospec.linred",
    "cyclospec.ensembles",
    "cyclospec.spectra",
    "cyclospec.rmtlab",
)

# span name -> (defining module, function names that share the span)
FUNCTIONS = {
    "ncalg.power": ("cyclospec.ncalg", ("power",)),
    "cmcalc.poly_moment": ("cyclospec.cmcalc", ("poly_moment",)),
    "cmcalc.cm_moment": ("cyclospec.cmcalc", ("cm_moment",)),
    "linred.chain_moment": ("cyclospec.linred", ("chain_moment",)),
    "linred.chain_moment_unreduced": ("cyclospec.linred", ("chain_moment_unreduced",)),
    "linred.reduce_b_matrix": ("cyclospec.linred", ("reduce_b_matrix",)),
    "linred.ev_chain": ("cyclospec.linred", ("ev_chain",)),
    "linred.ev_sum_bab": ("cyclospec.linred", ("ev_sum_bab",)),
    "linred.ev_sum_bac": ("cyclospec.linred", ("ev_sum_bac",)),
    "linred.ev_other": ("cyclospec.linred", (
        "ev_anticommutator", "ev_commutator", "ev_sum_aba", "ev_conjugated_sum")),
    "rmtlab.build_prediction": ("cyclospec.rmtlab", ("build_prediction",)),
    "rmtlab.estimate_beta": ("cyclospec.rmtlab", ("estimate_beta",)),
    "rmtlab.run_scenario": ("cyclospec.rmtlab", ("run_scenario",)),
    "ensembles.sample_gue": ("cyclospec.ensembles", ("sample_gue",)),
    "ensembles.sample_haar_unitary": ("cyclospec.ensembles", ("sample_haar_unitary",)),
    "spectra.hermitian_spectrum": ("cyclospec.spectra", ("hermitian_spectrum",)),
    "spectra.match_distance": ("cyclospec.spectra", ("match_distance",)),
}

# span name -> (defining module, base class, method names); every subclass
# that defines the method in its own body is wrapped.
METHODS = {
    "cmcalc.omega": ("cyclospec.cmcalc", "TraceClassModel", ("omega",)),
    "cmcalc.tau": ("cyclospec.cmcalc", "TracialState", ("tau",)),
    "linred.algmatrix_product": ("cyclospec.linred", "AlgMatrix", ("__matmul__", "__rmatmul__")),
}

# The oracle expansions: the words they hand to cm_moment are grouped into
# rotation classes, one group per call.
EXPANSIONS = ("cmcalc.poly_moment", "linred.chain_moment_unreduced")

# (metric, source, unit): source is (span name, field) with field one of
# calls, s, self_s, distinct_ratio; or a counter name.  A distinct ratio is
# the number of distinct (model, rotation class) keys per case, summed, over
# the number of calls: the share of calls a per-model cache would still make.
REPORTED = [
    ("ncalg.power.calls", ("ncalg.power", "calls"), "count"),
    ("ncalg.power.s", ("ncalg.power", "s"), "s"),
    ("ncalg.power.terms", "ncalg.power.terms", "count"),
    ("ncalg.rotation_classes", "ncalg.rotation_classes", "count"),
    ("cmcalc.poly_moment.calls", ("cmcalc.poly_moment", "calls"), "count"),
    ("cmcalc.poly_moment.s", ("cmcalc.poly_moment", "s"), "s"),
    ("cmcalc.cm_moment.calls", ("cmcalc.cm_moment", "calls"), "count"),
    ("cmcalc.cm_moment.s", ("cmcalc.cm_moment", "s"), "s"),
    ("cmcalc.omega.calls", ("cmcalc.omega", "calls"), "count"),
    ("cmcalc.omega.s", ("cmcalc.omega", "s"), "s"),
    ("cmcalc.omega.distinct_ratio", ("cmcalc.omega", "distinct_ratio"), "ratio"),
    ("cmcalc.tau.calls", ("cmcalc.tau", "calls"), "count"),
    ("cmcalc.tau.s", ("cmcalc.tau", "s"), "s"),
    ("cmcalc.tau.distinct_ratio", ("cmcalc.tau", "distinct_ratio"), "ratio"),
    ("linred.chain_moment.calls", ("linred.chain_moment", "calls"), "count"),
    ("linred.chain_moment.s", ("linred.chain_moment", "s"), "s"),
    ("linred.chain_moment_unreduced.calls", ("linred.chain_moment_unreduced", "calls"), "count"),
    ("linred.chain_moment_unreduced.s", ("linred.chain_moment_unreduced", "s"), "s"),
    ("linred.reduce_b_matrix.s", ("linred.reduce_b_matrix", "s"), "s"),
    ("linred.algmatrix_product.s", ("linred.algmatrix_product", "s"), "s"),
    ("linred.ev_chain.s", ("linred.ev_chain", "s"), "s"),
    ("linred.ev_sum_bab.s", ("linred.ev_sum_bab", "s"), "s"),
    ("linred.ev_sum_bac.s", ("linred.ev_sum_bac", "s"), "s"),
    ("linred.ev_other.s", ("linred.ev_other", "s"), "s"),
    ("rmtlab.build_prediction.calls", ("rmtlab.build_prediction", "calls"), "count"),
    ("rmtlab.build_prediction.s", ("rmtlab.build_prediction", "s"), "s"),
    ("rmtlab.estimate_beta.s", ("rmtlab.estimate_beta", "s"), "s"),
    ("rmtlab.run_scenario.self_s", ("rmtlab.run_scenario", "self_s"), "s"),
    ("ensembles.sample_gue.calls", ("ensembles.sample_gue", "calls"), "count"),
    ("ensembles.sample_gue.s", ("ensembles.sample_gue", "s"), "s"),
    ("ensembles.sample_haar_unitary.calls", ("ensembles.sample_haar_unitary", "calls"), "count"),
    ("ensembles.sample_haar_unitary.s", ("ensembles.sample_haar_unitary", "s"), "s"),
    ("spectra.hermitian_spectrum.calls", ("spectra.hermitian_spectrum", "calls"), "count"),
    ("spectra.hermitian_spectrum.s", ("spectra.hermitian_spectrum", "s"), "s"),
    ("spectra.match_distance.s", ("spectra.match_distance", "s"), "s"),
]


def rotation_class(word: tuple) -> tuple:
    """Least rotation of a word; two words share a class iff these are equal."""
    if len(word) < 2:
        return word
    return min(word[j:] + word[:j] for j in range(len(word)))


class Tracer:
    """Per-name call counts, busy and self time, plus the oracle counters."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = Counter()
        self._stack: list[list[float]] = []  # child time of each open span
        self._expansions: list[set] = []
        self._distinct = {"cmcalc.omega": set(), "cmcalc.tau": set()}
        self._before = {name: self._open_expansion for name in EXPANSIONS}
        self._before["cmcalc.cm_moment"] = self._note_oracle_word
        self._before["cmcalc.omega"] = self._distinct_noter("cmcalc.omega")
        self._before["cmcalc.tau"] = self._distinct_noter("cmcalc.tau")
        self._after = {name: self._close_expansion for name in EXPANSIONS}
        self._after["ncalg.power"] = self._count_terms

    def _wrap(self, name: str, fn):
        calls, busy, self_time, stack = self.calls, self.busy, self.self_time, self._stack
        before = self._before.get(name)
        after = self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            children = [0.0]
            stack.append(children)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                self_time[name] += elapsed - children[0]
                if after is not None:
                    after(result)

        return wrapper

    # -- counter hooks ------------------------------------------------------

    def _open_expansion(self, args):
        self._expansions.append(set())

    def _close_expansion(self, result):
        self.counters["ncalg.rotation_classes"] += len(self._expansions.pop())

    def _count_terms(self, result):
        if result is not None:
            self.counters["ncalg.power.terms"] += len(result.terms)

    def _note_oracle_word(self, args):
        if self._expansions:
            self._expansions[-1].add(rotation_class(tuple(args[0])))

    def _distinct_noter(self, name):
        seen = self._distinct[name]

        def note(args):
            model, word = args[0], args[1]
            seen.add((id(model), rotation_class(tuple(word))))

        return note

    @contextlib.contextmanager
    def case(self):
        """Scope of one case: distinct omega/tau words are counted per case,
        since every case builds its own models."""
        try:
            yield
        finally:
            for name, seen in self._distinct.items():
                self.counters[name + ".distinct"] += len(seen)
                seen.clear()

    # -- installing ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        modules = [importlib.import_module(m) for m in MODULES]
        undo = []
        try:
            for name, (home, fn_names) in FUNCTIONS.items():
                home_mod = importlib.import_module(home)
                for fn_name in fn_names:
                    original = getattr(home_mod, fn_name)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                undo.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            for name, (home, base_name, method_names) in METHODS.items():
                base = getattr(importlib.import_module(home), base_name)
                for cls in _with_subclasses(base):
                    for method in method_names:
                        if method in vars(cls):
                            original = vars(cls)[method]
                            undo.append((cls, method, original))
                            setattr(cls, method, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for metric, source, unit in REPORTED:
            if isinstance(source, str):
                value = self.counters.get(source, 0)
            elif source[1] == "distinct_ratio":
                calls = self.calls.get(source[0], 0)
                value = self.counters.get(source[0] + ".distinct", 0) / calls if calls else 0.0
            else:
                span, field = source
                table = {"calls": self.calls, "s": self.busy, "self_s": self.self_time}[field]
                value = table.get(span, 0)
            out[metric] = (value, unit)
        return out


def _with_subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_with_subclasses(sub))
    return out
