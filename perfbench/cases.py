"""Seeded inputs and reference-checked cases for the benchmark workloads.

The instance generators live here rather than in the test suite, so that an
edit to a test cannot silently change what the benchmark measures.  Given a
single generator, ``chain_instance`` draws in the same order as acceptance
criterion 3, so that case list (seed 3030, 100 chains) is reproduced exactly.

Every case is run once, on objects built for it alone, so no model cache
carries over between cases.  Each case returns the program's output from
``run`` and judges it in ``check`` against an independent reference;
``check`` is not timed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, NamedTuple

import numpy as np

import cyclospec as cs
from cyclospec import (
    AlgMatrix,
    ExplicitSpectrum,
    GeometricSpectrum,
    MatrixTraceFamily,
    MomentTable,
    NCPolynomial,
    SpectrumFamily,
    TraceMatrixState,
    a_gen,
    b_gen,
)

# Nominal seconds of one pass of each workload on the seed code (2-core x86,
# OpenBLAS with default threading).  ``--seconds`` is turned into a whole
# number of passes with these, so the case list depends only on the seed and
# the budget, never on how fast the machine happens to be.
PASS_SECONDS = {"oracle-chains": 5.0, "recipes-small": 2.1, "scenarios": 8.0}

REL_TOL = 1e-9

# The cost of a case lies in the shape of its input (the words of a chain,
# the sizes k and n of a recipe instance), hardly in its values.  Shapes come
# from this fixed stream, restarted for every pass, and values from the run's
# seed: the seed changes every number the program computes but not how much
# work a run does, and case i of every pass has the same shape, so a case's
# time can be taken as its median over the passes.
STRUCTURE_SEED = 3030

# One oracle-chains pass: this many chains of every shape in CHAIN_SHAPES.
CHAINS_PER_SHAPE = 3

# One recipes-small pass: the criterion-2 mix repeated this many times, then
# the anticommutator and commutator oracle at orders 1..ORACLE_ORDERS.
RECIPE_ROUNDS_PER_PASS = 100
ORACLE_ORDERS = 8

# One scenarios pass: (demo name, n); every run_scenario uses SCENARIO_TRIALS.
SCENARIOS = (("example1", 300), ("example3", 600), ("example2-correlated", 300))
SCENARIO_TRIALS = 5


class Case(NamedTuple):
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (ok, info or None)


def rel_err(x, y) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def passes(workload: str, seed: int, seconds: float):
    """The passes of one run, each a list of cases; values come from ``seed``.

    Passes are generated one at a time, so the inputs held in memory never
    exceed one pass.
    """
    if workload not in PASS_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    for _ in range(max(1, round(seconds / PASS_SECONDS[workload]))):
        structure = np.random.default_rng(STRUCTURE_SEED)
        if workload == "oracle-chains":
            yield [chain_case(chain_instance(structure, shape, values=rng))
                   for _ in range(CHAINS_PER_SHAPE) for shape in CHAIN_SHAPES]
        elif workload == "recipes-small":
            yield recipe_pass(rng, structure)
        else:
            yield [scenario_case(name, n, int(rng.integers(2**31))) for name, n in SCENARIOS]


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def random_general(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_psd(k, rng):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return z.conj().T @ z / k


# ---------------------------------------------------------------------------
# oracle-chains: alternating chains, reduced path against unreduced oracle
# ---------------------------------------------------------------------------

# (dim, k, m, max terms per entry): the criterion-3 shape set.  The unreduced
# expansion grows like (dim*terms)**(2km), so every bound (dim 3, k 3, m 3)
# is reached by some shape but never all at once.
CHAIN_SHAPES = [
    (1, 1, 3, 2),
    (1, 2, 3, 2),
    (1, 3, 2, 2),
    (2, 1, 2, 2),
    (2, 1, 3, 2),
    (2, 2, 1, 2),
    (2, 2, 2, 1),
    (2, 2, 3, 1),
    (2, 3, 1, 2),
    (2, 3, 2, 1),
    (3, 1, 1, 2),
    (3, 1, 2, 2),
    (3, 1, 3, 1),
    (3, 2, 1, 2),
    (3, 2, 2, 1),
    (3, 3, 1, 1),
]


def _random_entry(rng, values, gens, max_terms, allow_unit):
    poly = NCPolynomial.zero()
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        length = int(rng.integers(0 if allow_unit else 1, 3))
        word = tuple(gens[rng.integers(0, len(gens))] for _ in range(length))
        coeff = complex(values.uniform(-1, 1), values.uniform(-1, 1))
        poly = poly + NCPolynomial.from_word(word, coeff)
    if poly.is_zero():
        poly = NCPolynomial.from_word((gens[0],))
    return poly


def chain_instance(rng, shape=None, values=None):
    """A random alternating chain with matrix-backed state and weight models.

    ``rng`` draws the structure (shape, words) and ``values`` the numbers
    (coefficients, model matrices); one generator for both, drawing the shape
    first, reproduces criterion 3.
    """
    values = rng if values is None else values
    if shape is None:
        shape = CHAIN_SHAPES[rng.integers(0, len(CHAIN_SHAPES))]
    dim, k, m, max_terms = shape
    a_letters = [a_gen(i, star=s) for i in (1, 2) for s in (False, True)]
    b_letters = [b_gen(i, star=s) for i in (1, 2) for s in (False, True)]
    chain = []
    for _ in range(k):
        a_rows = [
            [_random_entry(rng, values, a_letters, max_terms, allow_unit=False)
             for _ in range(dim)]
            for _ in range(dim)
        ]
        b_rows = [
            [_random_entry(rng, values, b_letters, max_terms, allow_unit=True)
             for _ in range(dim)]
            for _ in range(dim)
        ]
        chain.append(AlgMatrix(a_rows))
        chain.append(AlgMatrix(b_rows))
    b_state = TraceMatrixState({i: random_general(3, values) for i in (1, 2)})
    a_model = MatrixTraceFamily({i: random_general(4, values) for i in (1, 2)})
    return {"chain": chain, "m": m, "a_model": a_model, "b_state": b_state}


def chain_case(inst) -> Case:
    args = (inst["chain"], inst["m"], inst["a_model"], inst["b_state"])

    def run():
        return cs.chain_moment(*args), cs.chain_moment_unreduced(*args)

    def check(out):
        reduced, direct = out
        return rel_err(reduced, direct) <= REL_TOL, None

    dim = inst["chain"][0].shape[0]
    return Case(f"chain d{dim} k{len(args[0]) // 2} m{inst['m']}", run, check)


# ---------------------------------------------------------------------------
# recipes-small: ev_* multisets against oracle moments
# ---------------------------------------------------------------------------


def sum_bab_instance(k, n, rng):
    """Polynomial sum_i b_i a_i b_i* with a random Hermitian PSD Gram matrix."""
    gram = random_psd(k, rng)
    moments = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            moments[(b_gen(i, star=True), b_gen(j))] = gram[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    mats = {i: random_hermitian(n, rng) for i in range(1, k + 1)}
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((b_gen(i), a_gen(i), b_gen(i, star=True)))
    a_list = [mats[i] for i in range(1, k + 1)]
    return poly, MatrixTraceFamily(mats), b_state, lambda: cs.ev_sum_bab(a_list, gram)


def sum_aba_instance(k, n, rng):
    """Polynomial sum_i a_i b_i a_i* with random real state values."""
    taus = rng.uniform(-2.0, 2.0, size=k)
    b_state = MomentTable({(b_gen(i),): taus[i - 1] for i in range(1, k + 1)}, degree_cap=1)
    mats = {i: random_general(n, rng) for i in range(1, k + 1)}
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((a_gen(i), b_gen(i), a_gen(i, star=True)))
    a_list = [mats[i] for i in range(1, k + 1)]
    return poly, MatrixTraceFamily(mats), b_state, lambda: cs.ev_sum_aba(a_list, taus)


def sum_bac_instance(k, n, rng):
    """Polynomial sum_i b_i a c_i with a random symmetric beta matrix.

    Generators 1..k play the left role, k+1..2k the right role; the table
    stores tau(c_i b_j) = beta[i, j].
    """
    beta = rng.uniform(-2.0, 2.0, size=(k, k))
    beta = (beta + beta.T) / 2.0
    moments = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            moments[(b_gen(k + i), b_gen(j))] = beta[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    spectrum = ExplicitSpectrum(rng.uniform(-1.5, 1.5, size=n))
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        poly = poly + NCPolynomial.from_word((b_gen(i), a_gen(1), b_gen(k + i)))
    a_model = SpectrumFamily({1: spectrum})
    return poly, a_model, b_state, lambda: cs.ev_sum_bac(spectrum, beta)


def sum_bac_swapped_pair_instance(n, rng):
    """The swapped pair b a c + c a b, whose reduced matrix [[s, u], [v, s]] is not symmetric."""
    s = rng.uniform(-1.0, 1.0)
    u = rng.uniform(0.1, 2.0)
    v = rng.uniform(0.1, 2.0)
    b_state = MomentTable(
        {(b_gen(2), b_gen(1)): s, (b_gen(2), b_gen(2)): u, (b_gen(1), b_gen(1)): v},
        degree_cap=2,
    )
    spectrum = ExplicitSpectrum(rng.uniform(-1.5, 1.5, size=n))
    poly = NCPolynomial.from_word((b_gen(1), a_gen(1), b_gen(2))) + NCPolynomial.from_word(
        (b_gen(2), a_gen(1), b_gen(1))
    )
    beta = np.array([[s, u], [v, s]])
    a_model = SpectrumFamily({1: spectrum})
    return poly, a_model, b_state, lambda: cs.ev_sum_bac(spectrum, beta)


def conjugated_sum_instance(k, n, rng):
    """Polynomial sum_i b_i (a_i c_i a_i*) b_i* with selfadjoint cores c_i."""
    gram = random_psd(k, rng)
    c_taus = rng.uniform(-2.0, 2.0, size=k)
    moments = {}
    for i in range(1, k + 1):
        moments[(b_gen(k + i),)] = c_taus[i - 1]
        for j in range(1, k + 1):
            moments[(b_gen(i, star=True), b_gen(j))] = gram[i - 1, j - 1]
    b_state = MomentTable(moments, degree_cap=2)
    mats = {i: random_general(n, rng) for i in range(1, k + 1)}
    poly = NCPolynomial.zero()
    for i in range(1, k + 1):
        word = (b_gen(i), a_gen(i), b_gen(k + i), a_gen(i, star=True), b_gen(i, star=True))
        poly = poly + NCPolynomial.from_word(word)
    a_list = [mats[i] for i in range(1, k + 1)]
    return (poly, MatrixTraceFamily(mats), b_state,
            lambda: cs.ev_conjugated_sum(a_list, c_taus, gram))


def commutator_instance(n, rng):
    """i(ab - ba) with a random consistent state table (variance >= 0)."""
    tau_b = rng.uniform(-1.5, 1.5)
    tau_b2 = tau_b**2 + rng.uniform(0.0, 2.0)
    b_state = MomentTable.from_b_powers({1: tau_b, 2: tau_b2})
    spectrum = ExplicitSpectrum(rng.uniform(-1.5, 1.5, size=n))
    ab = NCPolynomial.from_word((a_gen(1), b_gen(1)))
    ba = NCPolynomial.from_word((b_gen(1), a_gen(1)))
    a_model = SpectrumFamily({1: spectrum})
    return 1j * (ab - ba), a_model, b_state, lambda: cs.ev_commutator(spectrum, tau_b, tau_b2)


def oracle_instance(name, rng):
    """What ``cyclospec oracle`` evaluates: a geometric spectrum and tau(b), tau(b^2)."""
    syms = cs.make_symbols(a=("a1",), b=("b1",))
    spectrum = GeometricSpectrum(1.0, rng.uniform(0.2, 0.8))
    tau_b = rng.uniform(-1.5, 1.5)
    tau_b2 = tau_b**2 + rng.uniform(0.0, 2.0)
    b_state = MomentTable.from_b_powers({1: tau_b, 2: tau_b2})
    if name == "anticommutator":
        poly = cs.parse_expression("a1*b1 + b1*a1", syms)
        recipe = cs.ev_anticommutator
    else:
        poly = cs.parse_expression("i*(a1*b1 - b1*a1)", syms)
        recipe = cs.ev_commutator
    return (poly, SpectrumFamily({1: spectrum}), b_state,
            lambda: recipe(spectrum, tau_b, tau_b2))


def recipe_case(kind, instance, orders) -> Case:
    poly, a_model, b_state, predict = instance

    def run():
        multiset = predict().multiset
        return multiset, [cs.poly_moment(poly, m, a_model, b_state) for m in orders]

    def check(out):
        multiset, oracle = out
        values = np.asarray(multiset.values, dtype=float)
        ok = all(rel_err(float(np.sum(values**m)), ref.real) <= REL_TOL
                 for m, ref in zip(orders, oracle))
        return ok, None

    return Case(kind, run, check)


def recipe_pass(rng, structure) -> list[Case]:
    """The criterion-2 instance mix, then the order-1..8 oracle cases.

    ``structure`` draws the sizes k and n, ``rng`` every value.
    """
    size = lambda lo, hi: int(structure.integers(lo, hi))  # noqa: E731
    base = range(1, 5)
    out = []
    for _ in range(RECIPE_ROUNDS_PER_PASS):
        out.append(recipe_case("commutator", commutator_instance(size(2, 17), rng), base))
        k = size(1, 4)
        out.append(recipe_case("sum_bab", sum_bab_instance(k, size(2, 17), rng), base))
        k = size(1, 4)
        out.append(recipe_case("sum_aba", sum_aba_instance(k, size(2, 17), rng), base))
        k = size(1, 4)
        out.append(recipe_case("sum_bac", sum_bac_instance(k, size(2, 17), rng), base))
        out.append(recipe_case("sum_bac_swapped",
                               sum_bac_swapped_pair_instance(size(2, 17), rng), base))
        k = size(1, 3)
        out.append(recipe_case("conjugated_sum",
                               conjugated_sum_instance(k, size(2, 9), rng), base))
    orders = range(1, ORACLE_ORDERS + 1)
    for name in ("anticommutator", "commutator"):
        out.append(recipe_case(f"oracle_{name}", oracle_instance(name, rng), orders))
    return out


# ---------------------------------------------------------------------------
# scenarios: run_scenario with the predicted moments checked
# ---------------------------------------------------------------------------


def scenario_reference(scenario) -> list[float]:
    """Limit values of the predicted trace moments, computed without the recipe.

    example1 has the analytic limits 24 and 96.  The others go through the
    moment oracle with the scenario's truncated spectrum and the state values
    of the (Haar-rotated) squared GUE or GUE pair.
    """
    if scenario.name == "example1":
        return [24.0, 96.0]
    spec = scenario.a_spec
    spectrum = GeometricSpectrum(
        spec["scale"] * spec["ratio"] ** spec["start_power"], spec["ratio"],
        count=scenario.truncation,
    )
    syms = {"a1": a_gen(1), "b1": b_gen(1), "b2": b_gen(2)}
    if scenario.name == "example3":
        b_state = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    else:  # example2-correlated: b2 is a copy of b1, a GUE with tau(b^2) = 1
        b_state = MomentTable(
            {(b_gen(i), b_gen(j)): 1.0 for i in (1, 2) for j in (1, 2)}, degree_cap=2
        )
    poly = cs.parse_expression(scenario.expression, syms)
    family = SpectrumFamily({1: spectrum})
    return [cs.poly_moment(poly, m, family, b_state).real for m in (1, 2, 3)]


def report_sha256(report) -> str:
    """Digest of the bytes ``Report.save`` writes as report.json."""
    text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_case(name, n, seed) -> Case:
    scenario = cs.builtin_scenario(name, n=n, trials=SCENARIO_TRIALS, seed=seed)
    reference = scenario_reference(scenario)

    def run():
        return cs.run_scenario(scenario)

    def check(report):
        predicted = report.prediction["moments"]
        ok = all(rel_err(p, r) <= REL_TOL for p, r in zip(predicted, reference))
        return ok, {"scenario": name, "n": n, "seed": seed,
                    "report_sha256": report_sha256(report)}

    return Case(f"{name} n={n}", run, check)
