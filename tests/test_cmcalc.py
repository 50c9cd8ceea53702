import functools
import gc
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclospec import (
    AlgMatrix,
    DegreeExceededError,
    DimensionMismatchError,
    ExplicitSpectrum,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MatrixTraceFamily,
    MomentTable,
    NCPolynomial,
    NotInDomainError,
    SpectrumFamily,
    TraceMatrixState,
    a_gen,
    alternating_form,
    b_gen,
    chain_moment,
    cm_moment,
    collapse_internal_b_runs,
    ev_polynomial,
    make_symbols,
    parse_expression,
    poly_moment,
    sample_gue,
    sample_haar_unitary,
)
from cyclospec import cmcalc, dense, linred
from cyclospec.cmcalc import WordProducts
from cyclospec.ncalg import Letter, WordCode, word_adjoint

from _oracles import random_general, random_hermitian, reference_cm_moment, stray_arrays

SYMS = make_symbols(a=("a1", "a2"), b=("b1", "b2", "b3"))


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


def geometric_family(count=None):
    return SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=count)})


# ---------------------------------------------------------------------------
# tau evaluation
# ---------------------------------------------------------------------------


def test_tau_unit_is_one():
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    assert table.tau(()) == 1


def test_moment_table_lookup_and_cap():
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    assert table.tau((b_gen(1), b_gen(1))) == 2
    with pytest.raises(DegreeExceededError):
        table.tau((b_gen(1),) * 3)


def test_moment_tables_of_powers_share_their_generator():
    tables = [MomentTable.from_b_powers({1: 1.0, 2: 2.0}) for _ in range(2)]
    for table in tables:
        assert all(letter is b_gen(1) for word in table._table for letter in word)


def test_moment_table_cyclic_canonicalization():
    table = MomentTable({(b_gen(1), b_gen(2)): 3 + 1j}, degree_cap=2)
    assert table.tau((b_gen(2), b_gen(1))) == 3 + 1j


def test_moment_table_adjoint_fallback():
    table = MomentTable({(b_gen(1), b_gen(2)): 3 + 1j}, degree_cap=2)
    # adjoint word b2* b1* looks up the conjugate
    assert table.tau((b_gen(2, star=True), b_gen(1, star=True))) == 3 - 1j


def test_moment_table_rejects_inconsistent_rotations():
    with pytest.raises(ValueError):
        MomentTable({(b_gen(1), b_gen(2)): 1.0, (b_gen(2), b_gen(1)): 2.0})


def test_moment_table_rejects_pure_a_keys():
    with pytest.raises(NotInDomainError):
        MomentTable({(a_gen(1),): 1.0})


@pytest.mark.parametrize("moments", [
    {(b_gen(1),): float("nan")},
    {(b_gen(1), b_gen(1)): complex(2.0, float("inf"))},
])
def test_moment_table_rejects_values_that_are_not_finite(moments):
    with pytest.raises(ValueError, match="must be finite"):
        MomentTable(moments)


@pytest.mark.parametrize("values", [[float("nan"), 1.0], [1.0, -float("inf")]])
def test_explicit_spectrum_rejects_values_that_are_not_finite(values):
    with pytest.raises(ValueError, match="must be finite"):
        ExplicitSpectrum(values)


def test_noncrossing_pairings_give_the_semicircle_moments():
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for k, number in enumerate(catalan):
        assert cmcalc._noncrossing_pairings(("s",) * (2 * k)) == number
        assert cmcalc._noncrossing_pairings(("s",) * (2 * k + 1)) == 0
    # independent semicircles: a pairing of unequal names, or a crossing one, counts nothing
    for word, count in [("st", 0), ("sstt", 1), ("stts", 1), ("stst", 0), ("ssss", 2),
                        ("sstsst", 1), ("ststss", 0), ("sssstt", 2)]:
        assert cmcalc._noncrossing_pairings(tuple(word)) == count


def test_semicircle_state_refuses_a_word_over_an_unnamed_letter():
    # b1 multiplies one GUE; b2, a 'file' letter, has no law to count with
    state = cmcalc._SemicircleState({b_gen(1): (0,)})
    assert state.tau((b_gen(1), b_gen(1))) == 1
    with pytest.raises(DegreeExceededError, match=r"^b_spec's law has no value for b1\*b2$"):
        state.tau((b_gen(1), b_gen(2)))


def test_noncrossing_pairings_are_the_state_of_sampled_gue_words():
    # the derived limit state against TraceMatrixState over independent GUE
    # draws, on all 30 words of degree 1 to 4 in two letters; the bound is
    # the t quantile for a family-wise false-alarm rate of 1% over the 30
    # two-sided tests (Bonferroni): scipy.stats.t.ppf(1 - 0.01 / 60, 15).
    # The bias of a mean at n = 100 is O(1 / n**2), a few percent of its
    # standard error.
    rng = np.random.default_rng(3041)
    draws, n, bound = 16, 100, 4.6202
    words = [tuple(map(b_gen, w)) for d in range(1, 5) for w in itertools.product((1, 2), repeat=d)]
    values = np.empty((draws, len(words)))
    for k in range(draws):
        state = TraceMatrixState({1: sample_gue(n, rng), 2: sample_gue(n, rng)})
        values[k] = [state.tau(w).real for w in words]
    limit = [cmcalc._noncrossing_pairings(tuple(letter.index for letter in w)) for w in words]
    z = (values.mean(axis=0) - limit) / (values.std(axis=0, ddof=1) / math.sqrt(draws))
    assert np.abs(z).max() <= bound
    # a long word at a size where BLAS blocks its products: each step is the
    # product of the naive loop I @ M1 @ M2 @ ..., bitwise
    n = 400
    mats = {1: sample_gue(n, rng), 2: sample_gue(n, rng)}
    w = (b_gen(1, star=True), b_gen(2), b_gen(1), b_gen(2, star=True)) * 2
    naive = _naive_product(mats, w, n)
    assert TraceMatrixState(mats).tau(w) == complex(np.trace(naive)) / n


def test_moment_table_json_round_trip():
    table = MomentTable({(b_gen(1), b_gen(1)): 2.0, (b_gen(1),): 1.0})
    doc = {"degree_cap": 2, "moments": {"1": 1.0, "b1": [1.0, 0.0], "b1*b1": [2.0, 0.0]}}
    again = MomentTable.from_json_doc(doc)
    assert again.tau(()) == 1
    assert again.tau((b_gen(1), b_gen(1))) == 2.0
    assert again.degree_cap == table.degree_cap


def test_matrix_state_gue_square_is_semicircle_squared():
    rng = np.random.default_rng(7)
    g = sample_gue(400, rng)
    state = TraceMatrixState({1: g @ g})
    # independent oracle: Catalan moments of the semicircle
    assert abs(state.tau((b_gen(1),)) - catalan(1)) <= 0.05
    assert abs(state.tau((b_gen(1), b_gen(1))) - catalan(2)) <= 0.2


def test_matrix_state_dimension_validation():
    with pytest.raises(DimensionMismatchError):
        TraceMatrixState({1: np.eye(2), 2: np.eye(3)})


# ---------------------------------------------------------------------------
# omega evaluation
# ---------------------------------------------------------------------------


def test_geometric_spectrum_values():
    np.testing.assert_allclose(GeometricSpectrum(1.0, 0.5).eigenvalues(4), [1.0, 0.5, 0.25, 0.125])
    np.testing.assert_allclose(GeometricSpectrum(0.5, 0.5).eigenvalues(6), 0.5 ** np.arange(1, 7))
    assert float(np.sum(GeometricSpectrum(1.0, 0.5).eigenvalues(80))) == pytest.approx(2.0)
    for ratio in (1.0, -1.5):
        with pytest.raises(ValueError, match=r"\|ratio\| must be < 1"):
            GeometricSpectrum(1.0, ratio)


def test_spectra_print_their_parameters():
    assert (repr(GeometricSpectrum(1, 0.5, count=None))
            == "GeometricSpectrum(scale=1.0, ratio=0.5, count=None)")
    assert repr(ExplicitSpectrum([1, 0.5])) == "ExplicitSpectrum([1.0, 0.5])"


def test_geometric_analytic_values():
    fam = geometric_family(count=None)
    assert fam.omega((a_gen(1),)) == 2
    assert abs(fam.omega((a_gen(1), a_gen(1))) - 4 / 3) < 1e-15


def test_matrix_family_power():
    fam = MatrixTraceFamily({1: np.diag([1.0, 0.5])})
    assert fam.omega((a_gen(1),) * 3) == pytest.approx(1.125)


def test_empty_word_not_in_domain():
    with pytest.raises(NotInDomainError):
        geometric_family().omega(())


def test_haar_conjugated_mixed_words_vanish():
    fam = HaarConjugatedFamily(
        {1: GeometricSpectrum(1, 0.5, 32), 2: GeometricSpectrum(1, 0.5, 32)}
    )
    assert fam.omega((a_gen(1), a_gen(2))) == 0
    assert fam.omega((a_gen(1), a_gen(1))) == pytest.approx(
        np.sum(0.25 ** np.arange(32))
    )


def test_haar_conjugated_monte_carlo_cross_check():
    # the defining zero is the large-n limit of Tr(D U D U*) = O(1/n)
    rng = np.random.default_rng(11)
    n = 300
    d = np.diag(0.5 ** np.arange(n))
    u = sample_haar_unitary(n, rng)
    val = np.trace(d @ u @ d @ u.conj().T)
    assert abs(val) <= 0.1


def test_haar_conjugated_realization_is_deterministic():
    # the limit model on orthogonal coordinate blocks: nothing is drawn
    spectra = {1: GeometricSpectrum(1, 0.5, 16), 3: GeometricSpectrum(1, -0.5, 16)}
    fam1, fam2 = HaarConjugatedFamily(spectra), HaarConjugatedFamily(spectra)
    np.testing.assert_array_equal(fam1.realization(3, 8), fam2.realization(3, 8))
    diagonal = fam1.diagonal(3, 8)
    assert diagonal.dtype == complex and diagonal.shape == (16,)
    assert np.array_equal(diagonal[:8], np.zeros(8))
    assert np.array_equal(diagonal[8:], spectra[3].eigenvalues(8))
    assert np.array_equal(fam1.realization(3, 8), np.diag(diagonal))
    assert np.array_equal(fam1.diagonal(1), np.concatenate([spectra[1].eigenvalues(), np.zeros(16)]))


@pytest.mark.parametrize("model,what", [(TraceMatrixState, "state"),
                                        (MatrixTraceFamily, "family")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_matrix_models_refuse_a_non_finite_entry(model, what, bad):
    m = np.eye(3, dtype=complex)
    m[0, 2] = bad
    with pytest.raises(ValueError, match=f"^matrix {what}: generator 2 has a non-finite entry$"):
        model({1: np.eye(3), 2: m})


def test_haar_conjugated_explicit_spectra_weigh_single_generator_words_by_power_sums():
    values = [1.0, -0.5, 0.25]
    fam = HaarConjugatedFamily({1: ExplicitSpectrum(values), 2: ExplicitSpectrum([2.0, 1.0, 0.5])})
    for m in (1, 2, 3):
        assert fam.omega((a_gen(1),) * m) == complex(np.sum(np.asarray(values) ** m))
    assert fam.omega((a_gen(1), a_gen(2))) == 0j


def test_spectrum_family_mixed_truncations_rejected():
    with pytest.raises(DimensionMismatchError):
        SpectrumFamily({1: GeometricSpectrum(1, 0.5, 16), 2: GeometricSpectrum(1, 0.5, 32)})


@pytest.mark.parametrize("model,mismatched", [
    pytest.param(model, mismatched, id=model.__name__)
    for model, mismatched in [
        (TraceMatrixState, [{1: np.ones((2, 3))}, {1: np.eye(2), 2: np.eye(3)}]),
        (MatrixTraceFamily, [{1: np.ones((3, 2))}, {1: np.eye(2), 2: np.eye(3)}]),
        (SpectrumFamily, [{1: GeometricSpectrum(1, 0.5, 16), 2: ExplicitSpectrum([1.0])}]),
        (HaarConjugatedFamily, [{1: GeometricSpectrum(1, 0.5, 16),
                                 2: GeometricSpectrum(1, 0.5, None)}]),
    ]
])
def test_model_constructors_reject_empty_and_mismatched_generators(model, mismatched):
    with pytest.raises(ValueError):
        model({})
    for generators in mismatched:
        with pytest.raises(DimensionMismatchError):
            model(generators)
    model({1: mismatched[-1][1]})  # the same generator alone is accepted


# ---------------------------------------------------------------------------
# the moment oracle
# ---------------------------------------------------------------------------


def test_cm_moment_simplest_word():
    fam = geometric_family(count=None)
    table = MomentTable.from_b_powers({1: 1.0})
    assert cm_moment((a_gen(1), b_gen(1)), fam, table) == 2


def test_cm_moment_rotated_word():
    fam = geometric_family(count=None)
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    w = (b_gen(1), a_gen(1), b_gen(1), a_gen(1), b_gen(1), b_gen(1), a_gen(1), b_gen(1))
    assert cm_moment(w, fam, table) == pytest.approx(32 / 7)


def test_cm_moment_two_state_generators():
    fam = geometric_family(count=None)
    table = MomentTable({(b_gen(1),): 3.0, (b_gen(2),): 5.0})
    w = (a_gen(1), b_gen(1), a_gen(1), b_gen(2))
    assert cm_moment(w, fam, table) == pytest.approx(20.0)


def test_cm_moment_rejects_pure_b():
    with pytest.raises(NotInDomainError):
        cm_moment((b_gen(1),), geometric_family(), MomentTable.from_b_powers({1: 1.0}))


def test_cm_moment_needs_its_state_argument():
    # the coded form passes None; a call on letters that leaves the state
    # out is refused by name, not read as a code
    with pytest.raises(TypeError, match="b_state"):
        cm_moment((a_gen(1), b_gen(1)), geometric_family(count=None))


class _Recording:
    """A weight and a state that log each call with its word and the word's
    type, and answer the next of ``values`` in call order: two oracles that
    make the same calls in the same order see the same answers."""

    def __init__(self, values):
        self.log, self._values = [], values

    def _answer(self, name, w):
        self.log.append((name, type(w), w))
        return self._values[(len(self.log) - 1) % len(self._values)]

    def omega(self, w):
        return self._answer("omega", w)

    def tau(self, w):
        return self._answer("tau", w)


def _recorded_oracle(oracle, word, values):
    model = _Recording(values)
    try:
        outcome = repr(oracle(word, model, model))  # repr tells signed zeros apart
    except Exception as exc:
        outcome = (type(exc), str(exc))
    return outcome, model.log


_ORACLE_LETTERS = (a_gen(1), a_gen(2), a_gen(1, star=True),
                   b_gen(1), b_gen(2), b_gen(1, star=True))
_A1, _A2, _A1S, _B1, _B2, _B1S = _ORACLE_LETTERS


@settings(max_examples=300, deadline=None)
@given(
    word=st.lists(st.sampled_from(_ORACLE_LETTERS), max_size=12).map(tuple),
    values=st.lists(st.complex_numbers(), min_size=1, max_size=6),
)
@example(word=(), values=[2.0])
@example(word=(_A1, _A2, _A1S), values=[-0.0])
@example(word=(_B1, _B2, _B1S), values=[2.0])
@example(word=(_B1, _B1S, _A1, _B2, _A2, _A1S, _B1, _B2), values=[complex(-0.0, 0.0), -1.0, 3j])
@example(word=(_B2, _A1, _A1, _B1, _B1S), values=[complex(0.0, -0.0), -2.0])
@example(word=(_A2, _B1, _B1, _A1, _B2, _A1S), values=[-1.0, complex(-0.0, -0.0)])
def test_cm_moment_matches_the_run_scanning_reference(word, values):
    # the same value bits, the same tau and omega calls on the same tuples in
    # the same order, and the same exception for a word without an A-letter
    assert _recorded_oracle(cm_moment, word, values) == _recorded_oracle(
        reference_cm_moment, word, values)


def test_poly_moment_examples():
    fam = geometric_family(count=None)
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    assert poly_moment(p, 1, fam, MomentTable.from_b_powers({1: 1.0})) == pytest.approx(4.0)
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    assert poly_moment(p, 2, fam, table) == pytest.approx(8.0)
    pc = parse_expression("i*(a1*b1 - b1*a1)", SYMS)
    table0 = MomentTable.from_b_powers({1: 0.0, 2: 1.0})
    assert poly_moment(pc, 2, fam, table0) == pytest.approx(8 / 3)


def test_poly_moment_rejects_unit_terms():
    fam = geometric_family()
    p = NCPolynomial({(): 1, (a_gen(1),): 1})
    with pytest.raises(NotInDomainError):
        poly_moment(p, 1, fam, MomentTable.from_b_powers({1: 1.0}))


# ---------------------------------------------------------------------------
# collapse and composites
# ---------------------------------------------------------------------------


def test_collapse_examples():
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    scalar, reduced = collapse_internal_b_runs((a_gen(1), b_gen(1), a_gen(1)), table)
    assert scalar == 1 and reduced == (a_gen(1), a_gen(1))
    scalar, reduced = collapse_internal_b_runs(
        (a_gen(1), b_gen(1), b_gen(1), a_gen(2)), table
    )
    assert scalar == 2 and reduced == (a_gen(1), a_gen(2))
    scalar, reduced = collapse_internal_b_runs((a_gen(1),), table)
    assert scalar == 1 and reduced == (a_gen(1),)


def test_collapse_requires_a_boundary():
    table = MomentTable.from_b_powers({1: 1.0})
    with pytest.raises(NotInDomainError):
        collapse_internal_b_runs((b_gen(1), a_gen(1)), table)


# A composite a.c.a* (an A-word, a B-core, the A-word's adjoint) behaves as
# an A-element whose weight is the weight of the A-letters times the state of
# the core.  ev_polynomial's reduction collapses every interior B-run so; its
# moments are checked here against the factorized values, and the oracle's
# own collapse by test_substitution_soundness.


def _reduced_moments(text, a_model, b_state, orders=(1,)):
    """The moments of ``text`` from ev_polynomial's reduction (its pure-A
    matrix and beta, through ``chain_moment``) and from its multiset."""
    poly = parse_expression(text, SYMS)
    a_grid, beta = linred._reduce(poly, b_state)[:2]
    chain = [AlgMatrix.from_grid(a_grid), AlgMatrix(beta)]
    multiset = ev_polynomial(poly, a_model, b_state).multiset.values
    return [(chain_moment(chain, m, a_model, b_state), np.sum(multiset**m)) for m in orders]


def test_composite_single_moment():
    rng = np.random.default_rng(3)
    base = MatrixTraceFamily({1: random_general(4, rng)})
    table = MomentTable({(b_gen(1),): 1.5, (b_gen(2),): -0.5}, degree_cap=2)
    expected = base.omega((a_gen(1), a_gen(1, star=True))) * 1.5
    [(reduced, spectral)] = _reduced_moments("a1*b1*a1'", base, table)
    assert reduced == pytest.approx(expected)
    assert spectral == pytest.approx(expected.real)


def test_composite_mixed_moment_factorizes():
    rng = np.random.default_rng(4)
    base = MatrixTraceFamily({1: random_general(4, rng)})
    table = MomentTable({(b_gen(1),): 1.5, (b_gen(2),): -0.5, (b_gen(3),): 2.0})
    # the word g b2 g b3 with g = a1 b1 a1*
    [(reduced, spectral)] = _reduced_moments("a1*b1*a1'*b2*a1*b1*a1'*b3", base, table)
    aa = (a_gen(1), a_gen(1, star=True)) * 2
    expected = base.omega(aa) * 1.5**2 * (-0.5) * 2.0
    assert reduced == pytest.approx(expected)
    assert spectral == pytest.approx(expected.real)


def test_composite_with_unit_core():
    rng = np.random.default_rng(5)
    base = MatrixTraceFamily({1: random_general(4, rng)})
    table = MomentTable.from_b_powers({1: 1.0})
    expected = base.omega((a_gen(1), a_gen(1, star=True)))
    [(reduced, spectral)] = _reduced_moments("a1*a1'", base, table)
    assert reduced == pytest.approx(expected)
    assert spectral == pytest.approx(expected.real)


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _random_models(rng):
    b_state = TraceMatrixState({i: random_general(3, rng) for i in (1, 2)})
    a_model = MatrixTraceFamily({i: random_general(4, rng) for i in (1, 2)})
    return a_model, b_state


def _random_word(rng, min_len=1, max_len=10, require_a=True):
    pool = [a_gen(1), a_gen(2), a_gen(1, star=True), b_gen(1), b_gen(2), b_gen(2, star=True)]
    while True:
        length = int(rng.integers(min_len, max_len + 1))
        w = tuple(pool[rng.integers(0, len(pool))] for _ in range(length))
        if not require_a or any(l.family == "a" for l in w):
            return w


def test_cyclic_invariance():
    rng = np.random.default_rng(21)
    a_model, b_state = _random_models(rng)
    for _ in range(60):
        w = _random_word(rng)
        base = cm_moment(w, a_model, b_state)
        for j in range(1, len(w)):
            rotated = w[j:] + w[:j]
            got = cm_moment(rotated, a_model, b_state)
            assert abs(got - base) <= 1e-12 * max(1.0, abs(base))


def test_factorization_matches_naive_product():
    rng = np.random.default_rng(22)
    a_model, b_state = _random_models(rng)
    for _ in range(60):
        n_pairs = int(rng.integers(1, 5))
        a_letters = [a_gen(int(rng.integers(1, 3))) for _ in range(n_pairs)]
        b_letters = [b_gen(int(rng.integers(1, 3))) for _ in range(n_pairs)]
        word = tuple(x for pair in zip(a_letters, b_letters) for x in pair)
        # naive evaluation straight from the defining factorization
        naive = a_model.omega(tuple(a_letters))
        for letter in b_letters:
            naive *= b_state.tau((letter,))
        got = cm_moment(word, a_model, b_state)
        assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


def test_substitution_soundness():
    rng = np.random.default_rng(23)
    a_model, b_state = _random_models(rng)
    checked = 0
    while checked < 40:
        w = _random_word(rng, min_len=1, max_len=6)
        if w[0].family != "a" or w[-1].family != "a":
            continue
        scalar, reduced = collapse_internal_b_runs(w, b_state)
        prefix = _random_word(rng, min_len=0, max_len=4, require_a=False)
        suffix = _random_word(rng, min_len=0, max_len=4, require_a=False)
        lhs = cm_moment(prefix + w + suffix, a_model, b_state)
        rhs = scalar * cm_moment(prefix + reduced + suffix, a_model, b_state)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        checked += 1


def test_conjugation_soundness():
    rng = np.random.default_rng(24)
    for _ in range(20):
        base = MatrixTraceFamily({i: random_general(4, rng) for i in (1, 2)})
        taus = {i: complex(rng.uniform(-2, 2)) for i in (1, 2, 3)}
        table = MomentTable({(b_gen(i),): taus[i] for i in (1, 2, 3)})
        # the word g1 b3 g2 with g1 = a1 b1 a1*, g2 = a2 b2 a2*, and its oracle value
        text = "a1*b1*a1'*b3*a2*b2*a2'"
        aa = (a_gen(1), a_gen(1, star=True), a_gen(2), a_gen(2, star=True))
        expected = base.omega(aa) * taus[1] * taus[2] * taus[3]
        oracle = poly_moment(parse_expression(text, SYMS), 1, base, table)
        assert abs(oracle - expected) <= 1e-12 * max(1.0, abs(expected))
        [(reduced, spectral)] = _reduced_moments(text, base, table)
        assert abs(reduced - expected) <= 1e-12 * max(1.0, abs(expected))
        assert abs(spectral - expected.real) <= 1e-9 * max(1.0, abs(expected))


def test_positivity_smoke():
    rng = np.random.default_rng(25)
    fam = SpectrumFamily({1: ExplicitSpectrum(rng.uniform(-1, 1, size=12))})
    table = MomentTable.from_b_powers({1: 0.7, 2: 1.1, 3: 0.4, 4: 2.0})
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    value = poly_moment(p, 2, fam, table)
    assert value.real >= -1e-10
    assert abs(value.imag) <= 1e-10


def test_moment_table_rejects_adjoint_inconsistency():
    # tau(w*) must equal conj(tau(w)); storing both sides with equal
    # (unconjugated) complex values is inconsistent
    with pytest.raises(ValueError):
        MomentTable({
            (b_gen(1), b_gen(2)): 1 + 1j,
            (b_gen(2, star=True), b_gen(1, star=True)): 1 + 1j,
        })


def _tabulated_matrix_state(scale):
    """Every word over b1, b2, b2* up to degree 4 of a random 3x3 matrix model."""
    rng = np.random.default_rng(0)
    state = TraceMatrixState({i: scale * random_general(3, rng) for i in (1, 2)})
    letters = (b_gen(1), b_gen(2), b_gen(2, star=True))
    words = [w for d in range(1, 5) for w in itertools.product(letters, repeat=d)]
    return {w: state.tau(w) for w in words}


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_moment_table_loads_rescaled_matrix_tabulation(scale):
    # The rotations of a word are different float products, so their values
    # differ by rounding that grows with the entries; at scale 10 that
    # exceeded the former absolute 1e-12 and the table was rejected.
    moments = _tabulated_matrix_state(scale)
    spread = max(
        abs(moments[w] - moments[w[j:] + w[:j]]) for w in moments for j in range(len(w))
    )
    assert spread > 1e-12 if scale == 10.0 else spread <= 1e-12
    table = MomentTable(moments)
    for w, value in moments.items():
        assert abs(table.tau(w) - value) <= 1e-12 * max(1.0, abs(value))


def test_moment_table_rejects_small_inconsistencies_at_unit_scale():
    w, rotated = (b_gen(1), b_gen(2), b_gen(1)), (b_gen(2), b_gen(1), b_gen(1))
    square, square_adjoint = (b_gen(2), b_gen(2)), (b_gen(2, star=True),) * 2
    moments = _tabulated_matrix_state(1.0)
    with pytest.raises(ValueError, match="rotation class"):
        MomentTable({**moments, rotated: moments[w] + 1e-11})
    with pytest.raises(ValueError, match="adjoint inconsistency"):
        MomentTable({**moments, square_adjoint: moments[square].conjugate() + 1e-11})
    with pytest.raises(ValueError, match="unit word"):
        MomentTable({(): 1 + 1e-11, **moments})


def test_matrix_family_real_on_selfadjoint_words():
    rng = np.random.default_rng(6)
    fam = MatrixTraceFamily({1: random_hermitian(5, rng)})
    for m in (1, 2, 3, 4):
        value = fam.omega((a_gen(1),) * m)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# rotation invariance over every model
# ---------------------------------------------------------------------------

B_POOL = (b_gen(1), b_gen(2), b_gen(2, star=True))
MAX_WORD = 6


def _state(name):
    rng = np.random.default_rng(40)
    matrices = {i: random_general(3, rng) / 2 for i in (1, 2)}
    state = TraceMatrixState(matrices)
    if name == "trace_matrix":
        return state
    # every pure-B word a rotation of a word of MAX_WORD letters can produce
    words = [w for k in range(1, MAX_WORD) for w in itertools.product(B_POOL, repeat=k)]
    return MomentTable({w: TraceMatrixState(matrices).tau(w) for w in words})


def _a_model(name):
    """The model and the A-letters it defines (for "composite", A-words)."""
    rng = np.random.default_rng(41)
    letters = [a_gen(1), a_gen(1, star=True), a_gen(2)]
    if name == "spectrum_finite":
        return SpectrumFamily({
            1: ExplicitSpectrum(rng.uniform(-1, 1, size=8)),
            2: ExplicitSpectrum(rng.uniform(-1, 1, size=8)),
        }), letters
    if name == "spectrum_analytic":
        return SpectrumFamily({
            1: GeometricSpectrum(1.0, 0.5, count=None),
            2: GeometricSpectrum(0.8, -0.3, count=None),
        }), letters
    if name == "haar":
        return HaarConjugatedFamily({
            1: GeometricSpectrum(1.0, 0.5, 16), 2: GeometricSpectrum(0.8, -0.3, 16),
        }), letters
    base = MatrixTraceFamily({i: random_general(4, rng) / 2 for i in (1, 2)})
    if name == "matrix":
        return base, letters
    # "composite": words are drawn from letters and from the conjugated
    # composites g = a1 b1 a1* and h = a2 a1 (b2 b2*) a1* a2*, and h* = h
    a1, a1s, a2 = letters
    g = (a1, b_gen(1), a1s)
    h = (a2, a1, b_gen(2), b_gen(2, star=True), a1s, a2.adjoint())
    return base, [(letter,) for letter in letters] + [g, h, word_adjoint(h)]


@functools.cache
def _rotation_case(a_name, b_name):
    """The models and the pool of pieces (words) a drawn word is made of."""
    b_state = _state(b_name)
    a_model, a_pieces = _a_model(a_name)
    pieces = [(piece,) if isinstance(piece, Letter) else piece for piece in a_pieces]
    return a_model, b_state, tuple(pieces) + tuple((letter,) for letter in B_POOL)


def _cm_moment_by_alternating_form(w, a_model, b_state):
    """The factorization formula over :func:`alternating_form`'s blocks."""
    form = alternating_form(w)
    a_word = []
    value = 1 + 0j
    for pos, (a_block, b_block) in enumerate(form.blocks):
        a_word.extend(a_block)
        run = b_block + form.leading_b if pos == len(form.blocks) - 1 else b_block
        if run:
            value *= b_state.tau(run)
    return value * a_model.omega(tuple(a_word))


@pytest.mark.parametrize("b_name", ["moment_table", "trace_matrix"])
@pytest.mark.parametrize(
    "a_name", ["spectrum_finite", "spectrum_analytic", "matrix", "haar", "composite"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cm_moment_invariant_under_rotation(a_name, b_name, data):
    a_model, b_state, pool = _rotation_case(a_name, b_name)
    w = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=MAX_WORD)
        .map(lambda pieces: sum(pieces, ()))
        .filter(lambda w: any(letter.family == "a" for letter in w))
    )
    base = cm_moment(w, a_model, b_state)
    assert base == _cm_moment_by_alternating_form(w, a_model, b_state)
    for j in range(1, len(w)):
        got = cm_moment(w[j:] + w[:j], a_model, b_state)
        assert abs(got - base) <= 1e-12 * max(1.0, abs(base))


# ---------------------------------------------------------------------------
# word products and per-word memoization
# ---------------------------------------------------------------------------


def _naive_product(matrices, w, dim):
    prod = np.eye(dim, dtype=complex)
    for letter in w:
        mat = matrices[letter.index]
        prod = prod @ (mat.conj().T if letter.star else mat)
    return prod


def _product_words(rng, count=150):
    pool = [a_gen(i, star) for i in (1, 2, 3) for star in (False, True)]
    words = [
        tuple(pool[j] for j in rng.integers(0, len(pool), size=int(rng.integers(1, 7))))
        for _ in range(count)
    ]
    return words + words[: count // 5]


def _coded(words):
    """The codes of ``words`` under a ``WordCode`` of their letters, and the code."""
    code = WordCode(set().union(*words))
    return [code.encode(w) for w in words], code


@pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
def test_word_products_bitwise_equal_naive_loop(order):
    rng = np.random.default_rng(30)
    matrices = {i: random_general(4, rng) for i in (1, 2, 3)}
    words = _product_words(rng)
    if order == "sorted":
        words.sort()
    elif order == "reversed":
        words.sort(reverse=True)
    products = WordProducts(matrices, 4)
    for w in words:
        assert np.array_equal(products.product(w), _naive_product(matrices, w, 4))
    # a state multiplies each word out from its letter table, with no stack
    state = TraceMatrixState(matrices)
    for w in words:
        b_word = tuple(b_gen(letter.index, letter.star) for letter in w)
        assert state.tau(b_word) == complex(np.trace(_naive_product(matrices, w, 4))) / 4


@pytest.mark.parametrize("dim", range(1, 18))
def test_word_products_bitwise_equal_naive_loop_at_every_small_dimension(dim):
    rng = np.random.default_rng(300 + dim)
    # C order, Fortran order and a conjugate-transpose view as bound matrices
    matrices = {
        1: random_general(dim, rng),
        2: np.asfortranarray(random_general(dim, rng)),
        3: random_general(dim, rng).conj().T,
    }
    s1, s2, s3 = (a_gen(i, star=True) for i in (1, 2, 3))
    # a starred first letter makes the left operand of the first product the
    # (Fortran-ordered) adjoint; starred letters repeat within and across words
    words = [(s1, a_gen(2)), (s1, s1, s1), (s2, a_gen(1), s2, s3), (s3, s3),
             (a_gen(1), s2, s2, a_gen(3), s1)] + _product_words(rng, count=40)
    products = WordProducts(matrices, dim)
    for w in words + sorted(words):
        assert np.array_equal(products.product(w), _naive_product(matrices, w, dim))
    # the models' traces of the same products, against np.trace's
    fam, state = MatrixTraceFamily(matrices), TraceMatrixState(matrices)
    for w in words:
        trace = complex(np.trace(_naive_product(matrices, w, dim)))
        assert fam.omega(w) == trace
        assert state.tau(tuple(b_gen(letter.index, letter.star) for letter in w)) == trace / dim


def test_word_products_one_starred_letter_is_a_read_only_adjoint():
    rng = np.random.default_rng(36)
    matrices = {1: random_general(4, rng), 2: random_general(4, rng)}
    products = WordProducts(matrices, 4)
    got = products.product((a_gen(1, star=True),))
    assert np.array_equal(got, matrices[1].conj().T)
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0] = 0
    # formed once: the next use of the letter, alone or within a word, reads
    # the same array
    products.product((a_gen(2), a_gen(1, star=True)))
    assert products.product((a_gen(1, star=True),)) is got
    assert matrices[1].flags.writeable


def _dense_product(w, mats, dim):
    """The dense matrix of ``w`` over ``mats``, keyed by index, multiplied out
    by ``dense._word_product`` with no matrix released."""
    prod = dense._word_product(w, lambda base: (mats[base.index], False), dim)
    return np.diag(prod) if prod.ndim == 1 else prod


def test_dense_word_product_bitwise_equal_naive_loop():
    rng = np.random.default_rng(34)
    # C order, Fortran order, and a conjugate-transpose view as inputs
    matrices = {
        1: random_general(4, rng),
        2: np.asfortranarray(random_general(4, rng)),
        3: random_general(4, rng).conj().T,
    }
    words = [(), (a_gen(2, star=True),), (a_gen(3, star=True), a_gen(1))] + _product_words(rng)
    assert any(w and w[0].star for w in words[3:])
    for w in words:
        got = _dense_product(w, matrices, 4)
        assert np.array_equal(got, _naive_product(matrices, w, 4))
    assert np.array_equal(_dense_product((), None, 3), np.eye(3))


def test_word_products_recover_after_unknown_generator():
    rng = np.random.default_rng(31)
    matrices = {i: random_general(3, rng) for i in (1, 2)}
    products = WordProducts(matrices, 3)
    products.product((a_gen(1), a_gen(2)))
    with pytest.raises(NotInDomainError):
        products.product((a_gen(1), a_gen(2), a_gen(9), a_gen(1)))
    w = (a_gen(1), a_gen(2), a_gen(1))
    assert np.array_equal(products.product(w), _naive_product(matrices, w, 3))
    # an unknown starred generator, after a known starred one, in a product
    # and in a batch: the letter table takes no entry for it and stays usable
    for bad in [(a_gen(2, star=True), a_gen(9, star=True)), (a_gen(9, star=True),)]:
        with pytest.raises(NotInDomainError):
            products.product(bad)
        with pytest.raises(NotInDomainError):
            products.traces(*_coded([bad, (a_gen(1, star=True),)]))
    words = [(a_gen(2, star=True), a_gen(1)), (a_gen(1, star=True), a_gen(2, star=True))]
    for w in words:
        assert np.array_equal(products.product(w), _naive_product(matrices, w, 3))
    assert products.traces(*_coded(words)) == [
        complex(np.trace(_naive_product(matrices, w, 3))) for w in words
    ]

    fam = MatrixTraceFamily(matrices)
    with pytest.raises(NotInDomainError):
        fam.omega((a_gen(2), a_gen(9)))
    w = (a_gen(2), a_gen(1, star=True))
    assert fam.omega(w) == complex(np.trace(_naive_product(matrices, w, 3)))


def _kept(*models):
    """What each matrix weight keeps of its last sweep: its prefix products,
    and the weights of its batch."""
    return [(model._products._stack, model._batch[1]) for model in models]


def test_poly_moment_leaves_no_prefix_product_when_it_returns():
    rng = np.random.default_rng(3030)
    a_mats = {i: random_general(4, rng) for i in (1, 2)}
    b_mats = {i: random_general(4, rng) for i in (1, 2)}
    fam, state = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
    p = parse_expression("a1*a2' + a2*b1*b2'*b1", SYMS)
    for m in (3, 1, 4):
        value = poly_moment(p, m, fam, state)
        # the state holds b2's adjoint, but no product of the words it was asked
        assert _kept(fam) == [([], {})] and stray_arrays(state) == []
        # bitwise the value of fresh models, whose stacks start empty, and
        # of a second sweep on these models
        assert value == poly_moment(p, m, MatrixTraceFamily(a_mats), TraceMatrixState(b_mats))
        assert value == poly_moment(p, m, fam, state)


@pytest.mark.parametrize("asked_by", ["reduce_b_matrix", "tau"])
def test_a_state_holds_only_its_generators_and_their_adjoints(asked_by):
    rng = np.random.default_rng(3039)
    state = TraceMatrixState({i: random_general(4, rng) for i in (1, 2)})
    # the last word asked, b1*b2*b1, has the longest proper prefix
    b = AlgMatrix([["b2'*b1*b2'", "b2*b1'"], ["b1'*b2", "b1*b2*b1"]])
    if asked_by == "reduce_b_matrix":
        linred.reduce_b_matrix(b, state)
    else:
        for poly in itertools.chain(*b.entries):
            for w in poly.terms:
                state.tau(w)
    # no word's product is kept once its value is taken; the adjoints of b1
    # and b2 join the generators
    assert stray_arrays(state) == []
    assert {letter.label() for letter in state._letters} == {"b1", "b1'", "b2", "b2'"}


def test_poly_moment_asking_words_again_equals_fresh_models_term_by_term(monkeypatch):
    rng = np.random.default_rng(3034)
    a_mats = {1: random_general(4, rng)}
    b_mats = {i: random_general(4, rng) for i in (1, 2)}
    p = parse_expression("a1*b1 + a1*b2", SYMS)
    asked = []
    omega, tau = MatrixTraceFamily.omega, TraceMatrixState.tau
    monkeypatch.setattr(MatrixTraceFamily, "omega",
                        lambda self, w: asked.append(w) or omega(self, w))
    monkeypatch.setattr(TraceMatrixState, "tau", lambda self, w: asked.append(w) or tau(self, w))
    value = poly_moment(p, 3, MatrixTraceFamily(a_mats), TraceMatrixState(b_mats))
    # the sweep asks a1*a1*a1 of the weight once per term, and b1 of the state
    # in most terms: a matrix model multiplies each ask out again
    assert asked.count((a_gen(1),) * 3) == 8 and asked.count((b_gen(1),)) > 2
    monkeypatch.undo()
    expected = 0j
    for w, coeff in (p**3).sorted_terms():
        fresh = MatrixTraceFamily(a_mats), TraceMatrixState(b_mats)
        expected += coeff * reference_cm_moment(w, *fresh)
    assert value == expected


def test_no_model_is_kept_alive_by_its_own_memo():
    # a memo's evaluator holds the model's data, not the model, so with the
    # cycle collector off a model dies as soon as its last reference goes
    rng = np.random.default_rng(3040)
    a1, b1, b1_star = a_gen(1), b_gen(1), b_gen(1, star=True)
    cases = [
        (MomentTable.from_b_powers({1: 1.0, 2: 2.0}), lambda m: m.tau((b1, b1))),
        (geometric_family(16), lambda m: m.omega((a1, a1))),
        (MatrixTraceFamily({1: random_general(3, rng)}),
         lambda m: (m.omega((a1, a1)), m.omega_many(*_coded([(a1,), (a1, a1)])))),
        (TraceMatrixState({1: random_general(3, rng)}), lambda m: m.tau((b1, b1_star, b1))),
    ]
    gc.disable()
    try:
        while cases:
            model, ask = cases.pop()
            ask(model)
            ref, name = weakref.ref(model), type(model).__name__
            del model
            assert ref() is None, name
    finally:
        gc.enable()


def test_moment_table_and_spectrum_family_keep_their_memos_across_sweeps():
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    fam = geometric_family(16)
    p = parse_expression("a1*b1 + b1*a1", SYMS)
    value = poly_moment(p, 2, fam, table)
    # the runs of a1*b1*a1*b1, a1*b1*b1*a1, b1*a1*a1*b1 and b1*a1*b1*a1
    b1, a1 = b_gen(1), a_gen(1)
    assert table._values == {(b1,): 1.0, (b1, b1): 2.0}
    assert list(fam._values) == [(a1, a1)]
    assert poly_moment(p, 2, fam, table) == value


@pytest.mark.parametrize("b_state,error", [
    # b1*b1*b2 lies beyond the table's degree cap
    (lambda rng: MomentTable({(b_gen(1), b_gen(1)): 0.5}, degree_cap=2), DegreeExceededError),
    # the state multiplies b1*b1 out, then meets b2, which it has no matrix of
    (lambda rng: TraceMatrixState({1: random_general(4, rng)}), NotInDomainError),
], ids=["degree-cap", "unknown-generator"])
def test_poly_moment_leaves_no_prefix_product_when_it_raises(b_state, error):
    rng = np.random.default_rng(3031)
    fam = MatrixTraceFamily({1: random_general(4, rng)})
    state = b_state(rng)
    # the first word, a1*a1*a1*a1, fills the weight's stack; the second,
    # a1*a1*b1*b1*b2, raises in the state
    with pytest.raises(error):
        poly_moment(parse_expression("a1*a1 + b1*b1*b2", SYMS), 2, fam, state)
    assert _kept(fam) == [([], {})]
    if isinstance(state, TraceMatrixState):
        assert stray_arrays(state) == []
    # and the models still give the values of fresh ones
    w = (a_gen(1),) * 3
    assert fam.omega(w) == MatrixTraceFamily(fam.matrices).omega(w)


def test_a_sweep_over_64x64_matrices_retains_no_product_array():
    rng = np.random.default_rng(3032)
    fam = MatrixTraceFamily({i: random_general(64, rng) for i in (1, 2)})
    state = TraceMatrixState({i: random_general(64, rng) for i in (1, 2)})
    # A-words of up to 12 letters and B-runs of 3: a kept stack would hold
    # 11 + 2 products of 64 KiB
    p = parse_expression("a1*a2 + a2*b1*b2*b1", SYMS)
    tracemalloc.start()
    try:
        poly_moment(p, 6, fam, state)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    # numpy traces its array buffers in a domain of their own
    arrays = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    assert sum(stat.size for stat in arrays.statistics("filename")) == 0


def test_matrix_models_leave_their_matrices_unmodified():
    rng = np.random.default_rng(39)
    a_mats = {i: random_general(3, rng) for i in (1, 2)}
    b_mats = {i: random_general(3, rng) for i in (1, 2)}
    kept = {("a", i): mat.copy() for i, mat in a_mats.items()}
    kept.update({("b", i): mat.copy() for i, mat in b_mats.items()})
    # one-letter words first and between longer ones: their product is the
    # bound matrix itself, or a view of it
    words = [(a_gen(1),), (a_gen(2, star=True),), (a_gen(1), a_gen(2)), (a_gen(2),),
             (a_gen(1, star=True), a_gen(1), a_gen(2)), (a_gen(1, star=True),)]
    assert WordProducts(a_mats, 3).product((a_gen(2),)) is a_mats[2]
    fam = MatrixTraceFamily(a_mats)
    state = TraceMatrixState(b_mats)
    assert fam.matrices[1] is a_mats[1] and state.matrices[1] is b_mats[1]
    for w in words:
        fam.omega(w)
        state.tau(tuple(b_gen(letter.index, letter.star) for letter in w))
    MatrixTraceFamily(a_mats).omega_many(*_coded(words))
    MatrixTraceFamily(a_mats).omega_many(*_coded(sorted(words)))
    # a starred letter's adjoint is formed once and kept read-only; the
    # bound matrices stay writable, and products after it leave them alone
    adjoint = WordProducts(a_mats, 3).product((a_gen(1, star=True),))
    assert not adjoint.flags.writeable
    fam.omega_many(*_coded([(a_gen(2, star=True), a_gen(2, star=True)), (a_gen(1), a_gen(1))]))
    for w in [(a_gen(2, star=True),) * 3, (a_gen(1, star=True), a_gen(2, star=True))]:
        fam.omega(w)
        state.tau(tuple(b_gen(letter.index, letter.star) for letter in w))
    for (family, i), mat in kept.items():
        bound = (a_mats if family == "a" else b_mats)[i]
        assert np.array_equal(bound, mat) and bound.flags.writeable


def test_memoized_models_match_fresh_models():
    rng = np.random.default_rng(32)
    a_mats = {i: random_general(3, rng) for i in (1, 2, 3)}
    b_mats = {i: random_general(3, rng) for i in (1, 2, 3)}
    spectra = {i: ExplicitSpectrum(rng.uniform(-1, 1, size=5)) for i in (1, 2, 3)}
    words = _product_words(rng)
    rng.shuffle(words)
    fam, spec_fam = MatrixTraceFamily(a_mats), SpectrumFamily(spectra)
    state = TraceMatrixState(b_mats)
    b_words = [tuple(b_gen(l.index, l.star) for l in w) for w in words]
    moments = {w: TraceMatrixState(b_mats).tau(w) for w in b_words}
    table = MomentTable(moments)
    for w, bw in zip(words, b_words):
        assert fam.omega(w) == MatrixTraceFamily(a_mats).omega(w)
        assert spec_fam.omega(w) == SpectrumFamily(spectra).omega(w)
        assert state.tau(bw) == TraceMatrixState(b_mats).tau(bw)
        assert table.tau(bw) == MomentTable(moments).tau(bw)


def test_failed_evaluations_are_not_memoized():
    rng = np.random.default_rng(33)
    fam = MatrixTraceFamily({1: random_general(3, rng)})
    state = TraceMatrixState({1: random_general(3, rng)})
    table = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    for _ in range(2):
        with pytest.raises(NotInDomainError):
            fam.omega(())
        with pytest.raises(NotInDomainError):
            fam.omega((a_gen(1), a_gen(2)))
        with pytest.raises(NotInDomainError):
            state.tau((b_gen(1), a_gen(1)))
        with pytest.raises(DegreeExceededError):
            table.tau((b_gen(1),) * 3)


@pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
def test_word_product_traces_bitwise_equal_product(order):
    rng = np.random.default_rng(35)
    matrices = {i: random_general(4, rng) for i in (1, 2, 3)}
    words = _product_words(rng)
    if order == "sorted":
        words.sort()
    elif order == "reversed":
        words.sort(reverse=True)
    expected = [complex(np.trace(_naive_product(matrices, w, 4))) for w in words]
    assert WordProducts(matrices, 4).traces(*_coded(words)) == expected
    assert WordProducts(matrices, 4).traces(*_coded([])) == []


@pytest.mark.parametrize("codes,letters,error", [
    ([""], [a_gen(1)], "unit word"),
    (["", "\0"], [a_gen(1)], "unit word"),
    (["\0", "\0\1"], [a_gen(1), b_gen(1)], "pure-A words only"),
], ids=["empty", "empty-and-a1", "impure"])
def test_word_product_traces_refuse_a_word_outside_the_weight_domain(codes, letters, error):
    # the batch walk checks its own codes, as omega checks its words
    products = WordProducts({1: np.diag([1.0, 2.0])}, 2)
    with pytest.raises(NotInDomainError, match=error):
        products.traces(codes, WordCode(letters))
    assert products.traces(["\0"], WordCode([a_gen(1)])) == [3.0]


def test_word_product_traces_read_a_code_in_the_surrogate_range():
    # a WordCode of more than 0xD800 letters codes some letters as code
    # points that UTF-32 reserves for surrogates
    code = WordCode(a_gen(i) for i in range(1, 0xD800 + 3))
    matrices = {1: np.diag([1.0, 2.0]), 0xD802: np.diag([3.0, 5.0])}
    words = [(a_gen(1), a_gen(0xD802)), (a_gen(0xD802),)]
    codes = [code.encode(w) for w in words]
    assert codes[1] == chr(0xD801)
    assert WordProducts(matrices, 2).traces(codes, code) == [13.0, 8.0]


# a word list with adjoint letters, repeats, and words that are prefixes of
# others, in no particular order
_batch_words = st.lists(
    st.lists(
        st.sampled_from([a_gen(i, star) for i in (1, 2, 3) for star in (False, True)]),
        min_size=1, max_size=7,
    ).map(tuple),
    min_size=1, max_size=40,
).flatmap(lambda ws: st.lists(st.sampled_from(ws), max_size=10).map(lambda rep: ws + rep))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**32 - 1),
    _batch_words,
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=12),
)
def test_omega_many_is_bitwise_omega(dim, seed, words, asked, batch_nodes):
    rng = np.random.default_rng(seed)
    matrices = {i: random_general(dim, rng) for i in (1, 2, 3)}
    fam = MatrixTraceFamily(matrices)
    for w in words[:asked]:  # some words asked of omega first, leaving a prefix stack
        fam.omega(w)
    codes, code = _coded(words)
    # a budget of a few nodes splits the words into many batches
    with mock.patch.object(cmcalc, "TRACE_BATCH_BYTES", batch_nodes * 16 * dim * dim):
        got = fam.omega_many(codes, code)
    fresh = MatrixTraceFamily(matrices)
    assert got == [fresh.omega(w) for w in words]
    assert fam.omega_many(codes, code) == got


def _shared(c, prev):
    """The length of the prefix the codes ``c`` and ``prev`` share."""
    return next((k for k, (x, y) in enumerate(zip(c, prev)) if x != y), min(len(c), len(prev)))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    _batch_words,
    st.sampled_from(["sorted", "reversed", "given"]),
    st.integers(min_value=1, max_value=30),
)
def test_word_product_traces_multiply_each_distinct_prefix_once(dim, words, order, batch_nodes):
    # in each batch, every prefix shared with the code before is multiplied
    # once: one stacked matmul per depth below the first, of as many rows as
    # the batch's codes open nodes there
    if order != "given":
        words = sorted(words, reverse=order == "reversed")
    rng = np.random.default_rng(38)
    matrices = {i: random_general(dim, rng) for i in (1, 2, 3)}
    codes, code = _coded(words)
    batches, batch, size = [], [], 0  # the greedy split by letters
    for c in codes:
        if batch and size + len(c) > batch_nodes:
            batches.append(batch)
            batch, size = [], 0
        batch.append(c)
        size += len(c)
    batches.append(batch)
    stacked = []
    matmul = np.matmul

    def counted(x, y):
        stacked.append(len(x))
        return matmul(x, y)

    with mock.patch.object(cmcalc, "TRACE_BATCH_BYTES", batch_nodes * 16 * dim * dim), \
            mock.patch.object(np, "matmul", counted):
        WordProducts(matrices, dim).traces(codes, code)
    for batch in batches:
        shared = [_shared(c, prev) for c, prev in zip(batch, [""] + batch)]
        nodes = sum(len(c) - k for c, k in zip(batch, shared)) - shared.count(0)
        depths = max(map(len, batch)) - 1
        assert sum(stacked[:depths]) == nodes
        del stacked[:depths]
    assert stacked == []


@pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
def test_omega_many_memoizes_what_omega_does(order):
    rng = np.random.default_rng(37)
    matrices = {i: random_general(3, rng) for i in (1, 2, 3)}
    words = _product_words(rng)
    if order == "sorted":
        words.sort()
    elif order == "reversed":
        words.sort(reverse=True)
    fam = MatrixTraceFamily(matrices)
    for w in words[::7]:  # words asked again, after a prefix stack of others
        fam.omega(w)
    batch = MatrixTraceFamily(matrices)
    for w in words[::7]:
        batch.omega(w)
    last, stack = batch._products._word, list(batch._products._stack)
    codes, code = _coded(words)
    values = batch.omega_many(codes, code)
    assert values == [fam.omega(w) for w in words]
    # the batch keeps omega's values keyed by code, and leaves the prefix
    # stack of the last omega as it was
    assert batch._batched_weights(code) == {c: fam.omega(code.decode(c)) for c in codes}
    assert batch._products._word == last
    assert list(map(id, batch._products._stack)) == list(map(id, stack))


@pytest.mark.parametrize("bad", [
    (a_gen(1), a_gen(9)),
    (),
    (a_gen(1), b_gen(1)),
    (b_gen(2),),
])
def test_omega_many_rejects_like_omega_and_memoizes_nothing(bad):
    rng = np.random.default_rng(36)
    matrices = {i: random_general(3, rng) for i in (1, 2)}
    with pytest.raises(NotInDomainError) as single:
        MatrixTraceFamily(matrices).omega(bad)
    fam = MatrixTraceFamily(matrices)
    good = [(a_gen(2), a_gen(1, star=True)), (a_gen(1),)]
    with pytest.raises(NotInDomainError) as batch:
        fam.omega_many(*_coded(good + [bad]))
    assert type(batch.value) is type(single.value)
    assert _kept(fam) == [([], {})]
    assert fam.omega_many(*_coded(good)) == [MatrixTraceFamily(matrices).omega(w) for w in good]


def test_default_omega_many_matches_omega():
    spectra = {i: GeometricSpectrum(1.0, 0.3 * i, count=16) for i in (1, 2)}
    words = [(a_gen(2), a_gen(1)), (a_gen(1),), (a_gen(1), a_gen(1)), (a_gen(2), a_gen(1))]
    models = [
        SpectrumFamily(spectra),
        SpectrumFamily({i: GeometricSpectrum(1.0, 0.3 * i, count=None) for i in (1, 2)}),
        HaarConjugatedFamily(spectra),
    ]
    for model in models:
        assert model.omega_many(*_coded(words)) == [model.omega(w) for w in words]


def test_dense_word_product_broadcasts_diagonal_letters():
    rng = np.random.default_rng(37)
    # two signed real diagonals (one with a zero), a complex one, a general matrix
    diagonals = {
        1: rng.uniform(-1, 1, size=5).astype(complex),
        2: np.array([0.5, -2.0, 0.0, 1e-3, -7.25], dtype=complex),
        3: rng.uniform(-1, 1, size=5) + 1j * rng.uniform(-1, 1, size=5),
    }
    full = {i: np.diag(d) for i, d in diagonals.items()}
    full[4] = random_general(5, rng)
    given_ = {**diagonals, 4: full[4]}
    pool = [a_gen(i, star) for i in (1, 2, 3, 4) for star in (False, True)]
    words = [
        tuple(pool[j] for j in rng.integers(0, len(pool), size=int(rng.integers(1, 6))))
        for _ in range(300)
    ]
    assert any(all(letter.index < 4 for letter in w) for w in words)
    for w in words:
        got = _dense_product(w, given_, 5)
        expected = _dense_product(w, full, 5)
        assert got.shape == (5, 5)
        if any(letter.index == 3 for letter in w):
            # a complex diagonal rounds once per entry, the matmul may not
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-15)
        else:
            assert np.array_equal(got, expected)


@pytest.mark.parametrize("dim", [199, 200, 300, 601, 602])
def test_products_written_over_an_operand_equal_the_one_shot_product(dim):
    # BLOCK_WIDTH rows over the left operand, or columns over the right, give
    # the bytes of one matmul with OpenBLAS; a width of 150 fails this
    rng = np.random.default_rng(dim)
    right = random_general(dim, rng)
    for order in "CF":
        left = np.asarray(random_general(dim, rng), order=order)
        expected = (left @ right).tobytes()
        over_left = left.copy(order="K")
        assert dense._matmul_over(over_left, right, over_left) is over_left
        assert over_left.tobytes() == expected
        over_right = right.copy()
        assert dense._matmul_over(left, over_right, over_right) is over_right
        assert over_right.tobytes() == expected
        assert dense._matmul_over(left, right, None).tobytes() == expected


def test_owned_products_are_scaled_and_multiplied_in_place_bitwise():
    # a word multiplied out over owned products (row blocks, in-place
    # diagonal scaling, a released right operand's column blocks) against
    # the out-of-place loop; the diagonal is real but complex-typed
    dim = 300
    rng = np.random.default_rng(38)
    d = rng.uniform(-1, 1, size=dim).astype(complex)
    mats = {1: random_general(dim, rng), 2: d, 3: random_general(dim, rng)}
    prod = random_general(dim, rng)
    scaled = prod.copy()
    scaled *= d
    assert scaled.tobytes() == (prod * d).tobytes()
    kept = {index: mat.copy() for index, mat in mats.items()}
    for w in [(a_gen(1), a_gen(2), a_gen(3), a_gen(2), a_gen(1)),
              (a_gen(3, True), a_gen(1), a_gen(2, True), a_gen(3)),
              (a_gen(2), a_gen(1), a_gen(2), a_gen(3)), (a_gen(1), a_gen(3))]:
        expected = None
        for letter in w:
            mat = kept[letter.index].conj().T if letter.star else kept[letter.index]
            expected = (mat if expected is None else expected * mat if mat.ndim == 1
                        else expected[:, np.newaxis] * mat if expected.ndim == 1
                        else expected @ mat)
        got = _dense_product(w, mats, dim)
        assert got.tobytes() == expected.tobytes()
        released = mats[3].copy()
        letters = iter(w)  # looked up one at a time, in order; a last a3 is released
        got = dense._word_product(
            w, lambda base: ((released, True) if next(letters) is w[-1] is a_gen(3)
                             else (mats[base.index], False)), dim)
        assert got.tobytes() == expected.tobytes()
        if len(w) == 2:  # a bound left operand: written over the released right one
            assert got is released
    assert all(np.array_equal(mats[index], kept[index]) for index in mats)


def test_haar_realization_equals_dense_conjugation():
    # the limit model's realization has the traces of a finite Haar draw
    # u d u* on single-generator words, and exactly the limit 0 on mixed ones
    spectra = {i: GeometricSpectrum(1.0, -0.6, count=30) for i in (1, 2)}
    fam = HaarConjugatedFamily(spectra)
    d = spectra[2].eigenvalues(30)
    u = sample_haar_unitary(30, np.random.default_rng(4))
    drawn = MatrixTraceFamily({1: np.diag(d), 2: (u * d) @ u.conj().T})
    assert drawn.diagonal(1) is not None and drawn.diagonal(2) is None
    a1, a2 = fam.realization(1), fam.realization(2)
    for m in (1, 2, 3):
        word = (a_gen(2),) * m
        assert np.trace(np.linalg.matrix_power(a2, m)) == pytest.approx(drawn.omega(word), rel=1e-12)
    assert np.trace(a1 @ a2) == 0 and np.trace(a1 @ a2 @ a1 @ a2) == 0
    assert abs(drawn.omega((a_gen(1), a_gen(2)))) > 0


def test_matrix_family_diagonal_only_when_off_diagonal_entries_are_zero():
    d = np.array([1.0, 0.0, -2.5])
    tiny = np.diag(d)
    tiny[2, 0] = 1e-300
    fam = MatrixTraceFamily({1: np.diag(d), 2: tiny, 3: np.diag(d) + 0.5j * np.eye(3)})
    diagonal = fam.diagonal(1)
    assert diagonal.dtype == complex and np.array_equal(diagonal, d)
    assert fam.diagonal(2) is None
    assert np.array_equal(fam.diagonal(3), d + 0.5j)
    assert fam.realization(2) is fam.matrices[2]
    with pytest.raises(DimensionMismatchError):
        fam.diagonal(1, 4)


class _UnbatchedFamily(MatrixTraceFamily):
    def omega_many(self, codes, code):
        raise AssertionError("the oracle evaluates one word at a time")


def test_oracle_never_batches_words():
    rng = np.random.default_rng(38)
    fam = _UnbatchedFamily({i: random_general(3, rng) for i in (1, 2)})
    state = TraceMatrixState({i: random_general(3, rng) for i in (1, 2)})
    poly = parse_expression("a1*b1*a2 + b2*a1' + a2", SYMS)
    expected = poly_moment(poly, 3, MatrixTraceFamily(fam.matrices), state)
    assert poly_moment(poly, 3, fam, state) == expected
