import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclospec import (
    EVMultiset,
    GeometricSpectrum,
    InsufficientEntriesError,
    NotSelfadjointError,
    disjoint_union,
    hermitian_spectrum,
    match_distance,
    multiset_moment,
    sample_haar_unitary,
    scale,
)
from cyclospec.linred import eigenvalue_multiset
from cyclospec.spectra import (
    HERMITICITY_TOL,
    _solve_hermitian,
    hermiticity_gap,
    rounding_tolerance,
    symmetrize,
)

from _oracles import random_hermitian


def test_canonical_order():
    s = EVMultiset([0.25, -1.0, 1.0, 0.5])
    np.testing.assert_array_equal(s.values, [1.0, -1.0, 0.5, 0.25])


def test_multiset_iterates_prints_and_compares_its_values():
    s = EVMultiset(0.5 ** np.arange(8))
    assert list(s) == s.to_list()
    assert repr(s) == "EVMultiset([1, 0.5, 0.25, 0.125, 0.0625, 0.03125, ...], n=8)"
    assert (s == 3) is False


def test_hermitian_spectrum_examples():
    s = hermitian_spectrum(np.array([[0, 1], [1, 0]], dtype=float))
    np.testing.assert_allclose(s.values, [1.0, -1.0], atol=1e-12)
    s = hermitian_spectrum(np.diag([1.0, 0.5, 0.25]))
    np.testing.assert_allclose(s.values, [1.0, 0.5, 0.25], atol=1e-12)
    s = hermitian_spectrum(np.array([[1.0, 1.0], [1.0, 2.0]]))
    expected = [(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2]
    np.testing.assert_allclose(s.values, expected, rtol=1e-12)


def test_hermitian_spectrum_rejects_nonhermitian():
    with pytest.raises(NotSelfadjointError):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_spectrum_of_a_stack_is_the_direct_sum():
    rng = np.random.default_rng(57)
    stack = np.stack([random_hermitian(3, rng) for _ in range(4)])
    direct_sum = np.zeros((12, 12), dtype=complex)
    for j, block in enumerate(stack):
        direct_sum[3 * j : 3 * j + 3, 3 * j : 3 * j + 3] = block
    np.testing.assert_allclose(
        hermitian_spectrum(stack).values, hermitian_spectrum(direct_sum).values, atol=1e-12
    )
    stack[2, 0, 1] += 1e-6
    with pytest.raises(NotSelfadjointError):
        hermitian_spectrum(stack)


def _symmetrized_out_of_place(m):
    adjoint = np.swapaxes(m, -1, -2).conj()
    return np.linalg.eigvalsh((m + adjoint) / 2.0).ravel()


@pytest.mark.parametrize("shape", [(6, 6), (4, 3, 3), (2, 3, 5, 5)])
def test_hermitian_spectrum_equals_out_of_place_symmetrization(shape):
    rng = np.random.default_rng(59)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = m + np.swapaxes(m, -1, -2).conj()
    m[..., 0, 1] += 3e-12 * (1 + 1j)  # rounding-level asymmetry, removed before the solver
    kept = m.copy()
    got = hermitian_spectrum(m).values
    assert np.array_equal(m, kept)
    expected = EVMultiset(_symmetrized_out_of_place(m)).values
    assert got.tobytes() == expected.tobytes()


def test_hermitian_spectrum_rejection_names_deviation_and_tolerance():
    stack = np.zeros((3, 2, 2), dtype=complex)
    stack[1, 0, 1] = 2.5e-6
    stack[2, 1, 1] = 1e8  # the tolerance is 64 * eps * 1e8
    with pytest.raises(NotSelfadjointError, match=re.escape(
        "matrix is not Hermitian: max entry deviation 2.500e-06 above 1.421e-06"
    )):
        hermitian_spectrum(stack)
    with pytest.raises(NotSelfadjointError, match="spectrum needs a square matrix"):
        hermitian_spectrum(np.zeros((2, 3)))


def test_solve_hermitian_writes_only_a_matrix_it_accepts():
    # ev_polynomial hands a stack this step refuses on to the general eigensolver
    m = np.array([[[1.0, 2.0], [2.0 + 1e-6, 1.0]]], dtype=complex)
    kept = m.copy()
    with pytest.raises(NotSelfadjointError, match=re.escape(
        "matrix is not Hermitian: max entry deviation 1.000e-06 above 1.000e-09"
    )):
        _solve_hermitian(m, HERMITICITY_TOL)
    assert m.tobytes() == kept.tobytes()
    spectrum, residual = _solve_hermitian(m, 1e-5)
    assert residual == abs(kept[0, 1, 0] - kept[0, 0, 1])
    assert m.tobytes() == ((kept + np.conj(np.swapaxes(kept, -1, -2))) / 2.0).tobytes()
    assert spectrum == EVMultiset(np.linalg.eigvalsh(m).ravel())


def test_hermitian_spectrum_tolerance_scales_with_entries():
    rng = np.random.default_rng(58)
    m = random_hermitian(5, rng)
    big = 1e8 * m
    big[0, 1] += 1e-7  # rounding at scale 1e8, beyond the absolute 1e-9 floor
    np.testing.assert_allclose(
        hermitian_spectrum(big).values, 1e8 * hermitian_spectrum(m).values, rtol=0, atol=1e-6
    )
    m[0, 1] += 1e-8
    with pytest.raises(NotSelfadjointError):
        hermitian_spectrum(m)


def test_scale_union_truncate():
    s = EVMultiset([1.0, 0.5])
    np.testing.assert_array_equal(scale(-1.0, s).values, [-1.0, -0.5])
    u = disjoint_union(EVMultiset([1.0]), EVMultiset([1.0]))
    np.testing.assert_array_equal(u.values, [1.0, 1.0])
    # the scaled-copies limit multiset of the two-sided product experiment
    pos = scale(3.0, EVMultiset(0.5 ** np.arange(8)))
    neg = scale(-1.0, EVMultiset(0.5 ** np.arange(8)))
    top4 = disjoint_union(pos, neg).values[:4]
    np.testing.assert_allclose(top4, [3.0, 1.5, -1.0, 0.75], rtol=1e-15)


def test_multiset_moment_examples():
    assert multiset_moment(EVMultiset([3.0, -1.0]), 2) == pytest.approx(10.0)
    assert GeometricSpectrum(1.0, 0.5, count=None).power_sum(1) == pytest.approx(2.0)


def test_match_distance_examples():
    s = EVMultiset([1.0, -1.0])
    assert match_distance(s, s, 2) == {"max_abs": 0.0, "max_rel": 0.0, "signed_max_rel": 0.0}
    t = EVMultiset([1.1, -0.9])
    metric = match_distance(s, t, 2)
    assert list(metric) == ["max_abs", "max_rel", "signed_max_rel"]
    assert metric["max_abs"] == pytest.approx(0.1)
    assert metric["max_rel"] == metric["signed_max_rel"] == pytest.approx(1 / 9)
    for m in (0, -2):  # no entry compared would pass any tolerance
        with pytest.raises(ValueError, match="comparison length must be >= 1"):
            match_distance(s, t, m)


def test_match_distance_insufficient():
    with pytest.raises(InsufficientEntriesError):
        match_distance(EVMultiset([1.0]), EVMultiset([1.0, 2.0]), 2)
    with pytest.raises(InsufficientEntriesError):
        match_distance(EVMultiset([1.0, 2.0]), EVMultiset([1.0]), 2)
    with pytest.raises(ValueError, match="comparison length must be >= 1"):
        match_distance(EVMultiset([1.0]), EVMultiset([1.0]), 0)


def test_match_distance_pairs_a_tied_pair_by_sign():
    # canonical order puts -2.1 first and pairs it with 2, the first of the
    # tied pair +-2; by signed order 2 pairs with 1.9 and -2 with -2.1
    s, t = EVMultiset([-2.1, 1.9, 0.5]), EVMultiset([2.0, -2.0, 0.25])
    metric = match_distance(s, t, 2)
    assert (metric["max_abs"], metric["max_rel"]) == (4.1, 2.05)
    assert metric["signed_max_rel"] == pytest.approx(0.05)
    # over three, 0.25 is paired with the next largest value of s, 0.5
    assert match_distance(s, t, 3)["signed_max_rel"] == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(powers=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=12,
                       unique=True),
       signs=st.lists(st.booleans(), min_size=12, max_size=12),
       noise=st.lists(st.floats(min_value=-1e-3, max_value=1e-3), min_size=12, max_size=12),
       data=st.data())
def test_signed_max_rel_is_max_rel_for_one_sign_pattern(powers, signs, noise, data):
    # distinct moduli 1.25**k, 25% apart, under a relative noise of 0.1%
    # keep both top-m lists in one order and one sign pattern
    t = np.array([1.25**k if positive else -1.25**k for k, positive in zip(powers, signs)])
    s = t * (1.0 + np.array(noise[:len(t)]))
    m = data.draw(st.integers(min_value=1, max_value=len(t)))
    metric = match_distance(EVMultiset(s), EVMultiset(t), m)
    assert metric["signed_max_rel"] == metric["max_rel"]


def test_symmetrize_keeps_the_top_of_the_float_range_finite():
    # m + m* would overflow; m/2 + m*/2 does not
    assert hermitian_spectrum(np.array([[1e308]])).to_list() == [1e308]
    big = np.finfo(float).max
    m = np.array([[big, 1e308 + 1e308j], [1e308 - 1e308j, -big]])
    assert np.array_equal(symmetrize(m.copy()), m)


def test_a_diagonal_at_the_top_of_the_float_range_is_its_np_diag():
    assert eigenvalue_multiset(np.diag([1e308])) == eigenvalue_multiset(np.array([1e308]))


def test_csv_round_trip(tmp_path):
    s = EVMultiset([1.0, -0.25, 0.125])
    path = tmp_path / "vals.csv"
    s.to_csv(path)
    assert path.read_text(encoding="utf-8") == "1.0\n-0.25\n0.125\n"


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


def test_similarity_invariance():
    rng = np.random.default_rng(31)
    for _ in range(5):
        m = random_hermitian(24, rng)
        u = sample_haar_unitary(24, rng)
        s1 = hermitian_spectrum(m)
        s2 = hermitian_spectrum(u @ m @ u.conj().T)
        assert np.max(np.abs(s1.values - s2.values)) <= 1e-8


def test_trace_identity():
    rng = np.random.default_rng(32)
    for _ in range(5):
        m = random_hermitian(20, rng)
        s = hermitian_spectrum(m)
        trace = float(np.real(np.trace(m)))
        assert abs(np.sum(s.values) - trace) <= 1e-8 * max(1.0, abs(trace))


def test_union_moment_additivity():
    rng = np.random.default_rng(33)
    s = EVMultiset(rng.uniform(-2, 2, size=9))
    t = EVMultiset(rng.uniform(-2, 2, size=5))
    for k in (1, 2, 3):
        assert multiset_moment(disjoint_union(s, t), k) == pytest.approx(
            multiset_moment(s, k) + multiset_moment(t, k), rel=1e-14
        )
    assert len(disjoint_union(s, t)) == len(s) + len(t)


def test_scale_moment_homogeneity():
    rng = np.random.default_rng(34)
    s = EVMultiset(rng.uniform(-2, 2, size=7))
    for c in (-1.5, 0.5, 2.0):
        for k in (1, 2, 3):
            assert multiset_moment(scale(c, s), k) == pytest.approx(
                c**k * multiset_moment(s, k), rel=1e-12
            )


def test_scale_composition():
    s = EVMultiset([1.0, -0.5, 0.25])
    lhs = scale(2.0, scale(-3.0, s))
    rhs = scale(-6.0, s)
    np.testing.assert_allclose(lhs.values, rhs.values, rtol=1e-15)


def _gap_out_of_place(m):
    adjoint = np.conj(np.swapaxes(m, -1, -2))
    return float(np.max(np.abs(m - adjoint), initial=0.0)), float(np.max(np.abs(m), initial=0.0))


@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (7, 7), (128, 128), (129, 129), (300, 300),
                                   (900, 2, 2), (3, 40, 40), (3, 200, 200), (2, 2, 130, 130)])
def test_tiled_hermitian_passes_equal_the_out_of_place_formulas(shape):
    # several tiles from 129 on; the stacks walk their last two axes
    rng = np.random.default_rng(sum(shape))
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # signed zeros: a real symmetric corner and a symmetric row 1 across the
    # tiles (the imaginary parts of m + m* subtract to +0.0 out of place, to
    # -0.0 read from the mirror's sum), and -0.0 parts on both sides
    m[..., :3, :3] = np.swapaxes(m[..., :3, :3], -1, -2).real
    m[..., :, 1] = m[..., 1, :]
    m[..., 0, -1], m[..., -1, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    residual, tol = hermiticity_gap(m)
    expected, magnitude = _gap_out_of_place(m)
    assert residual == expected
    assert tol == rounding_tolerance(HERMITICITY_TOL, magnitude)
    kept = m.copy()
    got = symmetrize(m)
    assert got is m
    halved = kept / 2.0
    assert got.tobytes() == (halved + np.conj(np.swapaxes(halved, -1, -2))).tobytes()


@pytest.mark.parametrize("where", [(0, 0), (5, 250), (250, 5), (260, 260)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_tiled_hermiticity_gap_rejects_a_non_finite_entry_in_any_tile(where, bad):
    m = np.zeros((2, 270, 270), dtype=complex)
    m[(1,) + where] = bad
    with pytest.raises(NotSelfadjointError, match="matrix has a non-finite entry"):
        hermiticity_gap(m)
