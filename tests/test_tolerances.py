"""The tolerance policy of ``spectra``: every Hermiticity check accepts
``max|m - m*|`` up to ``max(floor, 64*eps*max|m|)``, a non-finite matrix
fails it, and every relative error divides by ``|ref|``, or by 1e-12 where
``ref`` is 0."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclospec import (
    GeometricSpectrum,
    MatrixTraceFamily,
    MomentTable,
    NotSelfadjointError,
    Scenario,
    auto_symbols,
    builtin_scenario,
    ev_anticommutator,
    ev_commutator,
    ev_polynomial,
    ev_sum_bac,
    hermitian_spectrum,
    parse_expression,
    rmtlab,
    run_scenario,
    sample_gue,
    sqrtm_psd,
)
from cyclospec.cli import main
from cyclospec.spectra import relative_error

from _oracles import with_demo_b_state


def _off_hermitian(scale, floor, factor, size=2):
    """``diag(scale, scale/2, ...)`` with ``factor`` times the tolerance of
    ``floor`` above its diagonal: ``max|m - m*|`` is exactly that much, and
    ``max|m|`` is ``scale``."""
    m = np.diag(scale * 0.5 ** np.arange(size)).astype(complex)
    m[0, 1] = factor * max(floor, 64 * np.finfo(float).eps * scale)
    return m


def _accepts(check):
    def accepted(m):
        try:
            check(m)
        except NotSelfadjointError:
            return False
        return True
    return accepted


def _trial_gate(m):
    # the runner's gate, on a trial matrix that the expression never built
    scenario = builtin_scenario("example3", n=len(m), trials=1)
    patch = pytest.MonkeyPatch()
    patch.setattr(rmtlab, "_trial_matrix", lambda *args: m.copy())
    try:
        return _accepts(run_scenario)(scenario)
    finally:
        patch.undo()


def _takes_hermitian_path(solve):
    """Whether ``solve`` runs without the general eigensolver."""
    def hermitian(m):
        calls = []
        eigvals = np.linalg.eigvals
        patch = pytest.MonkeyPatch()
        patch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        try:
            solve(m)
        finally:
            patch.undo()
        return not calls
    return hermitian


def _sum_bac(m):
    ev_sum_bac(GeometricSpectrum(1.0, 0.5, count=4), m)


def _polynomial(m):
    # b1 a1 b1 reduces to A = a1 and beta = tau(b1 b1) = 1; a non-diagonal
    # a1 takes the dense sandwich, or the general eigensolver
    poly = parse_expression("b1*a1*b1", auto_symbols("b1*a1*b1"))
    ev_polynomial(poly, MatrixTraceFamily({1: m}), MomentTable.from_b_powers({1: 0.0, 2: 1.0}))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])  # every floor binds at 1e-3
@pytest.mark.parametrize("floor,decides,size", [
    pytest.param(1e-9, _accepts(hermitian_spectrum), 2, id="hermitian_spectrum"),
    pytest.param(1e-8, _trial_gate, 40, id="trial_gate"),
    pytest.param(1e-10, _accepts(sqrtm_psd), 2, id="sqrtm_psd"),
    pytest.param(1e-14, _takes_hermitian_path(_sum_bac), 2, id="ev_sum_bac"),
    pytest.param(1e-9, _takes_hermitian_path(_polynomial), 2, id="ev_polynomial"),
])
def test_each_check_keeps_its_floor(floor, decides, size, scale):
    # half the tolerance passes (or takes the Hermitian path), twice it does not
    assert decides(_off_hermitian(scale, floor, 0.5, size))
    assert not decides(_off_hermitian(scale, floor, 2.0, size))


@pytest.mark.parametrize("matrix", [
    pytest.param([[np.nan, 0.0], [0.0, 1.0]], id="nan"),
    pytest.param([[1.0, np.inf], [0.0, 1.0]], id="inf-not-hermitian"),
    pytest.param([[1.0, complex(0.0, np.inf)], [complex(0.0, -np.inf), 1.0]], id="inf-hermitian"),
])
def test_hermitian_spectrum_rejects_non_finite_entries(matrix):
    with pytest.raises(NotSelfadjointError, match="non-finite"):
        hermitian_spectrum(np.array(matrix))


def test_sqrtm_psd_rejects_non_finite_entries():
    with pytest.raises(NotSelfadjointError, match="non-finite"):
        sqrtm_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("recipe", [ev_anticommutator, ev_commutator])
@pytest.mark.parametrize("tau_b,tau_b2", [(0.0, np.nan), (np.nan, 1.0), (0.0, np.inf)])
def test_closed_forms_reject_non_finite_state_values(recipe, tau_b, tau_b2):
    with pytest.raises(NotSelfadjointError, match="non-finite"):
        recipe(GeometricSpectrum(1.0, 0.5, count=3), tau_b, tau_b2)


def test_file_b_with_a_nan_fails_the_gate_with_the_numerical_exit_code(
    tmp_path, monkeypatch, capsys
):
    # the file is checked when it is loaded, before any trial draws
    b = sample_gue(30, np.random.default_rng(61))
    b = b @ b
    b[3, 5] = np.nan
    rmtlab.save_matrix_csv(b, tmp_path / "b.csv")
    doc = with_demo_b_state(builtin_scenario("example3", n=30, trials=2).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(tmp_path / "b.csv")}]
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))

    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rmtlab, "trial_rng", no_trial)
    code = main(["simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"b_spec entry 1 ({tmp_path / 'b.csv'})" in err and "non-finite" in err


_FLOATS = st.one_of(
    st.floats(min_value=-1e150, max_value=1e150),
    st.floats(min_value=-1e-12, max_value=1e-12),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12]),
)


@settings(max_examples=300, deadline=None)
@given(_FLOATS, _FLOATS)
@example(2e-20, 1e-20)  # a tiny reference: 1, where the floor read 1e-8
@example(1e-20, 0.0)
def test_relative_error_equals_the_expressions_it_replaced(x, ref):
    got = relative_error(x, ref)
    s, t = np.array([x, ref]), np.array([ref, x])  # match_distance
    assert np.array_equal(relative_error(s, t), [got, relative_error(ref, x)])
    if ref == 0 or abs(ref) >= 1e-12:  # where the floored denominator was 1e-12 or |ref|
        assert got == abs(x - ref) / max(abs(ref), 1e-12)  # the runner's moment errors
        assert got == abs(ref - x) / max(abs(ref), 1e-12)  # the formula demos
    else:  # a tiny reference divides by its own size
        assert got == abs(x - ref) / abs(ref)


@pytest.mark.parametrize("x,ref", [(1e150, 1e-300), (-1e150, 5e-324), (1e308, -1e308)])
def test_relative_error_past_the_float_range_is_inf_without_a_warning(x, ref):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = relative_error(x, ref)
        pair = relative_error(np.array([x, ref]), np.array([ref, x]))
    assert got == math.inf and pair[0] == math.inf


def test_summary_does_not_depend_on_the_scale_of_a():
    # example2-correlated is homogeneous of degree 1 in a, and a power of two
    # scales every value exactly: each relative statistic is the unit-scale
    # run's, the absolute ones scale with a (moment k with a**k)
    doc = builtin_scenario("example2-correlated", n=120, trials=2, seed=1).to_dict()
    unit = run_scenario(Scenario.from_dict(doc)).summary
    for c in (2.0**-20, 2.0**-43):
        doc["a_spec"]["scale"] = c
        got = run_scenario(Scenario.from_dict(doc)).summary
        scaled = dict(got, match_mean_max_abs=got["match_mean_max_abs"] / c,
                      moments_mean=[v / c**k for k, v in enumerate(got["moments_mean"], 1)])
        assert scaled.keys() == unit.keys()
        for key, value in unit.items():
            assert scaled[key] == pytest.approx(value, rel=1e-12, abs=0), (c, key)
