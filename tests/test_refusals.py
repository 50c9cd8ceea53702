"""Each refusal of a public path raises its error class with its message.

One case per ``raise`` that no other test reaches: the check is that the
refusal fires, and that it says what is wrong.
"""

import re

import numpy as np
import pytest

from cyclospec import (
    AlgMatrix,
    ComplexEigenvaluesError,
    DimensionMismatchError,
    EVMultiset,
    ExplicitSpectrum,
    ExpressionSyntaxError,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MatrixTraceFamily,
    MomentTable,
    NotInDomainError,
    NotPositiveError,
    NotSelfadjointError,
    Scenario,
    SpectrumFamily,
    a_gen,
    alternating_form,
    b_gen,
    builtin_scenario,
    chain_moment,
    chain_moment_unreduced,
    estimate_beta,
    ev_anticommutator,
    ev_chain,
    ev_conjugated_sum,
    ev_polynomial,
    ev_sum_aba,
    ev_sum_bab,
    ev_sum_bac,
    make_symbols,
    multiset_moment,
    parse_expression,
    poly_moment,
    run_scenario,
    sample_gue,
    sqrtm_psd,
)
from cyclospec.cli import main
from cyclospec.dense import dense_polynomial
from cyclospec.ncalg import auto_symbols
from cyclospec.rmtlab import load_matrix_csv, save_matrix_csv

from _oracles import with_demo_b_state

FAMILY = SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=4)})
TABLE = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
A, B = AlgMatrix([["a1"]]), AlgMatrix([["b1"]])
A2, B2 = AlgMatrix([["a1", "0"], ["0", "a1"]]), AlgMatrix([["b1", "0"], ["0", "b1"]])
SPECTRUM = GeometricSpectrum(1.0, 0.5, count=4)
DIAGONALS = [np.diag([1.0, 0.5]), np.diag([0.25, 0.125])]


def _poly(text):
    return parse_expression(text, auto_symbols(text))


CASES = {
    # linred._validate_chain
    "chain of three": (lambda: chain_moment([A, B, A], 1, FAMILY, TABLE),
                       DimensionMismatchError, "alternate A- and B-matrices in pairs"),
    "chain of a rectangular matrix": (
        lambda: chain_moment([AlgMatrix([["a1", "a1"]]), B], 1, FAMILY, TABLE),
        DimensionMismatchError, "chain matrices must be square"),
    "chain of two sizes": (lambda: chain_moment([A2, B], 1, FAMILY, TABLE),
                           DimensionMismatchError, "chain matrices must share one dimension"),
    "A in a B-position": (lambda: chain_moment([A, A], 1, FAMILY, TABLE),
                          NotInDomainError, "B-positions must hold pure-B matrices"),
    # moment order 0
    "chain_moment m=0": (lambda: chain_moment([A, B], 0, FAMILY, TABLE),
                         ValueError, "moment order must be >= 1"),
    "chain_moment_unreduced m=0": (lambda: chain_moment_unreduced([A, B], 0, FAMILY, TABLE),
                                   ValueError, "moment order must be >= 1"),
    "poly_moment m=0": (lambda: poly_moment(_poly("a1*b1 + b1*a1"), 0, FAMILY, TABLE),
                        ValueError, "moment order must be >= 1"),
    # the closed forms' sizes and state values
    "sum_bab gram size": (lambda: ev_sum_bab(DIAGONALS, np.eye(3)),
                          DimensionMismatchError, "Gram size must match the number of generators"),
    "sum_aba state values": (lambda: ev_sum_aba(DIAGONALS, [1.0]),
                             DimensionMismatchError, "need one state value per generator"),
    "conjugated_sum state values": (lambda: ev_conjugated_sum(DIAGONALS, [1.0], np.eye(2)),
                                    DimensionMismatchError, "need one state value per generator"),
    "sum_bac rectangular": (lambda: ev_sum_bac(SPECTRUM, np.ones((2, 3))),
                            DimensionMismatchError, "reduced matrix must be square"),
    "anticommutator negative tau(b^2)": (lambda: ev_anticommutator(SPECTRUM, 0.0, -1.0),
                                         NotPositiveError, "tau(b^2) must be nonnegative"),
    "anticommutator complex tau(b)": (lambda: ev_anticommutator(SPECTRUM, 1j, 1.0),
                                      NotSelfadjointError,
                                      "state values tau(b), tau(b^2) must be real"),
    # a non-finite state value is named before any matrix is built
    "sum_aba non-finite state value": (lambda: ev_sum_aba([np.eye(2)], [np.nan]),
                                       NotSelfadjointError,
                                       "non-finite state value: tau(b_i) = [nan]"),
    "conjugated_sum non-finite state value": (
        lambda: ev_conjugated_sum([np.eye(2)], [np.inf], [[1.0]]),
        NotSelfadjointError, "non-finite state value: tau(c_i) = [inf]"),
    # the one gate and the one real-spectrum refusal name their numbers
    "sqrtm_psd not Hermitian": (
        lambda: sqrtm_psd(np.array([[1.0, 1e-9], [0.0, 1.0]])), NotSelfadjointError,
        "matrix is not Hermitian: max entry deviation 1.000e-09 above 1.000e-10"),
    "sum_bac complex spectrum": (
        lambda: ev_sum_bac(SPECTRUM, [[0.0, 1.0], [-1.0, 0.0]]), ComplexEigenvaluesError,
        "max imaginary part 1.000e+00 above 1.000e-09: eigenvalues with large imaginary parts"),
    "sum_bac non-finite": (lambda: ev_sum_bac(SPECTRUM, [[0.0, np.nan], [1.0, 0.0]]),
                           NotSelfadjointError, "matrix has a non-finite entry"),
    # empty matrices
    "sum_bac empty": (lambda: ev_sum_bac(SPECTRUM, np.zeros((0, 0))),
                      DimensionMismatchError, "reduced matrix must be square and nonempty"),
    "sqrtm_psd empty": (lambda: sqrtm_psd(np.zeros((0, 0))),
                        DimensionMismatchError, "Gram matrix must be square and nonempty"),
    "sum_bab empty": (lambda: ev_sum_bab([], np.zeros((0, 0))),
                      DimensionMismatchError, "Gram matrix must be square and nonempty"),
    # square inputs
    "sqrtm_psd rectangular": (lambda: sqrtm_psd(np.ones((2, 3))),
                              DimensionMismatchError, "Gram matrix must be square"),
    "rectangular block": (
        lambda: ev_polynomial(_poly("b1*a1*b1"), FAMILY, TABLE,
                              blocks={b_gen(1): AlgMatrix([["b1", "b1"]])}),
        NotInDomainError, "b1 needs a square pure-b block"),
    # AlgMatrix rows
    "matrix cell of a list": (lambda: AlgMatrix([[["a1"]]]),
                              TypeError, "cannot use list as a matrix entry"),
    "ragged matrix": (lambda: AlgMatrix([["a1", "0"], ["0"]]),
                      DimensionMismatchError, "ragged matrix rows"),
    "matrix of no rows": (lambda: AlgMatrix([]), DimensionMismatchError, "matrix must be nonempty"),
    # weights of a generator the model has not
    "SpectrumFamily without a2": (lambda: FAMILY.omega((a_gen(2),)),
                                  NotInDomainError, "no spectrum for generator index 2"),
    "MatrixTraceFamily without a2": (lambda: MatrixTraceFamily({1: np.eye(2)}).omega((a_gen(2),)),
                                     NotInDomainError, "no matrix for generator a2"),
    "HaarConjugatedFamily without a2": (
        lambda: HaarConjugatedFamily({1: SPECTRUM}).omega((a_gen(1), a_gen(2))),
        NotInDomainError, "no spectrum for generator a2"),
    # spectra of no values
    "geometric count 0": (lambda: GeometricSpectrum(1.0, 0.5, count=0),
                          ValueError, "count must be >= 1"),
    "explicit of no values": (lambda: ExplicitSpectrum([]),
                              ValueError, "spectrum must contain at least one value"),
    # moment table keys
    "moment key of two words": (lambda: MomentTable.from_json_doc({"moments": {"b1 + b2": 1.0}}),
                                ValueError, "moment key 'b1 + b2' must be a single word"),
    "moment key with a coefficient": (
        lambda: MomentTable.from_json_doc({"moments": {"2*b1": 1.0}}),
        ValueError, "moment key '2*b1' must have coefficient 1"),
    # expression text and symbols
    "unexpected first character": (lambda: _poly("@ a1"), ExpressionSyntaxError,
                                   "unexpected character '@' (at position 0)"),
    "unexpected character after whitespace": (lambda: _poly("a1 @ b1"), ExpressionSyntaxError,
                                              "unexpected character '@' (at position 3)"),
    "trailing token": (lambda: _poly("a1 b1"), ExpressionSyntaxError,
                       "unexpected token 'b1' (at position 3)"),
    "duplicate generator name": (lambda: make_symbols(["x", "x"]),
                                 ValueError, "duplicate generator name 'x'"),
    "alternating form of the unit word": (lambda: alternating_form(()), ValueError,
                                          "alternating_form requires a nonempty word"),
    # matrices of polynomials
    "matrix product of mismatched shapes": (lambda: A @ A2, DimensionMismatchError,
                                            "matrix product dimension mismatch"),
    "ev_chain of three": (lambda: ev_chain(B, [A, B, A], FAMILY, TABLE),
                          DimensionMismatchError, "alternate A- and B-matrices in pairs"),
    # ev_chain's B0, checked as the B-matrix of a pair with the chain's A1
    "ev_chain of a rectangular b0": (
        lambda: ev_chain(AlgMatrix([["b1", "b1"]]), [A2, B2], FAMILY, TABLE),
        DimensionMismatchError, "chain matrices must be square"),
    "ev_chain of a pure-A b0": (lambda: ev_chain(A2, [A2, B2], FAMILY, TABLE),
                                NotInDomainError, "B-positions must hold pure-B matrices"),
    "ev_chain of a b0 of another size": (
        lambda: ev_chain(AlgMatrix([["b1", "0", "0"], ["0", "b1", "0"], ["0", "0", "b1"]]),
                         [A2, B2], FAMILY, TABLE),
        DimensionMismatchError, "chain matrices must share one dimension"),
    "sum_bab rectangular block": (lambda: ev_sum_bab([np.ones((2, 3))], np.eye(1)),
                                  DimensionMismatchError,
                                  "cannot realize this object as an A-generator"),
    "sum_bab blocks of two sizes": (
        lambda: ev_sum_bab([np.diag([1.0, 0.5]), np.diag([1.0, 0.5, 0.25])], np.eye(2)),
        DimensionMismatchError, "blocks and A-generator realizations must share one size"),
    # spectra and realizations of a size they do not have
    "values of an analytic spectrum": (
        lambda: GeometricSpectrum(1.0, 0.5, count=None).eigenvalues(),
        ValueError, "is analytic: give a count, or n, to list its values"),
    "more values than recorded": (lambda: ExplicitSpectrum([1.0, 0.5]).eigenvalues(3),
                                  DimensionMismatchError,
                                  "asked for 3 eigenvalues but only 2 are recorded"),
    "analytic diagonal of no size": (
        lambda: SpectrumFamily({1: GeometricSpectrum(1.0, 0.5, count=None)}).diagonal(1),
        ValueError, "analytic spectra need an explicit truncation to realize"),
    "MatrixTraceFamily realization without a2": (
        lambda: MatrixTraceFamily({1: np.eye(2)}).realization(2),
        NotInDomainError, "no matrix for generator index 2"),
    "MatrixTraceFamily realization at another size": (
        lambda: MatrixTraceFamily({1: np.eye(2)}).realization(1, 3),
        DimensionMismatchError, "matrix generator has dimension 2, not 3"),
    "HaarConjugatedFamily diagonal without a2": (
        lambda: HaarConjugatedFamily({1: SPECTRUM}).diagonal(2),
        NotInDomainError, "no spectrum for generator index 2"),
    "dense letter bound to no matrix": (
        lambda: dense_polynomial(_poly("a1*b1"), {a_gen(1): np.eye(2)}, 2),
        DimensionMismatchError, "no matrix bound to b1"),
    # sampling and multisets
    "GUE of dimension 0": (lambda: sample_gue(0, np.random.default_rng(0)),
                           ValueError, "dimension must be >= 1"),
    "multiset moment 0": (lambda: multiset_moment(EVMultiset([1.0]), 0),
                          ValueError, "moment order must be >= 1"),
    # estimate_beta's matrices
    "beta of unequal counts": (lambda: estimate_beta([np.eye(2)], [np.eye(2)] * 2),
                               DimensionMismatchError, "need equally many C and B matrices"),
    "beta of two shapes": (lambda: estimate_beta([np.eye(2)], [np.eye(3)]),
                           DimensionMismatchError, "all matrices must share one shape"),
    "beta of rectangular matrices": (lambda: estimate_beta([np.ones((2, 3))], [np.ones((2, 3))]),
                                     DimensionMismatchError, "matrices must be square"),
}


@pytest.mark.parametrize("refused,error,message", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_error_and_says_why(refused, error, message):
    with pytest.raises(error, match=re.escape(message)):
        refused()


def test_rectangular_matrix_is_not_selfadjoint():
    assert not AlgMatrix([["a1", "a1"]]).is_selfadjoint()


def test_matrix_csv_of_an_odd_row_names_its_path(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("1.0,0.0,2.0\n")
    message = f"matrix CSV {path}: rows need (re, im) column pairs"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix_csv(path)


def test_trial_that_overflows_names_its_trial(tmp_path):
    # B is finite, so the file passes its check; B A B overflows in trial 0
    save_matrix_csv(np.full((8, 8), 1e200), tmp_path / "b.csv")
    doc = with_demo_b_state(builtin_scenario("example3", n=8, trials=1).to_dict())
    doc.update(expression="b1*a1*b1", compare_top=4,
               b_spec=[{"kind": "file", "path": str(tmp_path / "b.csv")}])
    with np.errstate(all="ignore"), pytest.raises(
            NotSelfadjointError, match=re.escape("trial 0: matrix has a non-finite entry")):
        run_scenario(Scenario.from_dict(doc))


@pytest.mark.parametrize("argv,message", [
    pytest.param(["--spectrum", "geometric:1"], "geometric spectrum needs scale,ratio[,count]",
                 id="spectrum without a ratio"),
    pytest.param(["--spectrum", "uniform:1,2"], "unknown spectrum kind 'uniform'",
                 id="spectrum of an unknown kind"),
    pytest.param([], "predict needs --scenario or --expr", id="predict of no input"),
])
def test_malformed_predict_input_exits_validation(argv, message, tmp_path, capsys):
    expr = ["--expr", "a1*b1 + b1*a1", "--tau-b", "1", "--tau-b2", "2"] if argv else []
    assert main(["predict", *expr, *argv, "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == f"validation failure: {message}\n"
    assert list(tmp_path.iterdir()) == []
