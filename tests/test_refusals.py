"""Each refusal of a public path raises its error class with its message.

One case per ``raise`` that no other test reaches: the check is that the
refusal fires, and that it says what is wrong.
"""

import re

import numpy as np
import pytest

from cyclospec import (
    AlgMatrix,
    DimensionMismatchError,
    ExplicitSpectrum,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MatrixTraceFamily,
    MomentTable,
    NotInDomainError,
    NotPositiveError,
    SpectrumFamily,
    a_gen,
    b_gen,
    chain_moment,
    chain_moment_unreduced,
    ev_anticommutator,
    ev_conjugated_sum,
    ev_polynomial,
    ev_sum_aba,
    ev_sum_bab,
    ev_sum_bac,
    parse_expression,
    poly_moment,
    sqrtm_psd,
)
from cyclospec.cli import main
from cyclospec.ncalg import auto_symbols

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
}


@pytest.mark.parametrize("refused,error,message", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_error_and_says_why(refused, error, message):
    with pytest.raises(error, match=re.escape(message)):
        refused()


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
