"""Eigenvalue-multiset predictions for polynomials in cyclically monotone families.

The package splits into word/polynomial algebra (:mod:`cyclospec.ncalg`),
state models plus the brute-force moment oracle (:mod:`cyclospec.cmcalc`),
the dense evaluator of polynomials over matrices (:mod:`cyclospec.dense`),
matrix reduction and closed-form eigenvalue recipes (:mod:`cyclospec.linred`),
multiset algebra (:mod:`cyclospec.spectra`), random-matrix experiments
(:mod:`cyclospec.rmtlab`) and a command-line surface (:mod:`cyclospec.cli`).
"""

from .errors import (
    ComplexEigenvaluesError,
    DegreeExceededError,
    DimensionMismatchError,
    DomainError,
    InsufficientEntriesError,
    NotInDomainError,
    NotPositiveError,
    NotSelfadjointError,
)
from .ncalg import (
    EmptyInputError,
    ExpressionSyntaxError,
    Letter,
    NCPolynomial,
    UnknownSymbolError,
    a_gen,
    alternating_form,
    auto_symbols,
    b_gen,
    format_expression,
    is_selfadjoint,
    make_symbols,
    parse_expression,
    power,
)
from .cmcalc import (
    ExplicitSpectrum,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MatrixTraceFamily,
    MomentTable,
    SpectrumFamily,
    TraceMatrixState,
    cm_moment,
    collapse_internal_b_runs,
    poly_moment,
)
from .linred import (
    AlgMatrix,
    Prediction,
    chain_moment,
    chain_moment_unreduced,
    ev_anticommutator,
    ev_chain,
    ev_commutator,
    ev_conjugated_sum,
    ev_polynomial,
    ev_sum_aba,
    ev_sum_bab,
    ev_sum_bac,
    reduce_b_matrix,
    sqrtm_psd,
)
from .spectra import (
    EVMultiset,
    disjoint_union,
    hermitian_spectrum,
    match_distance,
    multiset_moment,
    scale,
)
from .rmtlab import (
    Report,
    Scenario,
    builtin_scenario,
    estimate_beta,
    run_scenario,
    sample_gue,
    sample_haar_unitary,
)

__version__ = "0.1.0"
