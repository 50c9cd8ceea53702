"""Pins of the package's public names and of some parameter lists, and of
the names the benchmark's tracer looks up.

Removing or renaming a public name, or a parameter of a pinned function,
fails here until the pin is updated, and CHANGES.md lists the change.  A
name the tracer wraps is looked up with ``getattr`` when a traced benchmark
run starts, so removing one is a change to the benchmark.
"""

import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import cyclospec
from cyclospec import cmcalc, dense, linred, rmtlab, spectra

PUBLIC_NAMES = [
    "AlgMatrix", "ComplexEigenvaluesError", "DegreeExceededError",
    "DimensionMismatchError", "DomainError", "EVMultiset", "EmptyInputError",
    "ExplicitSpectrum", "ExpressionSyntaxError", "GeometricSpectrum", "HaarConjugatedFamily",
    "InsufficientEntriesError", "Letter", "MatrixTraceFamily", "MomentTable", "NCPolynomial",
    "NotInDomainError", "NotPositiveError", "NotSelfadjointError", "Prediction", "Report",
    "Scenario", "SpectrumFamily", "TraceMatrixState", "UnknownSymbolError", "a_gen",
    "alternating_form", "auto_symbols", "b_gen", "builtin_scenario", "chain_moment",
    "chain_moment_unreduced", "cm_moment", "collapse_internal_b_runs", "disjoint_union",
    "estimate_beta", "ev_anticommutator", "ev_chain", "ev_commutator", "ev_conjugated_sum",
    "ev_polynomial", "ev_sum_aba", "ev_sum_bab", "ev_sum_bac", "format_expression",
    "hermitian_spectrum", "is_selfadjoint", "make_symbols", "match_distance",
    "multiset_moment", "parse_expression", "poly_moment", "power", "reduce_b_matrix",
    "run_scenario", "sample_gue", "sample_haar_unitary", "scale", "sqrtm_psd",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name in dir(cyclospec)
        if not name.startswith("_") and not isinstance(getattr(cyclospec, name), types.ModuleType)
    )
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("function,parameters", [
    pytest.param(function, parameters, id=function.__qualname__)
    for function, parameters in [
        (dense.dense_polynomial, ["poly", "mats", "dim"]),
        (dense.dense_block_matrix, ["cells", "draw", "size"]),
        (cmcalc.TraceMatrixState, ["matrices"]),
        (cmcalc.MatrixTraceFamily, ["matrices"]),
        (cmcalc.SpectrumFamily, ["spectra"]),
        (cmcalc.HaarConjugatedFamily, ["spectra"]),
        (cmcalc.TraceClassModel.diagonal, ["self", "index", "size"]),
        (cmcalc.TraceClassModel.realization, ["self", "index", "size"]),
        (spectra.EVMultiset, ["values"]),
        (spectra.hermitian_spectrum, ["matrix"]),
        (linred.eigenvalue_multiset, ["a"]),
        (linred.ev_chain, ["b0", "chain", "a_model", "b_state"]),
        (linred.ev_polynomial, ["poly", "a_model", "b_state", "truncation", "blocks"]),
        (rmtlab.build_prediction, ["scenario"]),
        (linred.sqrtm_psd, ["gram"]),
        (cmcalc.MomentTable.from_json_doc, ["doc"]),
    ]
])
def test_parameter_lists_are_pinned(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the tracer imports the standard library only
    return module


def test_every_name_the_benchmark_traces_resolves_on_its_home_module():
    tracer = _tracer()
    for home, names in tracer.FUNCTIONS.values():
        module = importlib.import_module(home)
        for name in names:
            assert callable(getattr(module, name, None)), f"{home}.{name}"
    for home, base, _methods in tracer.METHODS.values():
        assert isinstance(getattr(importlib.import_module(home), base, None), type), (
            f"{home}.{base}")
