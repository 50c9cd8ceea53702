import json
import math
import re
import statistics
import tracemalloc
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest

from cyclospec import (
    DimensionMismatchError,
    EVMultiset,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MomentTable,
    NotSelfadjointError,
    Scenario,
    SpectrumFamily,
    auto_symbols,
    builtin_scenario,
    estimate_beta,
    match_distance,
    multiset_moment,
    parse_expression,
    poly_moment,
    run_scenario,
    sample_gue,
    sample_haar_unitary,
)
from cyclospec.cli import main
from cyclospec.cmcalc import _noncrossing_pairings
from cyclospec.dense import dense_block_matrix, dense_polynomial
from cyclospec.ncalg import FAMILY_A, FAMILY_B, Letter, NCPolynomial
from cyclospec import dense, linred, rmtlab
from cyclospec.rmtlab import (
    _build_a_matrix,
    _generators,
    build_prediction,
    load_matrix_csv,
    save_matrix_csv,
    trial_rng,
)

from _oracles import DEMO_B_STATES, with_demo_b_state
from print_gate_odds import summaries as gate_summaries


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_gue_is_hermitian_and_normalized():
    rng = np.random.default_rng(51)
    g = sample_gue(500, rng)
    assert np.max(np.abs(g - g.conj().T)) == 0.0
    tr2 = float(np.real(np.trace(g @ g)) / 500)
    assert abs(tr2 - 1.0) <= 0.05
    g2 = g @ g
    tr4 = float(np.real(np.trace(g2 @ g2)) / 500)
    assert abs(tr4 - 2.0) <= 0.2


def test_gue_trace_diagnostic():
    rng = np.random.default_rng(52)
    n = 400
    g = sample_gue(n, rng)
    assert abs(np.trace(g)) / n <= 5.0 * np.sqrt(2.0) / np.sqrt(n)


def test_haar_unitary_properties():
    rng = np.random.default_rng(53)
    u = sample_haar_unitary(200, rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(200))) <= 1e-10
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-10


def test_haar_unitary_mean_trace():
    rng = np.random.default_rng(54)
    traces = [np.trace(sample_haar_unitary(100, rng)) / 100 for _ in range(200)]
    assert abs(np.mean(traces)) <= 0.05


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_haar_unitary_traces_follow_the_haar_law(seed):
    # Diaconis-Shahshahani: for Haar U in U(n), E tr U^j = 0 and
    # E|tr U^j|^2 = min(j, n).  Each bound is 4 standard errors of the mean,
    # estimated from the draws themselves.  Without the R-diagonal phase fix
    # the sampler reads E tr U = -1.08 and E|tr U|^2 = 1.85 at n = 4.
    n, draws = 4, 4000
    rng = np.random.default_rng(seed)
    u = np.stack([sample_haar_unitary(n, rng) for _ in range(draws)])
    power = u
    for j in (1, 2, 3):
        trace = np.trace(power, axis1=1, axis2=2)
        square = np.abs(trace) ** 2
        assert abs(trace.mean()) <= 4 * trace.std() / np.sqrt(draws)
        assert abs(square.mean() - min(j, n)) <= 4 * square.std() / np.sqrt(draws)
        power = power @ u


@pytest.mark.parametrize("seed", [0, 71, 2026])
def test_samplers_equal_the_out_of_place_formulas(seed):
    # one Ginibre array filled in place, BLOCK_WIDTH rows of each draw at a
    # time, is bitwise a + 1j*b; z += z* runs tile pair by tile pair from 129
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (17, 128, 300):

        def ginibre():
            z = ref.standard_normal((n, n)) + 1j * ref.standard_normal((n, n))
            z *= np.sqrt(0.5)
            return z

        z = ginibre()
        z = z + z.conj().T
        z /= np.sqrt(2.0 * n)
        assert sample_gue(n, rng).tobytes() == z.tobytes()
        q, r = np.linalg.qr(ginibre())
        d = np.diagonal(r)
        q *= d / np.abs(d)
        assert sample_haar_unitary(n, rng).tobytes() == q.tobytes()
        assert rng.standard_normal() == ref.standard_normal()


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 5), (7, 11), (64, 13), (300, 17)])
def test_haar_unitary_equals_the_qr_reference(n, seed):
    # the in-place LAPACK factorization is bitwise np.linalg.qr's Q with the
    # R-diagonal phases, and leaves the generator where that recipe does
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ginibre = ref.standard_normal((n, n)) + 1j * ref.standard_normal((n, n))
    ginibre *= np.sqrt(0.5)
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    expected = q * (d / np.abs(d))
    u = sample_haar_unitary(n, rng)
    assert u.flags.f_contiguous
    assert u.tobytes() == expected.tobytes()
    assert rng.standard_normal() == ref.standard_normal()
    assert np.max(np.abs(u @ u.conj().T - np.eye(n))) <= 64 * n * np.finfo(float).eps


def test_estimate_beta():
    rng = np.random.default_rng(55)
    b = sample_gue(500, rng)
    c = sample_gue(500, rng)
    beta = estimate_beta([c], [b])
    assert abs(beta[0, 0]) <= 0.05  # independence: normalized trace of CB is small
    beta = estimate_beta([b], [b])
    assert abs(beta[0, 0] - 1.0) <= 0.05
    beta = estimate_beta([b, c], [b, c])
    assert beta[0, 1] == beta[1, 0]  # exactly symmetric when the lists coincide


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(56)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "matrix.csv"
    save_matrix_csv(m, path)
    np.testing.assert_array_equal(load_matrix_csv(path), m)


def test_matrix_csv_skips_blank_lines(tmp_path):
    m = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    path = tmp_path / "matrix.csv"
    save_matrix_csv(m, path)
    lines = path.read_text().splitlines()
    path.write_text("\n" + lines[0] + "\n  \n" + lines[1] + "\n\n")
    np.testing.assert_array_equal(load_matrix_csv(path), m)


# ---------------------------------------------------------------------------
# scenarios and the runner
# ---------------------------------------------------------------------------


def test_scenario_json_round_trip(tmp_path):
    s = builtin_scenario("example3", n=40, trials=2)
    path = tmp_path / "scenario.json"
    s.save(path)
    again = Scenario.from_json(path)
    assert again.to_dict() == s.to_dict()
    assert again.prediction is None and "prediction" not in json.loads(path.read_text())


@pytest.mark.parametrize("name", ["example1", "example2", "example2-correlated", "example3"])
def test_builtin_scenario_is_the_shipped_file(name):
    shipped = json.loads(
        resources.files("cyclospec").joinpath(f"demos/{name}.json").read_text()
    )
    scenario = builtin_scenario(name, n=40, trials=2, seed=7)
    # compared as JSON text, so int/float types must match the file as well
    assert json.dumps(scenario.to_dict(), sort_keys=True) == json.dumps(
        dict(shipped, n=40, trials=2, seed=7, truncation=40), sort_keys=True
    )


def test_builtin_scenario_defaults_and_fresh_dicts():
    first = builtin_scenario("example3")
    assert (first.n, first.trials, first.seed, first.truncation) == (300, 5, 20260808, 300)
    assert first.prediction is None
    first.a_spec["ratio"], first.b_spec[0]["kind"] = 0.25, "gue"
    again = builtin_scenario("example3")
    assert (again.a_spec["ratio"], again.b_spec[0]["kind"]) == (0.5, "gue_squared")


def test_builtin_scenario_reads_its_defaults_from_the_demo_file(tmp_path, monkeypatch):
    # a demo file with another n, trials and seed gives them where no
    # argument does; a given n also sets truncation
    package = resources.files("cyclospec")
    shipped = json.loads(package.joinpath("demos/example3.json").read_text())
    (tmp_path / "schemas").symlink_to(package.joinpath("schemas"))
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "example3.json").write_text(
        json.dumps(dict(shipped, n=40, trials=2, seed=7, truncation=40)))
    monkeypatch.setattr(rmtlab, "resources", SimpleNamespace(files=lambda package: tmp_path))
    scenario = builtin_scenario("example3")
    assert (scenario.n, scenario.trials, scenario.seed, scenario.truncation) == (40, 2, 7, 40)
    scenario = builtin_scenario("example3", n=30, seed=8)
    assert (scenario.n, scenario.trials, scenario.seed, scenario.truncation) == (30, 2, 8, 30)


def test_scenario_validation():
    doc = builtin_scenario("example3", n=40, trials=2).to_dict()
    bad = dict(doc, n=1)
    with pytest.raises(ValueError):
        Scenario.from_dict(bad)
    bad = dict(doc, prediction={"recipe": "nonsense"})
    with pytest.raises(ValueError):
        Scenario.from_dict(bad)
    bad = dict(doc, b_spec=[{"kind": "copy_of", "index": 1}])
    with pytest.raises(ValueError):
        Scenario.from_dict(bad)
    bad = dict(doc, expression="a1 + c4")
    with pytest.raises(Exception):
        Scenario.from_dict(bad)
    for bad in ([1, 2], ["name"]):
        with pytest.raises(ValueError, match="a scenario is an object"):
            Scenario.from_dict(bad)


@pytest.mark.parametrize("key,value", [
    ("n", 40.5),
    ("n", "40"),
    ("seed", 1.5),
    ("seed", True),
    ("trials", 2.5),
    ("compare_top", 3.25),
    ("compare_top", None),
    ("truncation", 12.5),
])
def test_scenario_rejects_non_integral_counts(key, value, tmp_path):
    doc = dict(builtin_scenario("example3", n=40, trials=2).to_dict(), **{key: value})
    with pytest.raises(ValueError, match=f"scenario '{key}' must be an integer"):
        Scenario.from_dict(doc)
    with pytest.raises(ValueError, match=f"scenario '{key}' must be an integer"):
        Scenario(**doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("top", [100, 41])
def test_compare_top_beyond_the_spectra_fails_before_any_trial(top, monkeypatch, tmp_path):
    doc = dict(builtin_scenario("example3", n=40, trials=2).to_dict(), compare_top=top)
    message = f"'compare_top' is {top}, but a trial has 40 eigenvalues and the prediction 80"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))

    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rmtlab, "trial_rng", no_trial)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(Scenario.from_dict(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    monkeypatch.undo()
    doc["compare_top"] = 40  # every eigenvalue of a trial is compared
    assert len(run_scenario(Scenario.from_dict(doc)).trials) == 2


def test_scenario_accepts_integral_floats():
    doc = dict(builtin_scenario("example3", n=40, trials=2).to_dict(), n=40.0, trials=2.0)
    scenario = Scenario.from_dict(doc)
    assert (scenario.n, scenario.trials) == (40, 2)
    assert type(scenario.n) is int and type(scenario.trials) is int


# every trial is compared with the one prediction, so the retired key
# 'per_trial' is refused whatever its value
@pytest.mark.parametrize("name,beta", [
    ("example3", "x"),
    ("example3", None),
    ("example2-correlated", "per-trial"),
    ("example2-correlated", "true"),
    ("example2-correlated", 1),
])
def test_scenario_rejects_unknown_beta(name, beta, tmp_path):
    doc = with_demo_b_state(builtin_scenario(name, n=40, trials=2).to_dict())
    doc["prediction"] = dict(doc["prediction"], per_trial=beta)
    with pytest.raises(ValueError, match="scenario 'prediction.per_trial' is not a known key"):
        Scenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1


def _example1_with(**changes):
    """example1 with its former table and the given changes."""
    doc = with_demo_b_state(builtin_scenario("example1", n=40, trials=1).to_dict())
    for path, value in changes.items():
        *keys, last = path.split("__")
        target = doc
        for key in keys:
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[last] = value
    return doc


_EXAMPLE1_A_BLOCKS = [["a1", "a2"], ["a2'", "a3"]]
_EXAMPLE1_B_BLOCKS = [["b1*b1", "b2*b2"], ["b2*b2", "b3*b3"]]


@pytest.mark.parametrize("changes,message", [
    # blocks that are not square
    ({"a_spec__blocks": [["a1", "a2"]]}, "a_spec 'blocks' must be a square"),
    ({"b_spec__0__blocks": [["b1"], ["b2"]]}, "b_spec entry 1 'blocks' must be a square"),
    ({"a_spec__blocks": "a1"}, "a_spec 'blocks' must be a square"),
    ({"a_spec__blocks": []}, "a_spec 'blocks' must be a square"),
    # letters of the wrong family, or no expression at all
    ({"a_spec__blocks": [["a1", "b2"], ["b2", "a3"]]}, "a_spec 'blocks' may hold a-letters"),
    ({"b_spec__0__blocks": [["b1", "a1"], ["a1", "b2"]]},
     "b_spec entry 1 'blocks' may hold b-letters"),
    ({"a_spec__blocks": [["a1", "c2"], ["c2", "a3"]]}, "a_spec 'blocks'"),
    ({"a_spec__blocks": [["a1", 2], [2, "a3"]]}, "a_spec 'blocks'"),
    # blocks on any other kind
    ({"a_spec": {"kind": "explicit", "values": [1.0] * 40, "blocks": _EXAMPLE1_A_BLOCKS}},
     "a_spec 'blocks' is allowed on the 'geometric' kind only"),
    ({"b_spec": [{"kind": "gue_squared", "blocks": _EXAMPLE1_B_BLOCKS}]},
     "b_spec entry 1 'blocks' is allowed on the 'gue' kind only"),
    # a B-block count that does not divide the dimension 2n = 80
    ({"b_spec__0__blocks": [["b1"] * 3] * 3}, "b_spec entry 1 'blocks' do not divide"),
    # a B letter of the expression without blocks, or with blocks of another
    # size than a_spec's (a copy_of entry has its source's)
    ({"b_spec": [{"kind": "gue"}]}, "b1 needs as many 'blocks' as a_spec"),
    ({"b_spec": [{"kind": "gue", "blocks": [["b1"]]}]}, "b1 needs as many 'blocks' as a_spec"),
    ({"b_spec": [{"kind": "gue", "blocks": _EXAMPLE1_B_BLOCKS}, {"kind": "gue"}],
      "expression": "b2*a1*b2"}, "b2 needs as many 'blocks' as a_spec"),
    ({"b_spec": [{"kind": "gue"}, {"kind": "copy_of", "index": 1}],
      "expression": "b2*a1*b2"}, "b2 needs as many 'blocks' as a_spec"),
    ({"b_spec": [{"kind": "gue", "blocks": _EXAMPLE1_B_BLOCKS},
                 {"kind": "gue", "blocks": [["b1"] * 4] * 4}],
      "expression": "b1*a1*b1 + b2*a1*b2"}, "b2 needs as many 'blocks' as a_spec"),
    ({"a_spec": {"kind": "geometric", "ratio": 0.5}}, "b1 needs as many 'blocks' as a_spec"),
    # a term without an A-letter
    ({"expression": "b1*a1*b1 + b1*b1"}, "scenario 'expression': the term b1*b1 has no A-letter"),
    ({"expression": "1 + b1*a1*b1"}, "scenario 'expression': the term 1 has no A-letter"),
    # a state word the b_state lacks: the blocks of the products b1 b1 b1 b1,
    # and b1 b1 alone
    ({"expression": "b1*b1*a1*b1*b1"},
     "prediction 'b_state': word degree 8 exceeds table cap 4"),
    ({"prediction__b_state": {"moments": {"b1*b1": 1.0}}},
     "prediction 'b_state': word degree 4 exceeds table cap 2"),
    # the retired per-trial state
    ({"prediction__per_trial": True}, "scenario 'prediction.per_trial' is not a known key"),
    # a b_state that is no moment table
    ({"prediction__b_state": {"moments": {"b1*a1": 1.0}}}, "prediction 'b_state'"),
    ({"prediction__b_state": [1.0]}, "prediction 'b_state'"),
    ({"prediction__b_state": {"moments": {"b1*b1": None}}}, "prediction 'b_state'"),
])
def test_scenario_validation_of_blocks_and_chain(changes, message, tmp_path):
    doc = _example1_with(**changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1


def test_example1_reads_its_expression_and_copies():
    # the chain may be longer, or use a second b_spec entry, or a copy of one
    n = 20
    base_report = run_scenario(builtin_scenario("example1", n=n, trials=1))
    base = base_report.prediction
    # the truncation is the realized size: three generators on orthogonal blocks of n
    assert base["parameters"] == {"rows": ["b1"], "columns": ["b1'"], "dim": 2,
                                  "truncation": 3 * n}
    longer = run_scenario(Scenario.from_dict(_example1_with(expression="b1*a1*b1*a1*b1")))
    assert len(longer.prediction["eigenvalues"]) == 2 * 3 * 40
    copied = _example1_with(expression="b2*a1*b2")
    copied["b_spec"].append({"kind": "copy_of", "index": 1})
    copied.update(n=n, truncation=n)
    report = run_scenario(Scenario.from_dict(copied))
    assert report.prediction["eigenvalues"] == base["eigenvalues"]
    assert report.prediction["moments"] == base["moments"]
    # the trials reuse the source's matrix; they draw no blocks for the copy
    assert report.trials == base_report.trials


def test_b_entries_drawn_apart_share_no_block_generators():
    # two gue entries with the same cell letters are drawn independently, but
    # the moment table would read their generators as one
    doc = _example1_with(expression="b1*a1*b2 + b2*a1*b1")
    doc["b_spec"] = [{"kind": "gue", "blocks": _EXAMPLE1_B_BLOCKS}] * 2
    with pytest.raises(ValueError, match="b2 'blocks' share generators with another b_spec"):
        Scenario.from_dict(doc)
    # with generators of its own, the second entry needs its own state values
    renamed = [["b4*b4", "b5*b5"], ["b5*b5", "b6*b6"]]
    doc["b_spec"] = [{"kind": "gue", "blocks": _EXAMPLE1_B_BLOCKS}, {"kind": "gue", "blocks": renamed}]
    with pytest.raises(ValueError, match="prediction 'b_state': no table entry for "):
        Scenario.from_dict(doc)
    # which the state derived from b_spec has
    del doc["prediction"]
    Scenario.from_dict(doc)


@pytest.mark.parametrize("blocks_first", [True, False], ids=["blocks-first", "blocks-last"])
@pytest.mark.parametrize("kind", ["gue", "gue_squared", "copy_of", "file"])
def test_a_letter_read_without_blocks_is_no_block_generator_of_another_entry(
        kind, blocks_first, tmp_path):
    # the reduction reads the plain letter and the block generator of that
    # name as one letter, while the trials draw the two apart
    save_matrix_csv(np.eye(20), tmp_path / "b.csv")
    plain = {"kind": kind, "index": 1} if kind == "copy_of" else {"kind": kind}
    if kind == "file":
        plain["path"] = str(tmp_path / "b.csv")
    p, k = (3, 2) if blocks_first else (2, 3)  # the plain entry and the blocks entry
    b_spec = [{"kind": "gue"}, None, None]
    b_spec[p - 1], b_spec[k - 1] = plain, {"kind": "gue", "blocks": [[f"b{p}"]]}
    doc = {"name": "clash", "n": 20, "seed": 1, "trials": 1,
           "a_spec": {"kind": "geometric", "ratio": 0.5}, "b_spec": b_spec,
           "expression": f"b{k}*a1*b{p} + b{p}*a1*b{k}",
           "prediction": {"b_state": {"moments": {f"b{p}*b{p}": 1.0}}}}
    message = f"b{p} is read as its own b_spec entry and as a 'blocks' generator of b_spec entry {k}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["predict", "--scenario", str(path), "--out", str(tmp_path / "p.json")]) == 1
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    # a plain entry the expression does not read stays unchecked
    Scenario.from_dict(dict(doc, expression=f"b{k}*a1*b{k}"))


def test_blocks_are_drawn_in_index_order():
    n = 40
    scenario = Scenario.from_dict(_example1_with(a_spec__blocks=[["a1", "a3"], ["a3'", "a2"]]))
    compiled = rmtlab._compile(scenario)
    x = _build_a_matrix(compiled.a_diag, compiled.a_cells, trial_rng(scenario.seed, 0))
    rng = trial_rng(scenario.seed, 0)
    d = np.diag(GeometricSpectrum(1.0, 0.5).eigenvalues(n))
    u2, u3 = sample_haar_unitary(n, rng), sample_haar_unitary(n, rng)
    assert np.array_equal(x[n:, n:], u2 @ d @ u2.conj().T)
    assert np.array_equal(x[:n, n:], u3 @ d @ u3.conj().T)
    run = run_scenario(scenario)
    assert set(run.trials[0]["diagnostics"]) == {"hermiticity_residual"}
    longer = _example1_with(expression="b1*a1*b1*a1*b1")
    report = run_scenario(Scenario.from_dict(longer))
    assert report.prediction["parameters"]["rows"] == ["b1"]


@pytest.mark.parametrize("a_spec", [
    {"kind": "geometric", "ratio": -0.7, "scale": 2.0, "start_power": 1},
    {"kind": "explicit", "values": [float(v) for v in np.linspace(-1.5, 2.0, 30)]},
])
def test_diagonal_trial_a_matches_dense_path(a_spec):
    n = 30
    doc = dict(builtin_scenario("example3", n=n, trials=1).to_dict(), a_spec=a_spec)
    scenario = Scenario.from_dict(doc)
    d = _build_a_matrix(rmtlab._compile(scenario).a_diag, None, trial_rng(scenario.seed, 0))
    assert d.shape == (n,)
    if a_spec["kind"] == "geometric":
        first = a_spec["scale"] * a_spec["ratio"] ** a_spec["start_power"]
        dense = np.diag(GeometricSpectrum(first, a_spec["ratio"]).eigenvalues(n)).astype(complex)
    else:
        dense = np.diag(a_spec["values"]).astype(complex)
    assert np.array_equal(np.diag(d), dense)
    rng = np.random.default_rng(7)
    a1, b1, b2 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1), Letter(FAMILY_B, 2)
    b = {b1: sample_gue(n, rng), b2: sample_gue(n, rng)}
    for text in ["a1 + b1*a1*b1*a1*b1", "b1*a1*b2 + b2*a1*b1", "a1*a1 - a1", "a1*b1*a1'"]:
        poly = parse_expression(text, {"a1": a1, "b1": b1, "b2": b2})
        assert np.array_equal(
            dense_polynomial(poly, {a1: d, **b}, n),
            dense_polynomial(poly, {a1: dense, **b}, n),
        )


@pytest.mark.parametrize("name", ["example3", "example1"])
def test_trials_draw_the_predicted_a_of_a_non_dyadic_spectrum(name, monkeypatch):
    # at ratio 0.3, scale * ratio**(start_power + k) and (scale *
    # ratio**start_power) * ratio**k differ in the last bit for most k; the
    # trials take the prediction's values
    doc = builtin_scenario(name, n=30, trials=1).to_dict()
    doc["a_spec"].update(ratio=0.3, scale=1.7, start_power=2)
    scenario = Scenario.from_dict(doc)
    bound = []
    evaluate = rmtlab._consume_polynomial

    def spy(poly, mats, dim):
        # a copy: example1's evaluation writes B·A over its A
        bound.append(mats[Letter(FAMILY_A, 1)].copy())
        return evaluate(poly, mats, dim)

    monkeypatch.setattr(rmtlab, "_consume_polynomial", spy)
    run_scenario(scenario)
    a_model = rmtlab._compile(scenario).a_model
    diagonal = a_model.diagonal(1, 30)
    if name == "example1":  # a1 of the blocks: the upper-left block of the trial's A
        assert np.array_equal(np.diag(bound[0][:30, :30]), diagonal[:30])
    else:
        assert np.array_equal(bound[0], diagonal)


def test_explicit_spectrum_cut_to_the_truncation_predicts_as_the_cut_values():
    # the prediction reads the first `truncation` of n explicit values
    values = [0.5**k * (-1) ** k for k in range(20)]
    doc = builtin_scenario("example3", n=20, trials=1).to_dict()
    doc.update(a_spec={"kind": "explicit", "values": values}, truncation=12)
    cut = dict(doc, n=12, a_spec={"kind": "explicit", "values": values[:12]})
    got = build_prediction(Scenario.from_dict(doc))
    assert got.parameters["truncation"] == 12
    assert got.multiset == build_prediction(Scenario.from_dict(cut)).multiset
    assert len(got.multiset) == 24  # a1 + b1 a1 b1 a1 b1: two scaled copies of the 12 values


@pytest.mark.parametrize("count", [24, 14])
def test_explicit_spectrum_of_another_length_is_refused_before_any_trial(count, monkeypatch,
                                                                         tmp_path):
    doc = builtin_scenario("example3", n=20, trials=2).to_dict()
    doc["a_spec"] = {"kind": "explicit", "values": [0.5**k for k in range(count)]}
    message = f"scenario 'a_spec.values' has {count} entries, but n is 20"
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario.from_dict(doc)

    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rmtlab, "trial_rng", no_trial)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["predict", "--scenario", str(path), "--out", str(tmp_path / "pred.json")]) == 1
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "pred.json").exists()


@pytest.mark.parametrize("a_spec", [
    {"kind": "geometric", "ratio": 0.5},
    {"kind": "explicit", "values": [0.5**k for k in range(20)]},
], ids=["geometric", "explicit"])
def test_truncation_beyond_n_is_refused_naming_both(a_spec, tmp_path, capsys):
    # a trial has n eigenvalues, so a prediction of more compares with nothing
    doc = dict(builtin_scenario("example3", n=20, trials=2).to_dict(), a_spec=a_spec,
               truncation=30)
    message = "scenario 'truncation' is 30, but n is 20"
    with pytest.raises(ValueError, match=re.escape(message)):
        Scenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert message in capsys.readouterr().err
    assert Scenario.from_dict(dict(doc, truncation=20)).truncation == 20


@pytest.mark.parametrize("key", ["name", "n", "seed", "a_spec", "b_spec", "expression"])
def test_missing_top_level_key_is_named(key):
    doc = builtin_scenario("example3", n=20, trials=1).to_dict()
    del doc[key]
    with pytest.raises(ValueError, match=f"a scenario needs the key '{key}'"):
        Scenario.from_dict(doc)


def test_scenario_defaults_live_in_the_dataclass():
    doc = builtin_scenario("example3", n=20).to_dict()
    for key in ("trials", "haar_conjugate_b", "compare_top", "truncation"):
        del doc[key]
    scenario = Scenario.from_dict(doc)
    assert (scenario.trials, scenario.haar_conjugate_b, scenario.compare_top,
            scenario.truncation) == (5, False, 10, 20)


def test_zero_expression_is_refused_naming_the_expression(tmp_path, capsys):
    doc = builtin_scenario("example3", n=20, trials=1).to_dict()
    doc["expression"] = "a1 - a1"
    with pytest.raises(ValueError, match="scenario 'expression': the polynomial is 0"):
        Scenario.from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "scenario 'expression': the polynomial is 0" in capsys.readouterr().err


def test_example1_trial_a_block_is_hermitian():
    n = 30
    scenario = builtin_scenario("example1", n=n, trials=1)
    compiled = rmtlab._compile(scenario)
    x = _build_a_matrix(compiled.a_diag, compiled.a_cells, trial_rng(scenario.seed, 0))
    assert x.shape == (2 * n, 2 * n)
    # the lower-left block a2' is the exact adjoint of a2, and a1 is real diagonal
    assert np.array_equal(x[n:, :n], x[:n, n:].conj().T)
    assert np.array_equal(x[:n, :n], x[:n, :n].conj().T)
    # the rotated copy a3 = u d u^H is Hermitian up to rounding only
    assert np.max(np.abs(x - x.conj().T)) <= 1e-15


@pytest.mark.parametrize("name", ["example1", "example2", "example3"])
def test_scenario_validation_names_missing_b_state(name):
    doc = with_demo_b_state(builtin_scenario(name, n=40, trials=2).to_dict())
    prediction = {key: value for key, value in doc["prediction"].items() if key != "b_state"}
    with pytest.raises(ValueError, match="scenario 'prediction' needs the key 'b_state'"):
        Scenario.from_dict(dict(doc, prediction=prediction))


def test_trial_streams_are_independent():
    draws = set()
    for t in range(6):
        rng = trial_rng(123, t)
        draws.add(tuple(np.round(rng.standard_normal(4), 12)))
    assert len(draws) == 6
    # reproducible
    again = trial_rng(123, 3).standard_normal(4)
    np.testing.assert_array_equal(again, trial_rng(123, 3).standard_normal(4))


def test_run_scenario_deterministic():
    s = builtin_scenario("example3", n=40, trials=2)
    r1 = run_scenario(s).to_json_dict()
    r2 = run_scenario(builtin_scenario("example3", n=40, trials=2)).to_json_dict()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_run_scenario_moment_consistency():
    s = builtin_scenario("example3", n=40, trials=2)
    report = run_scenario(s)
    for rec in report.trials:
        spectrum = EVMultiset(rec["eigenvalues"])
        for k in (1, 2, 3):
            assert rec["moments"][k - 1] == multiset_moment(spectrum, k)


def test_run_scenario_hermiticity_diagnostics():
    for name in ("example1", "example2", "example2-correlated", "example3"):
        s = builtin_scenario(name, n=30, trials=1)
        report = run_scenario(s)
        for rec in report.trials:
            assert rec["diagnostics"]["hermiticity_residual"] <= 1e-8


def test_run_scenario_rejects_nonhermitian_expression(tmp_path, capsys):
    doc = builtin_scenario("example3", n=30, trials=1).to_dict()
    doc["expression"] = "a1*b1"  # not selfadjoint
    refusal = r"trial 0: matrix is not Hermitian: max entry deviation \S+ above 1\.000e-08"
    with pytest.raises(NotSelfadjointError, match=refusal):
        run_scenario(Scenario.from_dict(doc))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert re.search(refusal, capsys.readouterr().err)


def _rescaled(doc, scale):
    return Scenario.from_dict({**doc, "a_spec": {**doc["a_spec"], "scale": scale}})


def test_example3_runs_at_scale_1e5():
    # Rounding in the evaluated expression grows with its entries: at scale
    # 1e5 the Hermiticity residual is ~1e-6, beyond the absolute 1e-8 floor.
    scenario = _rescaled(builtin_scenario("example3", n=40, trials=2).to_dict(), 1e5)
    report = run_scenario(scenario)
    assert max(rec["diagnostics"]["hermiticity_residual"] for rec in report.trials) > 1e-8
    # a + b a b a b is not homogeneous in a, so the prediction is checked
    # against the oracle at the same scale
    spectrum = GeometricSpectrum(1e5 * 0.5, 0.5, count=scenario.truncation)
    poly = rmtlab._compile(scenario).poly
    state = MomentTable.from_b_powers({1: 1.0, 2: 2.0})
    for m, predicted in zip((1, 2, 3), report.prediction["moments"]):
        oracle = poly_moment(poly, m, SpectrumFamily({1: spectrum}), state).real
        assert abs(predicted - oracle) <= 1e-12 * abs(oracle)


def test_homogeneous_scenario_scales_with_a():
    doc = builtin_scenario("example3", n=40, trials=2).to_dict()
    doc.update(expression="b1*a1*b1")
    unit = run_scenario(_rescaled(doc, 1.0))
    scaled = run_scenario(_rescaled(doc, 1e5))
    pred_unit = np.asarray(unit.prediction["eigenvalues"])
    pred_scaled = np.asarray(scaled.prediction["eigenvalues"])
    assert np.max(np.abs(pred_scaled - 1e5 * pred_unit)) <= 1e-12 * 1e5 * np.max(np.abs(pred_unit))
    for key in ("match_mean_max_rel", "match_max_max_rel"):
        assert scaled.summary[key] == pytest.approx(unit.summary[key], rel=1e-6)


def test_example3_match_improves_with_n():
    sizes = (100, 300)
    means = []
    for n in sizes:
        s = builtin_scenario("example3", n=n, trials=10, seed=97)
        report = run_scenario(s)
        pred = EVMultiset(report.prediction["eigenvalues"])
        rels = [
            match_distance(EVMultiset(rec["eigenvalues"]), pred, 5)["max_rel"]
            for rec in report.trials
        ]
        means.append(float(np.mean(rels)))
    assert means[1] < means[0]


def test_file_backed_b_spec(tmp_path, monkeypatch):
    rng = np.random.default_rng(60)
    fixed = sample_gue(30, rng)
    fixed = fixed @ fixed
    path = tmp_path / "b.csv"
    save_matrix_csv(fixed, path)
    doc = with_demo_b_state(builtin_scenario("example3", n=30, trials=3).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(path)}]
    loaded = []

    def load(path):
        loaded.append(load_matrix_csv(path))
        return loaded[-1]

    monkeypatch.setattr(rmtlab, "load_matrix_csv", load)
    for haar in (True, False):
        report = run_scenario(Scenario.from_dict(dict(doc, haar_conjugate_b=haar)))
        assert len(report.trials) == 3
    # read once per run, and shared read-only by its trials
    assert len(loaded) == 2 and not any(mat.flags.writeable for mat in loaded)
    # the fixed matrix gives every trial one spectrum without the Haar conjugation
    assert report.trials[0]["eigenvalues"] == report.trials[2]["eigenvalues"]
    # one file law shared by two letters: example2-correlated with b1 read
    # from the file, read once per run, and b2 is b1's array
    doc = with_demo_b_state(builtin_scenario("example2-correlated", n=30, trials=2).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(path)}, {"kind": "copy_of", "index": 1}]
    for haar in (True, False):
        loaded.clear()
        scenario = Scenario.from_dict(dict(doc, haar_conjugate_b=haar))
        assert len(run_scenario(scenario).trials) == 2 and len(loaded) == 1
        b1, b2 = rmtlab._build_b_matrices(rmtlab._compile(scenario), {0: loaded[0]},
                                          trial_rng(1, 0))
        assert b2 is b1 and (b1 is loaded[0]) != haar


def test_file_b_of_another_shape_fails_before_any_trial(tmp_path, monkeypatch, capsys):
    save_matrix_csv(np.eye(20, dtype=complex), tmp_path / "b.csv")
    doc = with_demo_b_state(builtin_scenario("example3", n=30, trials=2).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(tmp_path / "b.csv")}]
    (tmp_path / "scenario.json").write_text(json.dumps(doc))

    def no_trial(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(rmtlab, "trial_rng", no_trial)
    with pytest.raises(DimensionMismatchError, match=re.escape("shape (20, 20), expected (30, 30)")):
        run_scenario(Scenario.from_dict(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(out)]) == 1
    assert "loaded matrix has shape (20, 20)" in capsys.readouterr().err


def test_file_b_with_ragged_rows_names_its_path(tmp_path, capsys):
    save_matrix_csv(np.eye(30, dtype=complex), tmp_path / "b.csv")
    lines = (tmp_path / "b.csv").read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 2)[0]  # row 5 loses its last entry
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
    doc = with_demo_b_state(builtin_scenario("example3", n=30, trials=2).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(tmp_path / "b.csv")}]
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    message = f"matrix CSV {tmp_path / 'b.csv'}: row 5 has 29 entries, row 1 has 30"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix_csv(tmp_path / "b.csv")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err


def test_file_b_with_a_cell_that_is_not_a_number_names_its_path_and_row(tmp_path, capsys):
    save_matrix_csv(np.eye(30, dtype=complex), tmp_path / "b.csv")
    lines = (tmp_path / "b.csv").read_text().splitlines()
    lines[2] = "x" + lines[2][lines[2].index(","):]  # row 3 starts with the cell x
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
    doc = with_demo_b_state(builtin_scenario("example3", n=30, trials=2).to_dict())
    doc["b_spec"] = [{"kind": "file", "path": str(tmp_path / "b.csv")}]
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    message = f"matrix CSV {tmp_path / 'b.csv'}: row 3: could not convert string to float: 'x'"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_matrix_csv(tmp_path / "b.csv")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"validation failure: {message}"]


@pytest.mark.parametrize("name", ["example1", "example2", "example2-correlated", "example3"])
def test_scenario_validation_realizes_and_solves_nothing(name, monkeypatch):
    # the reduction reads the moment table, and nothing is realized or solved
    def refuse(*args, **kwargs):
        raise AssertionError("validation ran numerics")

    monkeypatch.setattr(linred, "ev_polynomial", refuse)
    for model in (SpectrumFamily, HaarConjugatedFamily):
        monkeypatch.setattr(model, "realization", refuse)
        monkeypatch.setattr(model, "diagonal", refuse)
    Scenario.from_dict(builtin_scenario(name, n=40, trials=1).to_dict())


def test_predicted_moments_are_computed_once_per_run(tmp_path, monkeypatch):
    # three chain_moment calls per run, for the report's three moments;
    # predict --scenario computes none
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    real = rmtlab.chain_moment
    monkeypatch.setattr(rmtlab, "chain_moment", counted)
    scenario = builtin_scenario("example2-correlated", n=20, trials=3)
    run_scenario(scenario)
    assert calls == [1, 2, 3]
    calls.clear()
    scenario.save(tmp_path / "scenario.json")
    assert main(["predict", "--scenario", str(tmp_path / "scenario.json"),
                 "--out", str(tmp_path / "pred.json")]) == 0
    assert calls == []


def test_expression_that_reduces_to_zero_is_rejected():
    # a1 a1 b1 a1 and a1 b1 a1 a1 reduce alike, so their commutator is 0 to
    # every cyclic-monotone moment, and no multiset compares with its trials
    doc = builtin_scenario("example3", n=20, trials=1).to_dict()
    doc["expression"] = "i*(a1*a1*b1*a1 - a1*b1*a1*a1)"
    with pytest.raises(ValueError, match="'expression' reduces to 0 against b_spec's law"):
        Scenario.from_dict(doc)
    # a given table is named as before
    with pytest.raises(ValueError, match="'expression' reduces to 0 against prediction 'b_state'"):
        Scenario.from_dict(with_demo_b_state(doc))


# ---------------------------------------------------------------------------
# the B state against the law the trials sample
# ---------------------------------------------------------------------------

# the GUEs each demo's state letters multiply, by hand: example1's table reads
# its block generators, example3's b1 is g g and example2-correlated's b2 is b1
_DEMO_GUES = {
    "example1": {"b1": ("g1",), "b2": ("g2",), "b3": ("g3",)},
    "example2": {"b1": ("g1",), "b2": ("g2",)},
    "example2-correlated": {"b1": ("g1",), "b2": ("g1",)},
    "example3": {"b1": ("g1", "g1")},
}


def _with_state(doc, key, value):
    """A copy of the demo scenario ``doc`` whose former table gives ``key`` the ``value``."""
    doc = with_demo_b_state(doc)
    doc["prediction"]["b_state"]["moments"][key] = value
    return doc


def test_every_demo_state_value_is_the_law_of_its_b_spec():
    checked = 0
    for name, gues in _DEMO_GUES.items():
        doc = builtin_scenario(name, n=20, trials=1).to_dict()
        derived = rmtlab._compile(Scenario.from_dict(doc)).b_state
        for key, value in DEMO_B_STATES[name]["moments"].items():
            word = sum((gues[letter] for letter in key.split("*")), ())
            assert _noncrossing_pairings(word) == value
            # the state a demo without its table reduces against gives it too
            (letters,) = parse_expression(key, auto_symbols(key)).terms
            assert derived.tau(letters) == value
            # and the scenario's own check reads this entry, up to rounding
            Scenario.from_dict(_with_state(doc, key, value * (1 + 1e-15)))
            with pytest.raises(ValueError, match=re.escape(f"= {value + 1e-6}, but b_spec's law "
                                                           f"gives {int(value)}")):
                Scenario.from_dict(_with_state(doc, key, value + 1e-6))
            checked += 1
    assert checked == 17


@pytest.mark.parametrize("name,key,value,law", [
    ("example1", "b1*b1*b1*b1", 2.2, 2),
    ("example1", "b1*b1*b1*b1", 2.5, 2),
    ("example3", "b1*b1", 2.1, 2),
    ("example3", "b1*b1", 1.9, 2),
    ("example3", "b1", 1.05, 1),
    ("example2-correlated", "b1*b2", 0.95, 1),
])
def test_a_b_state_that_disagrees_with_b_spec_exits_1(name, key, value, law, tmp_path, capsys):
    # each of these tables passed the random-matrix gates or was caught by
    # a 5-trial statistic only
    doc = _with_state(builtin_scenario(name, n=20, trials=1).to_dict(), key, value)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    line = (f"validation failure: prediction 'b_state' gives tau({key}) = {value}, "
            f"but b_spec's law gives {law}\n")
    for command in ("predict", "simulate"):
        out = tmp_path / command
        assert main([command, "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == line and not out.exists()


def test_a_file_letter_is_not_checked():
    doc = builtin_scenario("example2", n=20, trials=1).to_dict()
    doc["b_spec"][1] = {"kind": "file", "path": "never-read.csv"}
    # b1*b2 reads the file letter b2; b1*b1 reads the GUE b1 only
    Scenario.from_dict(_with_state(doc, "b1*b2", 0.3))
    Scenario.from_dict(_with_state(doc, "b2*b2", 7.0))
    with pytest.raises(ValueError, match=re.escape("tau(b1*b1) = 1.1, but b_spec's law gives 1")):
        Scenario.from_dict(_with_state(doc, "b1*b1", 1.1))


def test_the_state_names_only_the_letters_the_expression_reads():
    # example1's table reads its block generator b2, a semicircle; an unread
    # gue_squared entry b2 must not lend that name its law, whose tau(b2 b2) is 2
    doc = with_demo_b_state(builtin_scenario("example1", n=20, trials=1).to_dict())
    doc["b_spec"].append({"kind": "gue_squared"})
    Scenario.from_dict(doc)


def _prediction_bytes(scenario):
    """The prediction of ``scenario`` as JSON text (its multiset and beta) and
    its three moments, as ``run_scenario`` computes them."""
    c = rmtlab._compile(scenario)
    prediction = rmtlab._reduction_spectrum(c.reduction, c.a_model, scenario.truncation)
    chain = [linred.AlgMatrix.from_grid(c.reduction[0]), linred.AlgMatrix(c.reduction[1])]
    moments = [linred.chain_moment(chain, m, c.a_model, c.b_state) for m in (1, 2, 3)]
    return json.dumps(prediction.to_json_dict()), repr(moments)


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("name", ["example1", "example2", "example2-correlated", "example3"])
def test_a_demo_without_its_table_predicts_as_its_former_file(name, n):
    doc = builtin_scenario(name, n=n, trials=1).to_dict()
    assert "prediction" not in doc
    former = Scenario.from_dict(with_demo_b_state(doc))
    assert _prediction_bytes(Scenario.from_dict(doc)) == _prediction_bytes(former)


def test_a_file_letter_without_a_table_exits_1(tmp_path, capsys):
    # the derived state knows the GUE letters only
    doc = builtin_scenario("example2", n=20, trials=1).to_dict()
    doc["b_spec"][1] = {"kind": "file", "path": "never-read.csv"}
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    for command in ("predict", "simulate"):
        out = tmp_path / command
        assert main([command, "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "validation failure: b_spec's law has no value for b1*b2, a word over a 'file' "
            "letter: give it in prediction.b_state\n")
        assert not out.exists()


def test_the_signed_statistic_reads_far_below_the_canonical_one_on_example2():
    # example2's limit multiset pairs +-2^-k with tied moduli, and canonical
    # order flips a pair with near-coin-flip odds; signed order does not
    summary = run_scenario(builtin_scenario("example2", n=300, trials=5)).summary
    assert summary["match_mean_signed_max_rel"] < 0.15 < 1.5 < summary["match_mean_max_rel"]


# ---------------------------------------------------------------------------
# the runner's arithmetic against a plain, out-of-place reference trial
# ---------------------------------------------------------------------------


def _reference_spectrum(x):
    """Eigenvalues of a Hermitian ``x`` symmetrized out of place."""
    m = np.asarray(x, dtype=complex)
    adjoint = np.swapaxes(m, -1, -2).conj()
    residual = float(np.max(np.abs(m - adjoint), initial=0.0))
    assert residual <= max(1e-9, 64 * np.finfo(float).eps * float(np.max(np.abs(m))))
    return EVMultiset(np.linalg.eigvalsh((m + adjoint) / 2.0).ravel()).to_list()


def _reference_trial(scenario, t):
    """Trial ``t`` of ``scenario`` with every product formed out of place: the
    samplers, a ``file`` B read afresh, ``u @ mat @ u.conj().T`` per B entry
    (``(u @ g) @ (u @ g).conj().T`` for the factor ``g`` of a ``gue_squared``
    entry), the naive ``_scaled_sum`` of the terms, ``np.block`` and
    ``(x + x.conj().T) / 2.0``; the moments are the power sums of the
    canonical spectrum.  Also returns the dense traces of ``x``, ``x @ x`` and
    ``x @ x @ x``."""
    rng = trial_rng(scenario.seed, t)

    def ginibre(size):
        return (rng.standard_normal((size, size))
                + 1j * rng.standard_normal((size, size))) * np.sqrt(0.5)

    def gue(size):
        z = ginibre(size)
        return (z + z.conj().T) / np.sqrt(2.0 * size)

    def haar(size):
        q, r = np.linalg.qr(ginibre(size))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def block(cells, mats, size):
        return np.block([[_scaled_sum(poly, mats, size) for poly in row] for row in cells])

    compiled = rmtlab._compile(scenario)
    a_cells = compiled.a_cells
    spec, n = scenario.a_spec, scenario.n
    # the spectrum rule: (scale * ratio**start_power) * ratio**k, k < n
    first = spec.get("scale", 1.0) * spec["ratio"] ** spec.get("start_power", 0)
    a = (first * np.power(float(spec["ratio"]), np.arange(n))).astype(complex)
    if a_cells is not None:
        rotated = {}
        for letter in _generators(a_cells):
            rotated[letter] = a
            if letter.index > 1:
                u = haar(n)
                rotated[letter] = (u * a) @ u.conj().T
        a = block(a_cells, rotated, n)
    dim = a.shape[0]
    drawn = []
    for spec, law in zip(scenario.b_spec, compiled.b_laws):
        if spec["kind"] == "copy_of":
            drawn.append(None)
        elif law.cells is not None:
            size = dim // len(law.cells)
            drawn.append(block(law.cells, {g: gue(size) for g in _generators(law.cells)}, size))
        elif spec["kind"] in ("gue", "gue_squared"):
            drawn.append(gue(dim))
        else:
            assert spec["kind"] == "file"
            drawn.append(load_matrix_csv(spec["path"]))
    u = haar(dim) if scenario.haar_conjugate_b else None
    b_mats = []
    for spec, mat in zip(scenario.b_spec, drawn):
        if spec["kind"] == "copy_of":
            b_mats.append(b_mats[spec["index"] - 1])
        elif spec["kind"] == "gue_squared":
            b_mats.append(mat @ mat if u is None else (u @ mat) @ (u @ mat).conj().T)
        else:
            b_mats.append(mat if u is None else u @ mat @ u.conj().T)
    mats = {Letter(FAMILY_A, 1): a}
    mats.update((Letter(FAMILY_B, j), mat) for j, mat in enumerate(b_mats, start=1))
    x = _scaled_sum(compiled.poly, mats, dim)
    residual = float(np.max(np.abs(x - x.conj().T)))
    x = (x + x.conj().T) / 2.0
    spectrum = EVMultiset(_reference_spectrum(x))
    x2 = x @ x
    traces = [float(np.real(np.trace(x))), float(np.real(np.trace(x2))),
              float(np.real(np.einsum("ij,ji->", x2, x)))]
    return {
        "eigenvalues": spectrum.to_list(),
        "moments": [multiset_moment(spectrum, k) for k in (1, 2, 3)],
        "diagnostics": {"hermiticity_residual": residual},
    }, traces


# example3 with its one gue_squared entry copied: the copy shares its source's matrix
_COPIED_GUE_SQUARED = {
    "b_spec": [{"kind": "gue_squared"}, {"kind": "copy_of", "index": 1}],
    "expression": "a1 + b1*a1*b2*a1*b1",
    "prediction": {"b_state": {"moments": {"b1": 1.0, "b2": 1.0, "b1*b1": 2.0, "b1*b2": 2.0,
                                           "b2*b2": 2.0}}},
}
# example2 with b2 read from a file, written by the test into its working
# directory, and its former table, which gives the file letter's state
_FILE_B2 = {"b_spec": [{"kind": "gue"}, {"kind": "file", "path": "b2.csv"}],
            "prediction": {"b_state": DEMO_B_STATES["example2"]}}
# example2-correlated with b1 read from that file: one file law for two letters
_FILE_B1_COPIED = {"b_spec": [{"kind": "file", "path": "b2.csv"}, {"kind": "copy_of", "index": 1}],
                   "prediction": {"b_state": DEMO_B_STATES["example2-correlated"]}}


@pytest.mark.parametrize("name,changes", [
    ("example1", {}),
    ("example2", {}),
    ("example2-correlated", {}),
    ("example3", {}),
    ("example3", {"haar_conjugate_b": False}),
    ("example3", _COPIED_GUE_SQUARED),
    ("example2", _FILE_B2),
    ("example2-correlated", _FILE_B1_COPIED),
    # at these sizes every product and Hermitian pass runs several blocks
    ("example1", {"n": 150}),
    ("example2", {"n": 260}),
    ("example2-correlated", {"n": 260}),
    ("example3", {"n": 260}),
], ids=["example1", "example2", "example2-correlated", "example3", "example3-no-haar",
        "example3-copied", "example2-file", "example2-correlated-file", "example1-blocked", "example2-blocked",
        "example2-correlated-blocked", "example3-blocked"])
def test_trials_equal_the_out_of_place_reference(name, changes, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_matrix_csv(sample_gue(24, np.random.default_rng(63)), "b2.csv")
    n = changes.get("n", 24)
    doc = builtin_scenario(name, n=n, trials=2, seed=909).to_dict()
    scenario = Scenario.from_dict({**doc, **changes})
    report = run_scenario(scenario)
    for t, record in enumerate(report.trials):
        reference, traces = _reference_trial(scenario, t)
        # JSON text, so that the sign of a zero counts too
        assert json.dumps({key: record[key] for key in reference}) == json.dumps(reference)
        # the power sums against the dense traces, an independent check
        values = np.asarray(record["eigenvalues"])
        for k, (moment, trace) in enumerate(zip(record["moments"], traces), start=1):
            assert abs(moment - trace) <= 1e-12 * np.sum(np.abs(values) ** k)


def test_gue_squared_is_conjugated_through_its_factor(monkeypatch):
    # B = (u g)(u g)* is u (g g) u* up to rounding, drawn from the same stream
    n = 40
    scenario = builtin_scenario("example3", n=n, trials=1)
    bound = []
    evaluate = rmtlab._consume_polynomial

    def spy(poly, mats, dim):
        bound.append(mats[Letter(FAMILY_B, 1)])
        return evaluate(poly, mats, dim)

    monkeypatch.setattr(rmtlab, "_consume_polynomial", spy)
    rng = trial_rng(scenario.seed, 0)
    rmtlab._trial_matrix(rmtlab._compile(scenario), {}, rng)
    ref = trial_rng(scenario.seed, 0)
    g = sample_gue(n, ref)
    u = sample_haar_unitary(n, ref)
    expected = u @ (g @ g) @ u.conj().T
    assert np.max(np.abs(bound[0] - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert rng.standard_normal() == ref.standard_normal()


def test_copy_of_a_gue_squared_entry_shares_its_matrix():
    doc = builtin_scenario("example3", n=20, trials=1).to_dict()
    for haar in (True, False):
        scenario = Scenario.from_dict({**doc, **_COPIED_GUE_SQUARED, "haar_conjugate_b": haar})
        compiled = rmtlab._compile(scenario)
        law, copy = compiled.b_laws
        assert copy is law and law.pos == 0
        b1, b2 = rmtlab._build_b_matrices(compiled, {}, trial_rng(1, 0))
        assert b2 is b1


def test_evaluate_expression_leaves_bound_matrices_alone():
    rng = np.random.default_rng(61)
    a1, b1 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1)
    mats = {a1: rng.standard_normal(6).astype(complex), b1: sample_gue(6, rng)}
    kept = {letter: mat.copy() for letter, mat in mats.items()}
    # one-letter words return the bound matrix itself, which must be scaled by
    # copy; -a1 has entries -0.0, which a sum from zeros turns into +0.0.
    # Sorted, "3 + a1*a1 + ..." has diagonal words (the constant, a1*a1)
    # before its first dense word a1*b1*a1 and one (-a1') after it
    for text in ["2*b1 - b1' - a1 + b1*a1*b1", "-a1", "3 + a1*a1 + a1*b1*a1 - a1' - b1",
                 "a1*a1 - a1 - 1", "-b1*b1 + a1"]:
        poly = parse_expression(text, {"a1": a1, "b1": b1})
        expected = _scaled_sum(poly, kept, 6)
        assert dense_polynomial(poly, mats, 6).tobytes() == expected.tobytes()
        assert all(np.array_equal(mats[letter], kept[letter]) for letter in mats)
        assert mats.keys() == kept.keys()


def _scaled_sum(poly, mats, dim):
    """The terms of ``poly`` over ``mats`` summed into zeros, scaled as
    ``_polynomial_sum`` says: ``c * x`` for a 2-D bound matrix itself, and
    ``x *= c`` for a product or a copy of a diagonal, which stays 1-D."""
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in poly.sorted_terms():
        term = None
        for letter in word:
            mat = mats[letter.base()].conj().T if letter.star else mats[letter.base()]
            term = (mat if term is None else term * mat if mat.ndim == 1
                    else term[:, np.newaxis] * mat if term.ndim == 1 else term @ mat)
        if term is None:
            term = np.ones(dim, dtype=complex)
        if len(word) == 1 and not word[0].star and term.ndim == 2:
            term = coeff * term
        else:
            term = term.copy() if len(word) == 1 else term
            term *= coeff
        if term.ndim == 1:
            out[np.diag_indices(dim)] += term
        else:
            out += term
    return out


def test_generic_complex_coefficients_scale_as_documented():
    # numpy rounds c * x and x *= c apart in the last bit for this c, so a
    # path that scaled a bound matrix in place, or swapped the operands of a
    # product, would show here; dim 150 runs two row blocks per product
    dim, c = 150, 0.3 - 0.71j
    rng = np.random.default_rng(66)
    a1, b1, b2 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1), Letter(FAMILY_B, 2)
    a_diag = rng.uniform(-1, 1, size=dim).astype(complex)
    b = sample_gue(dim, rng)
    symbols = {"a1": a1, "b1": b1, "b2": b2}
    for text in ["b1 + b1*a1*b1 + a1 + b1' + a1*a1 + b2*a1*b1 + 1",
                 "b1*b2 + a1*b1*a1*b2' + b2 + b1*b1*b1"]:
        words = parse_expression(text, symbols).terms
        poly = NCPolynomial({word: c for word in words})
        for shared in (True, False):
            kept = {a1: a_diag, b1: b, b2: b if shared else b.conj()}
            expected = _scaled_sum(poly, kept, dim).tobytes()
            assert dense_polynomial(poly, kept, dim).tobytes() == expected
            mats = {a1: a_diag, b1: b.copy()}
            mats[b2] = mats[b1] if shared else b.conj()  # shared, as a copy_of entry
            assert dense._consume_polynomial(poly, mats, dim).tobytes() == expected
            assert not mats


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_dense_polynomial_reads_real_matrices_as_their_complex_casts(dtype):
    # a real product scaled in place by a complex coefficient used to raise
    # numpy's UFuncTypeError; a1 is a 1-D real diagonal
    rng = np.random.default_rng(65)
    a1, b1 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1)
    mats = {letter: (3 * rng.standard_normal(shape)).astype(dtype)
            for letter, shape in ((a1, 5), (b1, (5, 5)))}
    cast = {letter: mat.astype(complex) for letter, mat in mats.items()}
    for text in ["b1*b1 + 2*b1", "b1'", "b1", "i*a1 - 2*a1*a1'", "a1*b1*a1 - a1 + 2"]:
        poly = parse_expression(text, {"a1": a1, "b1": b1})
        got = dense_polynomial(poly, mats, 5)
        assert got.tobytes() == dense_polynomial(poly, cast, 5).tobytes()
    assert all(mat.dtype == dtype for mat in mats.values())


@pytest.mark.parametrize("name", ["example1", "example3"])
def test_trial_evaluation_equals_dense_polynomial_over_kept_draws(name):
    # the trial hands its matrices over and each is freed after its last
    # letter; the same draws, kept, give the same bytes by dense_polynomial
    scenario = builtin_scenario(name, n=20, trials=1)
    compiled = rmtlab._compile(scenario)
    got = rmtlab._trial_matrix(compiled, {}, trial_rng(scenario.seed, 0))
    rng = trial_rng(scenario.seed, 0)
    kept = {Letter(FAMILY_A, 1): _build_a_matrix(compiled.a_diag, compiled.a_cells, rng)}
    b_mats = rmtlab._build_b_matrices(compiled, {}, rng)
    kept.update((Letter(FAMILY_B, j), mat) for j, mat in enumerate(b_mats, start=1))
    assert got.tobytes() == dense_polynomial(compiled.poly, kept, compiled.dim).tobytes()


def test_consumed_evaluation_empties_its_matrices():
    rng = np.random.default_rng(64)
    a1, b1, b2 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1), Letter(FAMILY_B, 2)
    mats = {a1: sample_gue(5, rng), b1: sample_gue(5, rng), b2: sample_gue(5, rng)}
    poly = parse_expression("b1*a1*b1 - a1 + 2*b1'", {"a1": a1, "b1": b1})
    expected = dense_polynomial(poly, mats, 5)
    assert dense._consume_polynomial(poly, mats, 5).tobytes() == expected.tobytes()
    assert list(mats) == [b2]  # every letter the polynomial reads is removed


@pytest.mark.parametrize("text", ["b1*a1*b2 + b2*a1*b1", "a1*b1 + a1*b2", "b1*b2 + a1"])
def test_a_shared_matrix_is_written_only_once_no_letter_binds_it(text, monkeypatch):
    # example2-correlated's b2 is a copy_of b1: one array under two letters.
    # b1's last letter releases neither; a read-only a1 (a file B's kind) is
    # never written, so in a1*b2 the product goes over the array itself, but
    # in b1*b2 not over its own left operand
    dim = 200
    rng = np.random.default_rng(67)
    a1, b1, b2 = Letter(FAMILY_A, 1), Letter(FAMILY_B, 1), Letter(FAMILY_B, 2)
    a = sample_gue(dim, rng) if text.startswith("a1") else rng.uniform(-1, 1, dim).astype(complex)
    a.setflags(write=False)
    shared = sample_gue(dim, rng)
    kept, a_kept = shared.copy(), a.copy()
    poly = parse_expression(text, {"a1": a1, "b1": b1, "b2": b2})
    expected = dense_polynomial(poly, {a1: a_kept, b1: kept, b2: kept}, dim)
    mats = {a1: a, b1: shared, b2: shared}
    targets = []
    matmul_over = dense._matmul_over

    def checked(left, right, over):
        if b1 in mats or b2 in mats:
            assert shared.tobytes() == kept.tobytes() and over is not shared
        targets.append(over)
        return matmul_over(left, right, over)

    monkeypatch.setattr(dense, "_matmul_over", checked)
    assert dense._consume_polynomial(poly, mats, dim).tobytes() == expected.tobytes()
    assert np.array_equal(a, a_kept) and not mats
    assert any(over is shared for over in targets) == text.startswith("a1")


def test_dense_block_matrix_writes_each_cell_into_all_its_blocks(monkeypatch):
    rng = np.random.default_rng(62)
    b1, b2 = Letter(FAMILY_B, 1), Letter(FAMILY_B, 2)
    mats = {b1: sample_gue(5, rng), b2: sample_gue(5, rng)}
    kept = {letter: mat.copy() for letter, mat in mats.items()}
    cells = [[parse_expression(text, {"b1": b1, "b2": b2}) for text in row]
             for row in [["b1*b1", "b2*b2 - b1"], ["b2*b2 - b1", "2*b1*b1 + b2*b1"]]]
    evaluated = []
    cell_into = dense._cell_into

    def counted(out, blocks, poly, *args):
        evaluated.append(poly)
        return cell_into(out, blocks, poly, *args)

    monkeypatch.setattr(dense, "_cell_into", counted)
    got = dense_block_matrix(cells, mats.get, 5)
    monkeypatch.undo()
    assert len(evaluated) == 3  # the off-diagonal cell is formed once
    for i, row in enumerate(cells):
        for j, poly in enumerate(row):
            block = got[i * 5:(i + 1) * 5, j * 5:(j + 1) * 5]
            assert block.tobytes() == dense_polynomial(poly, kept, 5).tobytes()
    assert all(np.array_equal(mats[letter], kept[letter]) for letter in mats)


def _peak_matrices(scenario, dim):
    """tracemalloc's peak over ``run_scenario``, in dim x dim complex matrices."""
    tracemalloc.start()
    try:
        floor = tracemalloc.get_traced_memory()[0]
        run_scenario(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - floor) / (16 * dim * dim)


@pytest.mark.parametrize("name,n,dim", [
    ("example1", 200, 400), ("example3", 400, 400), ("example2-correlated", 400, 400),
    ("example3", 600, 600),
])
def test_one_trial_keeps_few_dense_matrices_alive(name, n, dim):
    # each product is written over an operand that dies with it, a block
    # beside it (128/dim of a matrix), and every Hermitian pass and the GUE's
    # z += z* take tile-sized temporaries.  example1 peaks drawing a B
    # generator beside A and B's output (2.43); example3 (2.33, 2.22 at the
    # benchmark's n=600) forming B beside the Haar u.  example2-correlated
    # peaks evaluating its second term beside the sum and the shared B
    # (3.33).  The second run's peak leaves out first-call allocations
    bound = {"example1": 2.5, "example3": 2.5 if n < 600 else 2.4, "example2-correlated": 3.5}
    scenario = builtin_scenario(name, n=n, trials=1)
    run_scenario(scenario)
    assert _peak_matrices(scenario, dim) <= bound[name]


def test_example2_frees_each_draw_once_its_matrix_is_formed():
    # two B's are drawn before u; each t = u @ g is written over its draw,
    # t @ u* over t with u conjugated in place, and u freed after the second
    # (3.33; 5.01 forming each product anew, 7.01 when every draw lived until
    # both were formed, 6.08 with np.linalg.qr)
    scenario = builtin_scenario("example2", n=400, trials=1)
    run_scenario(scenario)  # the second run's peak leaves out first-call allocations
    assert _peak_matrices(scenario, 400) <= 3.55


def test_example1_prediction_is_its_limit_model():
    # the prediction's power sums are the chain moments of the limit model
    # it realizes, and it reads no seed
    docs = []
    for seed in (None, 1):
        scenario = builtin_scenario("example1", seed=seed)
        compiled = rmtlab._compile(scenario)
        a_grid, beta = compiled.reduction[:2]
        chain = [linred.AlgMatrix.from_grid(a_grid), linred.AlgMatrix(beta)]
        prediction = build_prediction(scenario)
        assert len(prediction.multiset) == 2 * 3 * scenario.n
        for m in (1, 2, 3):
            expected = linred.chain_moment(chain, m, compiled.a_model, compiled.b_state).real
            got = multiset_moment(prediction.multiset, m)
            assert abs(got - expected) <= 1e-12 * abs(expected)
        docs.append(json.dumps(prediction.to_json_dict()))
    assert docs[0] == docs[1]


@pytest.mark.parametrize("name", ["example1", "example2", "example2-correlated", "example3"])
def test_every_demo_reduces_exactly_once_per_run(name, monkeypatch):
    # validation, the prediction, its moments and every trial's comparison
    # share one reduction
    scenario = builtin_scenario(name, n=20, trials=3)
    calls = []
    original = linred._reduce

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (linred, rmtlab):
        monkeypatch.setattr(module, "_reduce", counted)
    run_scenario(scenario)
    assert len(calls) == 1


def test_example1_limit_cost_script_runs(capsys):
    # the README's calibration table comes from this script, which reads
    # private rmtlab helpers; one small row keeps it working
    from print_example1_limit_cost import main as limit_cost

    limit_cost([40])
    header, row = capsys.readouterr().out.splitlines()
    assert header == "n seeded_draw exact_limit"
    n, draw, limit = row.split()
    assert n == "40" and 0 < float(draw) and 0 < float(limit)


def test_diagonal_models_are_never_realized_densely(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense realization was built")

    for model in (SpectrumFamily, HaarConjugatedFamily):
        monkeypatch.setattr(model, "realization", refuse)
    for name in ("example1", "example2", "example2-correlated", "example3"):
        build_prediction(builtin_scenario(name, n=40, trials=1))


def test_example3_prediction_peak_stays_under_one_mib():
    # its 600 batched 2 x 2 solves hold 38 KB; a dense 600 x 600 realization
    # alone would take 5.5 MiB
    scenario = builtin_scenario("example3", n=600, trials=1)
    build_prediction(scenario)
    tracemalloc.start()
    try:
        build_prediction(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("demo", ["example3", "example2-correlated"])
def test_haar_conjugation_of_the_b_letters_moves_no_seed_stream_mean(demo):
    # one shared Haar rotation leaves GUE-based B's jointly invariant, so the
    # statistic's law is the same with and without it: the seed-stream means
    # agree within |z| <= 3.3 (two-sided 0.1%), a bound fixed before any run
    stream = range(1, 21)
    means, variances = [], []
    for haar in (True, False):
        rels = [s["match_mean_max_rel"] for s in gate_summaries(demo, 150, 5, stream, haar)]
        means.append(statistics.fmean(rels))
        variances.append(statistics.variance(rels) / len(rels))
    z = (means[0] - means[1]) / math.sqrt(sum(variances))
    assert abs(z) <= 3.3
