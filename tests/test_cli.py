import json
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from cyclospec import (
    EVMultiset,
    GeometricSpectrum,
    builtin_scenario,
    cli,
    errors,
    ev_anticommutator,
    multiset_moment,
    ncalg,
    rmtlab,
)
from cyclospec.cli import main

from _oracles import DEMO_B_STATES, with_demo_b_state


def run_cli(*argv):
    return main(list(argv))


_SUM_BAC_STATE = {"moments": {"b1'*b1": 1.0, "b1'*b2": 2.0, "b2'*b2": 1.0}}


def test_predict_anticommutator(tmp_path):
    out = tmp_path / "pred.json"
    code = run_cli(
        "predict", "--expr", "a1*b1 + b1*a1", "--tau-b", "1", "--tau-b2", "2",
        "--spectrum", "geometric:1,0.5,64", "--out", str(out),
    )
    assert code == 0
    got = np.sort(json.loads(out.read_text())["eigenvalues"])
    closed = np.sort(ev_anticommutator(GeometricSpectrum(1.0, 0.5, count=64), 1.0, 2.0)
                     .multiset.values)
    assert len(got) == len((tmp_path / "pred.csv").read_text().strip().splitlines()) == 128
    assert np.max(np.abs(got - closed)) <= 1e-14 * np.max(np.abs(closed))


def test_predict_sum_bac_reference_matrix(tmp_path):
    # beta = [[1,2],[2,1]] has the eigenvalues 3 and -1, so the multiset is
    # the spectrum scaled by 3 and by -1
    state = tmp_path / "state.json"
    state.write_text(json.dumps(_SUM_BAC_STATE))
    out = tmp_path / "bac.json"
    code = run_cli(
        "predict", "--expr", "b1*a1*b1' + b2*a1*b2'", "--b-state", str(state),
        "--spectrum", "geometric:1,0.5,64", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["beta"] == [[1.0, 2.0], [2.0, 1.0]]
    spectrum = 0.5 ** np.arange(64)
    assert sorted(doc["eigenvalues"]) == sorted([*(3 * spectrum), *(-spectrum)])


def test_predict_commutator_zero_multiset(tmp_path):
    out = tmp_path / "comm.json"
    code = run_cli(
        "predict", "--expr", "i*(a1*b1 - b1*a1)", "--tau-b", "1", "--tau-b2", "1",
        "--spectrum", "geometric:1,0.5,16", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["eigenvalues"]) == 32
    assert all(v == 0.0 for v in doc["eigenvalues"])


@pytest.mark.parametrize("expr", ["a1 - a1", "b1*a1*b1 - b1*a1*b1"])
def test_predict_zero_polynomial_exits_validation(tmp_path, capsys, expr):
    code = run_cli(
        "predict", "--expr", expr, "--tau-b", "1", "--tau-b2", "2",
        "--spectrum", "geometric:1,0.5,8", "--out", str(tmp_path / "zero.json"),
    )
    assert code == 1
    assert "validation failure: the polynomial is 0" in capsys.readouterr().err
    assert not (tmp_path / "zero.json").exists()


@pytest.mark.parametrize("expr,flags", [
    ("a1*b1 + b1*a1", ["--tau-b", "1", "--tau-b2", "2"]),
    ("i*(a1*b1 - b1*a1)", ["--tau-b", "1", "--tau-b2", "2"]),
    ("a1 + b1*a1*b1*a1*b1", ["--tau-b", "1", "--tau-b2", "2"]),
    ("b1*a1*b1' + b2*a1*b2'", ["--b-state"]),
], ids=["anticommutator", "commutator", "sum_bab", "sum_bac"])
def test_predict_expression_moments_match_the_oracle(tmp_path, capsys, expr, flags):
    # the two commands read the same inputs, so the prediction's multiset
    # moments are the oracle's
    if flags == ["--b-state"]:
        (tmp_path / "state.json").write_text(json.dumps(_SUM_BAC_STATE))
        flags = ["--b-state", str(tmp_path / "state.json")]
    spectrum = "geometric:1,0.5,16"
    out = tmp_path / "pred.json"
    assert run_cli("predict", "--expr", expr, "--spectrum", spectrum, *flags,
                   "--out", str(out)) == 0
    multiset = EVMultiset(json.loads(out.read_text())["eigenvalues"])
    capsys.readouterr()
    assert run_cli("oracle", "--expr", expr, "--moments", "6", "--a-model", spectrum,
                   *flags) == 0
    oracle = json.loads(capsys.readouterr().out)["moments"]
    for m, (re_part, im_part) in enumerate(oracle, start=1):
        assert multiset_moment(multiset, m) == pytest.approx(re_part, rel=1e-9, abs=1e-9)
        assert abs(im_part) <= 1e-9


def test_oracle_values(capsys):
    code = run_cli(
        "oracle", "--expr", "a1*b1+b1*a1", "--moments", "2",
        "--a-model", "geometric:1,0.5,analytic", "--tau-b", "1", "--tau-b2", "2",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["moments"][0][0] == pytest.approx(4.0)
    assert doc["moments"][1][0] == pytest.approx(8.0)


def test_oracle_single_letter(capsys):
    code = run_cli(
        "oracle", "--expr", "a1", "--moments", "1",
        "--a-model", "geometric:1,0.5,analytic", "--tau-b", "1",
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["moments"][0][0] == pytest.approx(2.0)


def test_oracle_pure_b_exits_validation(capsys):
    code = run_cli(
        "oracle", "--expr", "b1*b1", "--moments", "1",
        "--a-model", "geometric:1,0.5,64", "--tau-b", "1",
    )
    assert code == 1


def test_oracle_bad_expression_exits_validation():
    code = run_cli(
        "oracle", "--expr", "a1 +* b1", "--moments", "1",
        "--a-model", "geometric:1,0.5,64", "--tau-b", "1",
    )
    assert code == 1


def test_oracle_moment_that_is_not_finite_exits_validation(capsys):
    # the second moment of scale 1e300 overflows to inf, and inf - inf is NaN
    code = run_cli(
        "oracle", "--expr", "a1*b1 + b1*a1", "--moments", "3",
        "--a-model", "geometric:1e300,0.5,analytic", "--tau-b", "1", "--tau-b2", "2",
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("validation failure: oracle moment 2 is ")
    assert "not finite: --a-model geometric:1e300,0.5,analytic" in line


@pytest.mark.parametrize("expr,scale,tau_b,tau_b2", [
    # beta is PSD: the Hermitian sandwich root A root overflows
    ("a1*b1 + b1*a1", "1e300", "1e10", "1e20"),
    # beta is not PSD: the product A (beta x I) overflows
    ("a1*b1 + b1*a1", "1e300", "1e10", "1"),
    # A itself overflows while its stack is built: a1*a1 reads 1e200 * 1e200
    ("a1*a1*b1 + b1*a1*a1", "1e200", "1", "2"),
], ids=["sandwich", "product", "stack"])
def test_predict_whose_reduced_matrix_overflows_exits_validation(expr, scale, tau_b, tau_b2,
                                                                 tmp_path, capsys):
    out_path = tmp_path / "w.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings are silenced, not printed
        code = run_cli(
            "predict", "--expr", expr, "--spectrum", f"geometric:{scale},0.5,8",
            "--tau-b", tau_b, "--tau-b2", tau_b2, "--out", str(out_path),
        )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    (line,) = err.splitlines()
    assert line.startswith("validation failure: A (beta x I) overflows")


@pytest.mark.parametrize("moments", ["0", "-2"])
def test_oracle_moments_below_1_exit_validation(capsys, moments):
    code = run_cli(
        "oracle", "--expr", "a1*b1+b1*a1", "--moments", moments,
        "--a-model", "geometric:1,0.5,analytic", "--tau-b", "1",
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"oracle --moments must be >= 1, not {moments}" in err


@pytest.mark.parametrize("truncation", ["0", "-3"])
def test_predict_truncation_below_1_exits_validation(tmp_path, capsys, truncation):
    code = run_cli(
        "predict", "--expr", "a1", "--spectrum", "geometric:1,0.5", "--tau-b", "1",
        "--truncation", truncation, "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert f"truncation must be >= 1, not {truncation}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_compare_pipeline(tmp_path, capsys):
    scenario = builtin_scenario("example3", n=40, trials=2)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    out_dir = tmp_path / "run"
    code = run_cli("simulate", "--scenario", str(scen_path), "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "prediction.csv").exists()
    assert (out_dir / "trial_00_eigenvalues.csv").exists()
    assert (out_dir / "trial_01_eigenvalues.csv").exists()
    plot = (out_dir / "plot_data.csv").read_text().splitlines()
    assert plot[0] == "rank,empirical,predicted"
    assert len(plot) >= 11
    capsys.readouterr()

    # loose tolerance passes, zero tolerance fails with the numerical exit code
    assert run_cli("compare", "--report", str(out_dir / "report.json"),
                   "--top", "5", "--tol-rel", "10") == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert run_cli("compare", "--report", str(out_dir / "report.json"),
                   "--top", "5", "--tol-rel", "0") == 2


@pytest.mark.parametrize("top", [0, -2])
def test_compare_refuses_a_top_below_one(top, tmp_path, capsys):
    # comparing no eigenvalue would pass any tolerance
    out_dir = tmp_path / "run"
    builtin_scenario("example3", n=20, trials=1).save(tmp_path / "scenario.json")
    assert run_cli("simulate", "--scenario", str(tmp_path / "scenario.json"),
                   "--out", str(out_dir)) == 0
    capsys.readouterr()
    assert run_cli("compare", "--report", str(out_dir / "report.json"),
                   "--top", str(top), "--tol-rel", "10") == 1
    captured = capsys.readouterr()
    assert f"compare --top must be >= 1, not {top}" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("tol,shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_compare_refuses_a_tolerance_that_decides_the_verdict_alone(tol, shown, tmp_path, capsys):
    # NaN and -1 would fail, and inf pass, whatever the report holds
    out_dir = tmp_path / "run"
    builtin_scenario("example3", n=20, trials=1).save(tmp_path / "scenario.json")
    assert run_cli("simulate", "--scenario", str(tmp_path / "scenario.json"),
                   "--out", str(out_dir)) == 0
    capsys.readouterr()
    assert run_cli("compare", "--report", str(out_dir / "report.json"), "--tol-rel", tol) == 1
    captured = capsys.readouterr()
    message = f"compare --tol-rel must be finite and >= 0, not {shown}"
    assert captured.err == f"validation failure: {message}\n"
    assert captured.out == ""


def test_compare_refuses_a_report_without_trials(tmp_path, capsys):
    # a mean over no trial would pass any tolerance
    out_dir = tmp_path / "run"
    builtin_scenario("example3", n=20, trials=1).save(tmp_path / "scenario.json")
    assert run_cli("simulate", "--scenario", str(tmp_path / "scenario.json"),
                   "--out", str(out_dir)) == 0
    report_path = out_dir / "report.json"
    doc = json.loads(report_path.read_text())
    doc["trials"] = []
    report_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("compare", "--report", str(report_path), "--tol-rel", "10") == 1
    captured = capsys.readouterr()
    assert f"report {report_path} holds no trials to compare" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("doc,key", [
    ([], "must hold an object, not list"),
    ({"trials": 5}, "'trials' must be a list of objects"),
    ({"trials": [{"trial": 0}]}, "'trials[0].eigenvalues' must be a list of numbers"),
])
def test_compare_refuses_a_malformed_report_naming_its_path_and_key(doc, key, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    if isinstance(doc, dict):
        doc = {"scenario": {}, "prediction": {"eigenvalues": [1.0]}, **doc}
    report_path.write_text(json.dumps(doc))
    assert run_cli("compare", "--report", str(report_path), "--tol-rel", "10") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"validation failure: report {report_path}") and key in line


def test_simulate_refuses_a_compare_top_below_one(tmp_path, capsys):
    # a scenario that compares no eigenvalue would report a perfect match
    doc = dict(builtin_scenario("example2", n=40, trials=2).to_dict(), compare_top=0)
    (tmp_path / "scenario.json").write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(tmp_path / "scenario.json"),
                   "--out", str(tmp_path / "run")) == 1
    assert "scenario 'compare_top' must be >= 1, not 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_every_trial_is_compared_with_the_one_prediction(tmp_path, capsys):
    # a report holds one prediction; compare ignores the per-trial
    # prediction_eigenvalues that reports written with per_trial still hold
    scenario_path = tmp_path / "scenario.json"
    builtin_scenario("example2-correlated", n=30, trials=2).save(scenario_path)
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(out_dir)) == 0
    report_path = out_dir / "report.json"
    doc = json.loads(report_path.read_text())
    predicted = EVMultiset(doc["prediction"]["eigenvalues"])
    for rec in doc["trials"]:
        assert set(rec) == {"trial", "eigenvalues", "moments", "match", "diagnostics"}
        assert set(rec["diagnostics"]) == {"hermiticity_residual"}
        empirical = EVMultiset(rec["eigenvalues"])
        assert rec["match"] == rmtlab.match_distance(empirical, predicted, 10)
    capsys.readouterr()
    assert run_cli("compare", "--report", str(report_path), "--tol-rel", "10") == 0
    printed = capsys.readouterr().out
    for rec in doc["trials"]:
        rec["prediction_eigenvalues"] = [1e3] * 30
    report_path.write_text(json.dumps(doc))
    assert run_cli("compare", "--report", str(report_path), "--tol-rel", "10") == 0
    assert capsys.readouterr().out == printed


def test_compare_reads_a_report_of_either_revision(tmp_path, capsys):
    # a report written while the demos gave their B state tables holds
    # scenario.prediction and neither signed entry; compare reads it alike
    builtin_scenario("example2", n=30, trials=2).save(tmp_path / "scenario.json")
    assert run_cli("simulate", "--scenario", str(tmp_path / "scenario.json"),
                   "--out", str(tmp_path / "run")) == 0
    new = tmp_path / "run" / "report.json"
    doc = json.loads(new.read_text())
    del doc["summary"]["match_mean_signed_max_rel"]
    for rec in doc["trials"]:
        del rec["match"]["signed_max_rel"]
    doc["scenario"]["prediction"] = {"b_state": DEMO_B_STATES["example2"]}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("compare", "--report", str(new), "--tol-rel", "10") == 0
    printed = capsys.readouterr().out
    assert run_cli("compare", "--report", str(old), "--tol-rel", "10") == 0
    assert capsys.readouterr().out == printed
    # the signed column and mean are the report's own statistics
    signed = [float(line.split()[3]) for line in printed.splitlines()[1:3]]
    report = json.loads(new.read_text())
    assert signed == pytest.approx([rec["match"]["signed_max_rel"] for rec in report["trials"]],
                                   rel=1e-5)
    assert f"mean signed_max_rel over trials: {report['summary']['match_mean_signed_max_rel']:.6g}" \
        in printed


def test_simulate_determinism(tmp_path):
    scenario = builtin_scenario("example3", n=40, trials=1)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    code = run_cli("simulate", "--scenario", str(scen_path), "--out", str(tmp_path / "r1"))
    assert code == 0
    code = run_cli("simulate", "--scenario", str(scen_path), "--out", str(tmp_path / "r2"))
    assert code == 0
    assert (tmp_path / "r1" / "report.json").read_text() == (
        tmp_path / "r2" / "report.json"
    ).read_text()


def test_simulate_overrides_build_the_scenario_once(tmp_path, monkeypatch):
    # --trials and --seed replace the file's values before the scenario is
    # built, so it is validated once, and once more by the run itself
    scenario = builtin_scenario("example3", n=20, trials=1)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    calls = []
    compile_scenario = rmtlab._compile

    def counted(s):
        calls.append((s.trials, s.seed))
        return compile_scenario(s)

    monkeypatch.setattr(rmtlab, "_compile", counted)
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--scenario", str(scen_path), "--out", str(out_dir),
                   "--trials", "2", "--seed", "5") == 0
    assert calls == [(2, 5), (2, 5)]
    report = json.loads((out_dir / "report.json").read_text())
    assert (report["scenario"]["trials"], report["scenario"]["seed"]) == (2, 5)
    assert len(report["trials"]) == 2
    # a value that only the file holds is still read from it
    assert report["scenario"]["n"] == 20


def test_simulate_missing_file_exits_io(tmp_path):
    assert run_cli("simulate", "--scenario", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")) == 3


def test_report_schema_validation(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    scenario = builtin_scenario("example2", n=30, trials=2)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    out_dir = tmp_path / "run"
    assert run_cli("simulate", "--scenario", str(scen_path), "--out", str(out_dir)) == 0
    report = json.loads((out_dir / "report.json").read_text())
    schema = json.loads(
        resources.files("cyclospec").joinpath("schemas/report.schema.json").read_text()
    )
    jsonschema.validate(report, schema)


def test_scenario_schema_validation():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    )
    for name in ("example1", "example2", "example2-correlated", "example3"):
        jsonschema.validate(builtin_scenario(name, n=40, trials=2).to_dict(), schema)
        shipped = resources.files("cyclospec").joinpath(f"demos/{name}.json").read_text()
        jsonschema.validate(json.loads(shipped), schema)


_EXAMPLE1 = with_demo_b_state(builtin_scenario("example1", n=40, trials=2).to_dict())
# one misspelt or retired key per closed object, by the path its error names
_UNKNOWN_KEYS = {
    "haar_conjugate": {"haar_conjugate": True},
    "a_spec.start_powr": {"a_spec": dict(_EXAMPLE1["a_spec"], start_powr=1)},
    "b_spec[0].size": {"b_spec": [dict(_EXAMPLE1["b_spec"][0], size=2)]},
    "prediction.beta": {"prediction": dict(_EXAMPLE1["prediction"], beta="per_trial")},
    "prediction.per_trial": {"prediction": dict(_EXAMPLE1["prediction"], per_trial=True)},
    "degree-cap": {"prediction": {"b_state": dict(_EXAMPLE1["prediction"]["b_state"],
                                                  **{"degree-cap": 1})}},
}


@pytest.mark.parametrize("path", _UNKNOWN_KEYS)
def test_scenario_rejects_unknown_keys(path, tmp_path, capsys):
    bad = dict(_EXAMPLE1, **_UNKNOWN_KEYS[path])
    with pytest.raises(ValueError, match=re.escape(repr(path))):
        rmtlab.Scenario.from_dict(bad)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(bad))
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")) == 1
    assert repr(path) in capsys.readouterr().err


# a_spec values of no finite diagonal, each with the key its refusal names;
# 0 ** -1 and 0.5 ** -2000 raise ZeroDivisionError and OverflowError
_NON_FINITE_A_SPECS = {
    "zero-ratio-negative-power": ({"kind": "geometric", "ratio": 0, "start_power": -1},
                                  "a_spec.start_power"),
    "overflowing-power": ({"kind": "geometric", "ratio": 0.5, "start_power": -2000},
                          "a_spec.start_power"),
    "nan-scale": ({"kind": "geometric", "ratio": 0.5, "scale": float("nan")}, "a_spec.scale"),
    "infinite-value": ({"kind": "explicit", "values": [1.0] * 19 + [float("inf")]},
                       "a_spec.values[19]"),
    "ratio-above-one": ({"kind": "geometric", "ratio": 1.5}, "a_spec.ratio"),
}


@pytest.mark.parametrize("case", _NON_FINITE_A_SPECS)
def test_a_spectrum_that_is_not_finite_exits_validation_naming_its_key(case, tmp_path, capsys):
    a_spec, key = _NON_FINITE_A_SPECS[case]
    doc = dict(builtin_scenario("example3", n=20, trials=1).to_dict(), a_spec=a_spec)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))  # NaN and Infinity, as json.load reads them
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("validation failure: ") and repr(key) in line


def test_a_spectrum_whose_predicted_moments_overflow_exits_validation(tmp_path, capsys):
    # example1's A has blocks, so its predicted moments are analytic power
    # sums: scale**m / (1 - ratio**m), a float power beyond the float range
    doc = builtin_scenario("example1", n=20, trials=1).to_dict()
    doc["a_spec"]["scale"] = 1e200
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("validation failure: ") and "'a_spec.scale'" in line


@pytest.mark.parametrize("spectrum", ["geometric:1,nan,analytic", "geometric:1,nan,8",
                                      "geometric:nan,0.5,8", "geometric:inf,0.5,analytic"])
@pytest.mark.parametrize("command", ["oracle", "predict"])
def test_geometric_spectrum_that_is_not_finite_exits_validation(command, spectrum, tmp_path,
                                                                capsys):
    argv = ["--expr", "a1*b1 + b1*a1", "--tau-b", "1", "--tau-b2", "2"]
    if command == "oracle":
        argv += ["--a-model", spectrum, "--moments", "2"]
    else:
        argv += ["--spectrum", spectrum, "--out", str(tmp_path / "pred.json")]
    assert run_cli(command, *argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("validation failure: ") and "must be finite" in line
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("spectrum,tau_b,tau_b2", [
    ("explicit:nan;1", "1", "2"), ("explicit:inf;1", "1", "2"),
    ("geometric:1,0.5,8", "nan", "2"), ("geometric:1,0.5,8", "1", "inf"),
])
@pytest.mark.parametrize("command", ["oracle", "predict"])
def test_explicit_spectrum_or_state_value_that_is_not_finite_exits_validation(
        command, spectrum, tau_b, tau_b2, tmp_path, capsys):
    argv = ["--expr", "a1*b1 + b1*a1", "--tau-b", tau_b, "--tau-b2", tau_b2]
    if command == "oracle":
        argv += ["--a-model", spectrum, "--moments", "2"]
    else:
        argv += ["--spectrum", spectrum, "--out", str(tmp_path / "pred.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert run_cli(command, *argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("validation failure: ") and "must be finite" in line
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["predict", "simulate"])
def test_scenario_state_value_that_is_not_finite_exits_validation(command, tmp_path, capsys):
    doc = with_demo_b_state(builtin_scenario("example3", n=20, trials=1).to_dict())
    doc["prediction"]["b_state"]["moments"]["b1*b1"] = float("nan")
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))  # NaN, as json.load reads it
    out = tmp_path / "out"
    assert run_cli(command, "--scenario", str(scenario_path), "--out", str(out)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("validation failure: prediction 'b_state': ")
    assert "must be finite" in line and not out.exists()


def test_b_state_file_with_an_unknown_key_exits_validation(tmp_path, capsys):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"degree-cap": 1, "moments": {"b1*b1": 1.0}}))
    code = run_cli("predict", "--expr", "b1*a1*b1", "--spectrum", "geometric:1,0.5,8",
                   "--b-state", str(state), "--out", str(tmp_path / "pred.json"))
    assert code == 1
    assert "'degree-cap' is not a key of a moment table" in capsys.readouterr().err


def test_scenario_schema_mirrors_validation():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    )
    jsonschema.Draft202012Validator.check_schema(schema)
    # the rules fire as Scenario.validate does
    validator = jsonschema.Draft202012Validator(schema)
    doc = builtin_scenario("example1", n=40, trials=2).to_dict()
    for change in [
        {"a_spec": {"kind": "explicit", "values": [1.0] * 40, "blocks": [["a1"]]}},
        {"b_spec": [{"kind": "file", "path": "b.csv", "blocks": [["b1"]]}]},
        {"prediction": {}},
        {"n": 40.5},
        {"trials": "2"},
        *_UNKNOWN_KEYS.values(),
    ]:
        bad = dict(doc, **change)
        assert not validator.is_valid(bad)
        with pytest.raises(ValueError):
            rmtlab.Scenario.from_dict(bad)


@pytest.mark.parametrize("base,path,value", [
    pytest.param(base, path, value, id=path)
    for base, path, value in [
        ({}, "a_spec__scale", "1.0"),
        ({}, "a_spec__ratio", True),
        ({"a_spec": {"kind": "explicit", "values": [1.0] * 40}}, "a_spec__values__1", "2"),
        ({}, "name", 7),
        ({}, "expression", ["a1 + b1*a1*b1*a1*b1"]),
        ({"b_spec": [{"kind": "file", "path": "b.csv"}]}, "b_spec__0__path", 3),
        ({"b_spec": [{"kind": "gue_squared"}, {"kind": "copy_of", "index": 1}]},
         "b_spec__1__index", True),
        ({}, "a_spec__start_power", 1.5),
        ({"a_spec": {"kind": "explicit", "values": [1.0] * 40}}, "a_spec__values", "1.0"),
        ({}, "a_spec", ["geometric"]),
        ({}, "b_spec__0", "gue_squared"),
        ({}, "prediction", "sum_bab"),
        ({}, "haar_conjugate_b", "false"),
        ({}, "b_spec", None),
    ]
])
def test_scenario_schema_rejects_mistyped_fields_as_validation_does(base, path, value, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    ))
    doc = dict(with_demo_b_state(builtin_scenario("example3", n=40, trials=2).to_dict()), **base)
    assert validator.is_valid(doc)
    rmtlab.Scenario.from_dict(doc)
    # set the field named by path (keys and list positions joined by "__")
    bad = json.loads(json.dumps(doc))
    *keys, last = [int(k) if k.isdigit() else k for k in path.split("__")]
    target = bad
    for key in keys:
        target = target[key]
    target[last] = value
    assert not validator.is_valid(bad)
    key = re.sub(r"__(\d+)", r"[\1]", path).replace("__", ".")
    with pytest.raises(ValueError, match=re.escape(f"scenario {key!r} must be a")):
        rmtlab.Scenario.from_dict(bad)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(bad))
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")) == 1


@pytest.mark.parametrize("name,path,value,message", [
    pytest.param(name, path, value, message, id=case)
    for case, name, path, value, message in [
        ("moment-string", "example1", "moments__b1*b1", "1", "moment 'b1*b1' must be a number"),
        ("moment-bool", "example1", "moments__b1*b1", True, "moment 'b1*b1' must be a number"),
        ("moment-pair-string", "example1", "moments__b2*b2", [1.0, "0"],
         "moment 'b2*b2' must be a number"),
        ("moment-3-items", "example1", "moments__b2*b2", [1.0, 0.0, 0.0],
         "moment 'b2*b2' must be a number"),
        ("moments-array", "example1", "moments", [],
         "a moment table is an object with a 'moments' object"),
        ("degree_cap-fraction", "example1", "degree_cap", 1.5,
         "degree_cap must be an integer >= 1"),
        ("degree_cap-zero", "example1", "degree_cap", 0, "degree_cap must be an integer >= 1"),
        ("degree_cap-null", "example1", "degree_cap", None, "degree_cap must be an integer >= 1"),
        # example3's b_state, of the shape the sum_bab recipe took
        ("sum_bab-moment-string", "example3", "moments__b1*b1", "x",
         "moment 'b1*b1' must be a number"),
    ]
])
def test_b_state_schema_rejects_mistyped_moments_as_loading_does(name, path, value, message,
                                                                 tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    ))
    doc = with_demo_b_state(builtin_scenario(name, n=40, trials=2).to_dict())
    assert validator.is_valid(doc)
    rmtlab.Scenario.from_dict(doc)
    *keys, last = path.split("__")
    target = doc["prediction"]["b_state"]
    for key in keys:
        target = target[key]
    target[last] = value
    assert not validator.is_valid(doc)
    with pytest.raises(ValueError, match=re.escape(f"prediction 'b_state': {message}")):
        rmtlab.Scenario.from_dict(doc)
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc))
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")) == 1


# the values each scenario field is set to in turn; "gue" is a b_spec kind
_FIELD_VALUES = [None, True, False, 0, 1, 2, -1, 1.5, 2.0, "x", "1", [], [1], [1, 2], [[1.0]],
                 {}, {"k": 1}, "gue"]
_DELETED = object()


def _field_paths(value, path=()):
    """The key paths of every field in a JSON document, containers first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _field_paths(item, path + (key,))


def _with_field(doc: dict, path: tuple, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``, or deleted."""
    out = json.loads(json.dumps(doc))
    *keys, last = path
    target = out
    for key in keys:
        target = target[key]
    if value is _DELETED:
        del target[last]
    else:
        target[last] = value
    return out


@pytest.mark.parametrize("base,path,value,message", [
    pytest.param(base, path, value, message, id=case)
    for case, base, path, value, message in [
        ("geometric-without-ratio", {}, ("a_spec", "ratio"), _DELETED,
         "'a_spec' with kind 'geometric' needs the key 'ratio'"),
        ("explicit-without-values", {"a_spec": {"kind": "explicit", "values": [1.0] * 40}},
         ("a_spec", "values"), _DELETED, "'a_spec' with kind 'explicit' needs the key 'values'"),
        ("file-without-path", {"b_spec": [{"kind": "file", "path": "b.csv"}]},
         ("b_spec", 0, "path"), _DELETED, "'b_spec[0]' with kind 'file' needs the key 'path'"),
        ("negative-seed", {}, ("seed",), -1, "'seed' must be >= 0, not -1"),
    ]
])
def test_scenario_schema_rejects_missing_kind_keys_and_negative_seeds_as_validation_does(
        base, path, value, message, tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    ))
    doc = dict(with_demo_b_state(builtin_scenario("example3", n=40, trials=2).to_dict()), **base)
    assert validator.is_valid(doc)
    rmtlab.Scenario.from_dict(doc)
    bad = _with_field(doc, path, value)
    assert not validator.is_valid(bad)
    with pytest.raises(ValueError, match=re.escape(f"scenario {message}")):
        rmtlab.Scenario.from_dict(bad)
    # rejected before anything runs, with the key named, not as a KeyError or
    # numpy's error from the first trial
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(bad))
    capsys.readouterr()
    assert run_cli("simulate", "--scenario", str(scenario_path), "--out", str(tmp_path / "out")) == 1
    assert f"validation failure: scenario {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["example1", "example2", "example2-correlated", "example3"])
def test_scenario_validation_rejects_every_field_the_schema_rejects(name):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    ))
    doc = with_demo_b_state(builtin_scenario(name, n=24, trials=1).to_dict())
    accepted = []
    for path in _field_paths(doc):
        for value in _FIELD_VALUES + [_DELETED]:
            bad = _with_field(doc, path, value)
            if validator.is_valid(bad) or value is None and path in (("truncation",),
                                                                     ("prediction",)):
                continue  # a null truncation means "use n", a null prediction "derive it"
            try:
                rmtlab.Scenario.from_dict(bad)
            except (ValueError, KeyError):
                continue
            accepted.append((path, value))
    assert accepted == []


def _schema_keywords(node, skip=("blocks", "b_state")) -> set:
    """The keywords of a schema and its subschemas, outside the ``skip`` keys."""
    if isinstance(node, list):
        return set().union(*(_schema_keywords(item, skip) for item in node))
    if not isinstance(node, dict):
        return set()
    found = set(node)
    for key, sub in node.items():
        if key in ("properties", "$defs"):
            found |= _schema_keywords([s for name, s in sub.items() if name not in skip], skip)
        else:
            found |= _schema_keywords(sub, skip)
    return found


def test_scenario_schema_uses_only_the_keywords_validation_reads():
    schema = json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    )
    # a keyword Scenario.validate does not read fails here until it does
    assert _schema_keywords(schema) == {
        "$schema", "$id", "title", "$defs", "type", "enum", "const", "minimum",
        "minItems", "items", "properties", "required", "allOf", "if", "then",
        "additionalProperties",
    }


def test_copy_of_integral_float_index_runs_as_its_integer():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(json.loads(
        resources.files("cyclospec").joinpath("schemas/scenario.schema.json").read_text()
    ))
    doc = builtin_scenario("example2-correlated", n=24, trials=2).to_dict()
    assert doc["b_spec"][1] == {"kind": "copy_of", "index": 1}
    floated = json.loads(json.dumps(doc))
    floated["b_spec"][1]["index"] = 1.0
    assert validator.is_valid(floated)
    report = rmtlab.run_scenario(rmtlab.Scenario.from_dict(floated))
    assert report.trials == rmtlab.run_scenario(rmtlab.Scenario.from_dict(doc)).trials


def test_formula_demos(capsys):
    assert run_cli("demo", "anticommutator") == 0
    out = capsys.readouterr().out
    assert "PASS" not in out or True
    assert "worst relative difference" in out
    assert run_cli("demo", "commutator") == 0


@pytest.mark.parametrize("name", ["anticommutator", "commutator"])
@pytest.mark.parametrize("flag,value", [("--n", "0"), ("--trials", "3"), ("--seed", "1"),
                                        ("--out", "table")])
def test_formula_demos_refuse_scenario_flags(name, flag, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("demo", name, flag, value) == 1
    err = capsys.readouterr().err
    assert f"demo {name} takes no {flag}" in err
    assert list(tmp_path.iterdir()) == []


def test_scenario_demo_defaults(monkeypatch):
    # the scenario demos pass on only the flags given, so the demo file's n,
    # trials and seed hold where none is given
    calls = []

    def small_scenario(name, **kwargs):
        calls.append(kwargs)
        return builtin_scenario(name, n=20, trials=1)

    monkeypatch.setattr(cli, "builtin_scenario", small_scenario)
    monkeypatch.setattr(cli, "_write_simulation", lambda report, out_dir: calls.append(out_dir))
    run_cli("demo", "example3")
    run_cli("demo", "example3", "--n", "40", "--seed", "3", "--out", "there")
    assert calls == [{}, cli.Path("demo_example3"), {"n": 40, "seed": 3}, cli.Path("there")]
    shipped = json.loads(resources.files("cyclospec").joinpath("demos/example3.json").read_text())
    assert json.dumps(builtin_scenario("example3").to_dict(), sort_keys=True) == json.dumps(
        shipped, sort_keys=True)


def test_demo_small_run(tmp_path, capsys):
    # small-n smoke run of the simulation demo machinery; the tolerance gate
    # is calibrated for n=300, so only the plumbing is checked here
    code = run_cli("demo", "example2-correlated", "--n", "40", "--trials", "2",
                   "--out", str(tmp_path / "demo"))
    assert code in (0, 2)
    assert (tmp_path / "demo" / "report.json").exists()


def test_example1_demo_gates_each_moment(tmp_path, monkeypatch, capsys):
    argv = ("demo", "example1", "--n", "100", "--trials", "2")
    assert run_cli(*argv, "--out", str(tmp_path / "pass")) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[0] for row in rows] == ["1", "2", "3"]
    assert all(row.endswith(" PASS") for row in rows)
    monkeypatch.setitem(cli.DEMO_MOMENT_GATES, "example1", (0, 0, 0))
    assert run_cli(*argv, "--out", str(tmp_path / "fail")) == 2
    rows = capsys.readouterr().out.splitlines()[3:]
    assert len(rows) == 3 and all(row.endswith("<= 0 FAIL") for row in rows)


def test_oracle_with_moment_table_file(tmp_path, capsys):
    table = {"degree_cap": 2, "moments": {"b1": [1.0, 0.0], "b1*b1": [2.0, 0.0]}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code = run_cli(
        "oracle", "--expr", "a1*b1+b1*a1", "--moments", "2",
        "--a-model", "geometric:1,0.5,analytic", "--b-state", str(path),
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["moments"][1][0] == pytest.approx(8.0)


def test_predict_from_scenario_file(tmp_path):
    scenario = builtin_scenario("example3", n=40, trials=1)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    out = tmp_path / "pred.json"
    assert run_cli("predict", "--scenario", str(scen_path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["recipe"] == "polynomial"
    assert len(doc["eigenvalues"]) == 80


def test_predict_from_chain_scenario_file(tmp_path):
    scenario = builtin_scenario("example1", n=20, trials=1)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    out = tmp_path / "pred.json"
    assert run_cli("predict", "--scenario", str(scen_path), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["recipe"] == "polynomial"
    # a1's three generators sit on orthogonal blocks of 20: the realized size is 60
    assert doc["parameters"] == {"rows": ["b1"], "columns": ["b1'"], "dim": 2, "truncation": 60}
    assert len(doc["eigenvalues"]) == 2 * 60


def test_predict_scenario_with_complex_spectrum_exits_numerical(tmp_path, capsys):
    # b1 a b2 - b2 a b1 is not selfadjoint: with tau(b_i b_j) = delta_ij, the
    # law of example2's independent GUEs, its reduction is [[0, a], [-a, 0]],
    # whose eigenvalues are +-i a
    doc = dict(builtin_scenario("example2", n=20, trials=1).to_dict(),
               expression="b1*a1*b2 - b2*a1*b1")
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(doc))
    assert run_cli("predict", "--scenario", str(scen_path), "--out", str(tmp_path / "x")) == 2
    assert "imaginary parts; prediction refused" in capsys.readouterr().err


def test_predict_scenario_missing_recipe_key_exits_validation(tmp_path, capsys):
    doc = with_demo_b_state(builtin_scenario("example3", n=40, trials=1).to_dict())
    del doc["prediction"]["b_state"]
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(doc))
    assert run_cli("predict", "--scenario", str(scen_path), "--out", str(tmp_path / "x")) == 1
    assert "'prediction' needs the key 'b_state'" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--expr", "a1*b1 + b1*a1", "--tau-b", "1", "--tau-b2", "2"], "predict --expr needs --spectrum"),
    (["--expr", "i*(a1*b1 - b1*a1)", "--tau-b", "1", "--tau-b2", "2"],
     "predict --expr needs --spectrum"),
    (["--expr", "b1*a1*b1' + b2*a1*b2'", "--b-state", "state.json"],
     "predict --expr needs --spectrum"),
    (["--expr", "a1 + b1*a1*b1*a1*b1", "--spectrum", "geometric:1,0.5,8"],
     "predict --expr needs --b-state or --tau-b/--tau-b2"),
], ids=["anticommutator", "commutator", "sum_bac", "sum_bab"])
def test_predict_recipe_without_spectrum_exits_validation(tmp_path, capsys, flags, message):
    # an expression needs a spectrum and a state, and nothing is written without them
    assert run_cli("predict", *flags, "--out", str(tmp_path / "x")) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("flag,value", [
    ("--expr", "a1"), ("--spectrum", "geometric:1,0.5,8"), ("--b-state", "state.json"),
    ("--tau-b", "1"), ("--tau-b2", "2"), ("--truncation", "40"),
])
def test_predict_scenario_rejects_expression_flags(tmp_path, capsys, flag, value):
    scen_path = tmp_path / "scenario.json"
    builtin_scenario("example3", n=40, trials=1).save(scen_path)
    out = tmp_path / "pred.json"
    assert run_cli("predict", "--scenario", str(scen_path), flag, value, "--out", str(out)) == 1
    assert f"predict --scenario takes no {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [scen_path]


def test_predict_recipe_flags_match_scenario_prediction(tmp_path):
    # example3's a_spec is geometric with scale 1, ratio 1/2, start_power 1,
    # and its b_state holds tau(b) = 1, tau(b^2) = 2: the same expression on
    # the same inputs from the flags gives the same prediction, bitwise
    scenario = builtin_scenario("example3", n=40, trials=1)
    scen_path = tmp_path / "scenario.json"
    scenario.save(scen_path)
    assert run_cli("predict", "--scenario", str(scen_path),
                   "--out", str(tmp_path / "from_scenario.json")) == 0
    assert run_cli(
        "predict", "--expr", scenario.expression, "--spectrum", "geometric:0.5,0.5,40",
        "--tau-b", "1", "--tau-b2", "2", "--truncation", "40",
        "--out", str(tmp_path / "from_flags.json"),
    ) == 0
    from_flags = json.loads((tmp_path / "from_flags.json").read_text())
    from_scenario = json.loads((tmp_path / "from_scenario.json").read_text())
    assert from_flags["eigenvalues"] == from_scenario["eigenvalues"]
    assert from_flags["provenance"]["beta"] == from_scenario["provenance"]["beta"]
    assert (tmp_path / "from_flags.csv").read_bytes() == (
        tmp_path / "from_scenario.csv"
    ).read_bytes()


def test_demo_unknown_scenario_name_exits_validation(monkeypatch, capsys):
    # argparse only offers DEMO_NAMES; past it, a name with no shipped file
    # is a validation failure, not an I/O one
    monkeypatch.setattr(cli, "DEMO_NAMES", (*cli.DEMO_NAMES, "example4"))
    assert run_cli("demo", "example4", "--n", "20", "--trials", "1") == 1
    assert "unknown demo scenario 'example4'" in capsys.readouterr().err


@pytest.mark.parametrize("exc,code,prefix", [
    (errors.NotInDomainError("x"), 1, "validation failure: "),
    (errors.DegreeExceededError("x"), 1, "validation failure: "),
    (errors.DimensionMismatchError("x"), 1, "validation failure: "),
    (errors.NotSelfadjointError("x"), 2, "numerical failure: "),
    (errors.NotPositiveError("x"), 2, "numerical failure: "),
    (errors.ComplexEigenvaluesError("x"), 2, "numerical failure: "),
    (errors.InsufficientEntriesError("x"), 2, "numerical failure: "),
    (ValueError("x"), 1, "validation failure: "),
    (KeyError("x"), 1, "validation failure: "),
    (ncalg.ExpressionSyntaxError("x", 0), 1, "validation failure: "),
    (ncalg.UnknownSymbolError("x", 0), 1, "validation failure: "),
    (ncalg.EmptyInputError(), 1, "validation failure: "),
    (OSError("x"), 3, "i/o failure: "),
    (json.JSONDecodeError("x", "", 0), 3, "i/o failure: "),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exit_code_of_each_error_class(exc, code, prefix, monkeypatch, capsys):
    # a JSONDecodeError is a ValueError, yet an i/o failure
    def fail(*args):
        raise exc

    monkeypatch.setattr(cli, "poly_moment", fail)
    assert run_cli("oracle", "--expr", "a1", "--a-model", "geometric:1,0.5,8",
                   "--tau-b", "1") == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(prefix)
