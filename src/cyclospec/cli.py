"""Command-line surface: predictions, the moment oracle, simulations, comparisons.

Exit codes: 0 success, 1 validation failure (bad expressions, unknown
generators, out-of-domain words, malformed scenarios, reports or matrix CSVs,
an oracle moment that is not finite, a prediction whose A (beta x I)
overflows), 2 numerical or tolerance failure
(Hermiticity gate, refused predictions, comparison beyond tolerance), 3 I/O
failure. ``main`` dispatches on the error class: ``OSError`` and
``json.JSONDecodeError`` exit 3, the ``DomainError`` subclasses of
``_NUMERICAL_ERRORS`` exit 2, and every other ``DomainError``, ``ValueError``
or ``KeyError`` exits 1. A tolerance failure is the command's return value.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cmcalc import (
    DEFAULT_TRUNCATION,
    ExplicitSpectrum,
    GeometricSpectrum,
    MomentTable,
    SpectrumFamily,
    poly_moment,
)
from .errors import (
    ComplexEigenvaluesError,
    DomainError,
    InsufficientEntriesError,
    NotPositiveError,
    NotSelfadjointError,
)
from .linred import ev_anticommutator, ev_commutator, ev_polynomial
from .ncalg import auto_symbols, parse_expression
from .rmtlab import (
    Report,
    Scenario,
    _save_json,
    build_prediction,
    builtin_scenario,
    run_scenario,
)
from .spectra import EVMultiset, match_distance, multiset_moment, relative_error

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# the DomainErrors that exit 2; every other one exits 1
_NUMERICAL_ERRORS = (
    NotSelfadjointError,
    NotPositiveError,
    ComplexEigenvaluesError,
    InsufficientEntriesError,
)

# Acceptance-style gates used by `demo`; example1 gates on trace moments.
DEMO_MOMENT_GATES = {"example1": (0.08, 0.08, 0.12)}
DEMO_MATCH_GATES = {"example2": 0.15, "example2-correlated": 0.15, "example3": 0.10}
# the degree-2 closed forms `demo` checks against the oracle: name -> (expression, recipe)
_FORMULA_DEMOS = {
    "anticommutator": ("a1*b1 + b1*a1", ev_anticommutator),
    "commutator": ("i*(a1*b1 - b1*a1)", ev_commutator),
}
DEMO_NAMES = (*DEMO_MOMENT_GATES, *DEMO_MATCH_GATES, *_FORMULA_DEMOS)


def _parse_spectrum(text: str):
    """``geometric:scale,ratio,count`` (count int or ``analytic``) or ``explicit:v1;v2``."""
    kind, _, rest = text.partition(":")
    if kind == "geometric":
        parts = rest.split(",")
        if len(parts) not in (2, 3):
            raise ValueError("geometric spectrum needs scale,ratio[,count]")
        scale, ratio = float(parts[0]), float(parts[1])
        count: int | None = DEFAULT_TRUNCATION
        if len(parts) == 3:
            count = None if parts[2] == "analytic" else int(parts[2])
        return GeometricSpectrum(scale, ratio, count=count)
    if kind == "explicit":
        return ExplicitSpectrum([float(v) for v in rest.split(";") if v])
    raise ValueError(f"unknown spectrum kind {kind!r}")


def _write_prediction(pred, out: str) -> list[str]:
    json_path = Path(out).with_suffix(".json")
    csv_path = json_path.with_suffix(".csv")
    json_path.parent.mkdir(parents=True, exist_ok=True)
    _save_json(pred.to_json_dict(), json_path)
    pred.multiset.to_csv(csv_path)
    return [str(json_path), str(csv_path)]


def _expression_inputs(args, spectrum: str):
    """``(poly, a_model, b_state)`` of ``--expr``: every A generator has the
    ``spectrum``, and the B state is ``--b-state`` or the ``--tau-b``/``--tau-b2`` powers."""
    poly = parse_expression(args.expr, auto_symbols(args.expr))
    spec = _parse_spectrum(spectrum)
    a_indices = sorted({letter.index for word in poly.terms for letter in word
                        if letter.family == "a"})
    a_model = SpectrumFamily({i: spec for i in a_indices} or {1: spec})
    if args.b_state:
        return poly, a_model, MomentTable.from_json(args.b_state)
    powers = {m: value for m, value in ((1, args.tau_b), (2, args.tau_b2)) if value is not None}
    if not powers:
        raise ValueError(f"{args.command} --expr needs --b-state or --tau-b/--tau-b2")
    return poly, a_model, MomentTable.from_b_powers(powers)


def _cmd_predict(args) -> int:
    if args.scenario:
        for flag in ("expr", "spectrum", "b_state", "tau_b", "tau_b2", "truncation"):
            if getattr(args, flag) is not None:
                raise ValueError(f"predict --scenario takes no --{flag.replace('_', '-')}")
        pred = build_prediction(Scenario.from_json(args.scenario))
    else:
        if not args.expr:
            raise ValueError("predict needs --scenario or --expr")
        if not args.spectrum:
            raise ValueError("predict --expr needs --spectrum")
        poly, a_model, b_state = _expression_inputs(args, args.spectrum)
        pred = ev_polynomial(poly, a_model, b_state, args.truncation)
    paths = _write_prediction(pred, args.out)
    print(json.dumps({"written": paths, "recipe": pred.recipe,
                      "provenance": pred.to_json_dict()["provenance"]}, sort_keys=True))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.moments < 1:
        raise ValueError(f"oracle --moments must be >= 1, not {args.moments}")
    poly, a_model, b_state = _expression_inputs(args, args.a_model)
    values = []
    for m in range(1, args.moments + 1):
        value = poly_moment(poly, m, a_model, b_state)
        if not np.isfinite(value):
            raise ValueError(f"oracle moment {m} is {value}, not finite: --a-model "
                             f"{args.a_model} or the B state overflows")
        values.append([value.real, value.imag])
    print(json.dumps({"expression": args.expr, "moments": values}, sort_keys=True))
    return EXIT_OK


def _write_simulation(report: Report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report.save(out_dir / "report.json")
    EVMultiset(report.prediction["eigenvalues"]).to_csv(out_dir / "prediction.csv")
    for rec in report.trials:
        EVMultiset(rec["eigenvalues"]).to_csv(
            out_dir / f"trial_{rec['trial']:02d}_eigenvalues.csv"
        )
    top = max(report.scenario["compare_top"], 15)
    first = report.trials[0]
    reference = report.prediction["eigenvalues"]
    rows = min(top, len(first["eigenvalues"]), len(reference))
    with open(out_dir / "plot_data.csv", "w", encoding="utf-8") as fh:
        fh.write("rank,empirical,predicted\n")
        for r in range(rows):
            fh.write(f"{r + 1},{first['eigenvalues'][r]!r},{reference[r]!r}\n")


def _cmd_simulate(args) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):  # anything else is refused by from_dict
        doc.update((key, value) for key, value in (("trials", args.trials), ("seed", args.seed))
                   if value is not None)
    report = run_scenario(Scenario.from_dict(doc))
    _write_simulation(report, Path(args.out))
    print(json.dumps({"out": args.out, "summary": report.summary}, sort_keys=True))
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.top < 1:  # no eigenvalue compared would pass any tolerance
        raise ValueError(f"compare --top must be >= 1, not {args.top}")
    if not 0 <= args.tol_rel < float("inf"):  # NaN, inf or < 0 would decide the verdict alone
        raise ValueError(f"compare --tol-rel must be finite and >= 0, not {args.tol_rel}")
    report = Report.from_json(args.report)
    if not report.trials:  # a mean over no trial would pass any tolerance
        raise ValueError(f"report {args.report} holds no trials to compare")
    reference, rels, signed = EVMultiset(report.prediction["eigenvalues"]), [], []
    print(f"{'trial':>5}  {'max_abs':>12}  {'max_rel':>12}  {'signed_max_rel':>14}")
    for rec in report.trials:
        row = match_distance(EVMultiset(rec["eigenvalues"]), reference, args.top)
        rels.append(row["max_rel"])
        signed.append(row["signed_max_rel"])
        print(f"{rec['trial']:>5}  {row['max_abs']:>12.6g}  {rels[-1]:>12.6g}  {signed[-1]:>14.6g}")
    mean_rel = float(np.mean(rels))
    print(f"mean signed_max_rel over trials: {float(np.mean(signed)):.6g}  (not gated)")
    verdict = "PASS" if mean_rel <= args.tol_rel else "FAIL"
    print(f"mean max_rel over trials: {mean_rel:.6g}  (tolerance {args.tol_rel:g})  {verdict}")
    return EXIT_OK if mean_rel <= args.tol_rel else EXIT_NUMERICAL


def _formula_demo(name: str) -> int:
    """Oracle-vs-formula equivalence table for the degree-2 closed forms."""
    tau_b, tau_b2 = 1.0, 2.0
    spectrum = GeometricSpectrum(1.0, 0.5, count=DEFAULT_TRUNCATION)
    family = SpectrumFamily({1: spectrum})
    table = MomentTable.from_b_powers({1: tau_b, 2: tau_b2})
    expression, recipe = _FORMULA_DEMOS[name]
    poly = parse_expression(expression, auto_symbols(expression))
    pred = recipe(spectrum, tau_b, tau_b2)
    print(f"demo {name}: tau(b) = {tau_b}, tau(b^2) = {tau_b2}, "
          f"provenance {pred.to_json_dict()['provenance']}")
    print(f"{'m':>2}  {'oracle':>20}  {'formula':>20}  {'rel diff':>10}")
    worst = 0.0
    for m in range(1, 7):
        oracle = poly_moment(poly, m, family, table).real
        formula = multiset_moment(pred.multiset, m)
        rel = relative_error(formula, oracle)
        worst = max(worst, rel)
        print(f"{m:>2}  {oracle:>20.12g}  {formula:>20.12g}  {rel:>10.3g}")
    print(f"worst relative difference: {worst:.3g} (tolerance 1e-09)")
    return EXIT_OK if worst <= 1e-9 else EXIT_NUMERICAL


def _cmd_demo(args) -> int:
    name = args.name
    given = {key: getattr(args, key) for key in ("n", "trials", "seed", "out")
             if getattr(args, key) is not None}
    if name in _FORMULA_DEMOS:
        if given:
            raise ValueError(f"demo {name} takes no --{next(iter(given))}")
        return _formula_demo(name)
    out_dir = Path(given.pop("out", None) or f"demo_{name}")
    scenario = builtin_scenario(name, **given)  # the demo file's n, trials and seed unless given
    report = run_scenario(scenario)
    _write_simulation(report, out_dir)
    print(f"demo {name}: n={scenario.n}, trials={scenario.trials}, seed={scenario.seed}")
    print(f"report written to {out_dir}")
    if name in DEMO_MOMENT_GATES:
        gates = DEMO_MOMENT_GATES[name]
        errs = report.summary["moment_rel_err_vs_prediction"]
        print(f"{'k':>2}  {'empirical mean':>16}  {'predicted':>16}  {'rel err':>9}  gate")
        passed = [errs[k] <= gates[k] for k in range(3)]
        for k in range(3):
            print(f"{k + 1:>2}  {report.summary['moments_mean'][k]:>16.6g}  "
                  f"{report.prediction['moments'][k]:>16.6g}  {errs[k]:>9.3g}  "
                  f"<= {gates[k]:g} {'PASS' if passed[k] else 'FAIL'}")
        return EXIT_OK if all(passed) else EXIT_NUMERICAL
    tol = DEMO_MATCH_GATES[name]
    mean_rel = report.summary["match_mean_max_rel"]
    for rec in report.trials:
        print(f"trial {rec['trial']}: top-{scenario.compare_top} max_rel = "
              f"{rec['match']['max_rel']:.4g}")
    verdict = "PASS" if mean_rel <= tol else "FAIL"
    print(f"mean max_rel = {mean_rel:.4g}  (tolerance {tol:g})  {verdict}")
    return EXIT_OK if mean_rel <= tol else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclospec",
        description="Eigenvalue-multiset predictions, the moment oracle, and "
        "random-matrix experiments for cyclically monotone families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="compute an eigenvalue-multiset prediction")
    p.add_argument("--scenario", help="scenario JSON file whose expression is predicted")
    p.add_argument("--expr", help="expression to predict, instead of --scenario")
    p.add_argument("--spectrum", help="geometric:scale,ratio[,count|analytic] or explicit:v1;v2")
    p.add_argument("--b-state", dest="b_state", help="moment-table JSON file")
    p.add_argument("--tau-b", type=float, default=None, dest="tau_b")
    p.add_argument("--tau-b2", type=float, default=None, dest="tau_b2")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--out", required=True, help="output path (JSON; CSV written alongside)")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("oracle", help="brute-force moments of an expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--moments", type=int, default=3)
    p.add_argument("--a-model", required=True, dest="a_model",
                   help="spectrum spec, e.g. geometric:1,0.5,64")
    p.add_argument("--b-state", dest="b_state", help="moment-table JSON file")
    p.add_argument("--tau-b", type=float, default=None, dest="tau_b")
    p.add_argument("--tau-b2", type=float, default=None, dest="tau_b2")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("simulate", help="run a scenario and write its report")
    p.add_argument("--scenario", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="gate a report on its top-M relative match")
    p.add_argument("--report", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--tol-rel", type=float, required=True, dest="tol_rel")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("demo", help="run a built-in experiment with pinned defaults")
    p.add_argument("name", choices=DEMO_NAMES)
    p.add_argument("--n", type=int, default=None, help="dimension (default: the demo file's)")
    p.add_argument("--trials", type=int, default=None, help="trials (default: the demo file's)")
    p.add_argument("--seed", type=int, default=None, help="seed (default: the demo file's)")
    p.add_argument("--out", default=None, help="output directory (default demo_<name>)")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, ValueError, KeyError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
