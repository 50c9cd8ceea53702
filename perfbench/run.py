"""Outside-in benchmark of cyclospec: the oracle, recipe and scenario layers.

Run from the root of a checkout; the package is imported from ``src/``.

    python3 perfbench/run.py --workload oracle-chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all        # every workload untraced, one table each
    python3 perfbench/run.py --baseline   # labelled per-case rows and tracer check

One run builds its case list from ``--seed`` and ``--seconds`` (whole passes,
see ``cases.PASS_SECONDS``), runs each case once and checks it against an
independent reference.  Every pass holds cases of the same shapes, so the
timings are medians over the passes: a burst of load on a shared host slows
some passes of a run, not the median.

A shared host also changes speed for minutes at a time, by up to 1.6x on
interpreted code.  So in the workloads that run in the interpreter a fixed
interpreter-bound reference loop (``REFERENCES``) is timed between the cases,
and each pass's case times are reported at the loop's nominal speed: measured
time / (the loop's median time in that pass / its nominal time).  The raw
times are printed beside them; set-up time is raw.

The last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``; with ``--trace 1`` the per-layer metrics, from the same
cases run once untraced and once traced.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-chains", "recipes-small", "scenarios")
SETUP_PROBES = 5  # extra set-ups in fresh processes; setup_s is the median of all
CRITERION3_SEED = 3030
CRITERION3_CHAINS = 100
CRITERION3_COUNTS = {"cmcalc.cm_moment.calls": 100_631, "ncalg.rotation_classes": 51_560}
# The reference loop runs at the start of every pass and between cases at most
# this often.
REFERENCE_EVERY_S = 0.5


def import_cyclospec():
    """Put the checkout's ``src`` first on the path and import the package from it."""
    if not (SRC / "cyclospec" / "__init__.py").is_file():
        raise ImportError(f"no cyclospec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cyclospec

    if Path(cyclospec.__file__).resolve().parent != (SRC / "cyclospec").resolve():
        raise ImportError(f"cyclospec was imported from {cyclospec.__file__}, not {SRC}")
    return cyclospec


def environment(load_start) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = {"blas": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "CYCLOSPEC_THREADS": os.environ.get("CYCLOSPEC_THREADS", "unset"),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def interpreter_reference() -> float:
    """One run of fixed dict, tuple and complex work, like the oracle's but
    independent of the package, as a multiple of its nominal 25 ms (a round
    figure for a 2-vCPU x86 VM).  The collector is off, so that the time does
    not depend on how many objects the program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = {}
    for i in range(20_000):
        key = (i * 7 % 1009, i * 13 % 17, i % 5)
        acc[key] = acc.get(key, 0) + complex(i, 1) * 0.5
    sum(abs(v) for v in acc.values())
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed / 0.025


# The reference loop of each workload whose cases spend their time in the
# interpreter.  Scenarios spends its time in LAPACK and BLAS, which the host's
# slow spells touch far less; there a LAPACK loop of the same kind left the
# spread of the times no smaller, so its times are reported raw.
REFERENCES = {
    "oracle-chains": interpreter_reference,
    "recipes-small": interpreter_reference,
}


def run_passes(pass_iter, tracer=None, reference=None) -> dict:
    """Run each case once; only ``case.run`` is timed, and input generation is
    timed apart as set-up.  ``times`` holds one list of case times per pass and,
    given a ``reference`` loop, ``slowness`` one list of its results per pass."""
    times, refs, failures, infos = [], [], [], []
    generation_s = cpu_s = 0.0
    while True:
        start = time.perf_counter()
        case_list = next(pass_iter, None)
        generation_s += time.perf_counter() - start
        if case_list is None:
            break
        times.append([])
        refs.append([])
        last_ref = -REFERENCE_EVERY_S
        for case in case_list:
            if reference is not None and time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs[-1].append(reference())
                last_ref = time.perf_counter()
            scope = tracer.case() if tracer is not None else contextlib.nullcontext()
            error = None
            with scope:
                cpu_start, start = time.process_time(), time.perf_counter()
                try:
                    out = case.run()
                except Exception as exc:  # a failing case is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                times[-1].append(time.perf_counter() - start)
                cpu_s += time.process_time() - cpu_start
            if error is None:
                ok, info = case.check(out)
                if info is not None:
                    infos.append(info)
                if not ok:
                    error = "reference check failed"
            if error is not None:
                failures.append(f"{case.kind}: {error}")
    return {"times": times, "slowness": refs, "failures": failures, "infos": infos,
            "generation_s": generation_s, "cpu_s": cpu_s}


def tail(times) -> tuple[float, float, int]:
    """The highest percentile with at least ten cases beyond it: (value, percentile, cases beyond).

    With ten cases or fewer no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def per_case_medians(times) -> list[float]:
    """Each case's time, as its median over the passes (case i of every pass has one shape)."""
    return [statistics.median(case) for case in zip(*times)]


def timing_metrics(times) -> tuple[dict, float, int]:
    """wall_s, case_p50_ms and case_tail_ms from per-pass case times, with the
    tail's percentile and the number of cases beyond it."""
    cases_s = per_case_medians(times)
    p_tail, pct, beyond = tail(cases_s)
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in times), "s"),
        "case_p50_ms": (statistics.median(cases_s) * 1e3, "ms"),
        "case_tail_ms": (p_tail * 1e3, "ms"),
    }
    return metrics, pct, beyond


def probe_setup(workload, seed, seconds) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, started) -> dict:
    """One benchmark run; ``started`` is the perf_counter value before set-up began."""
    import cases

    load_start = os.getloadavg()
    if not trace:
        imported = time.perf_counter() - started
        probes = [probe_setup(workload, seed, seconds) for _ in range(SETUP_PROBES)]
        reference = REFERENCES.get(workload)
        if reference is not None:
            reference()  # warm-up: the first call pays one-time costs
        res = run_passes(cases.passes(workload, seed, seconds), reference=reference)
        setups = [imported + res["generation_s"]] + probes
        # each pass at the nominal speed of the reference loop run during it
        slowness = [statistics.median(r) if r else 1.0 for r in res["slowness"]]
        scaled = [[t / v for t in p] for p, v in zip(res["times"], slowness)]
        metrics, pct, beyond = timing_metrics(scaled)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        raw = {name: value for name, (value, _) in timing_metrics(res["times"])[0].items()}
        notes = {"tail_percentile": pct, "cases_beyond_tail": beyond,
                 "passes": len(res["times"]), "cases_per_pass": len(res["times"][0]),
                 "setup_samples_s": setups, "raw": raw}
        if reference is not None:
            notes["slowness"] = slowness
        runs = [res]
    else:
        import tracer as tracing

        # the same cases twice, from one seed; no model object is shared between the halves
        res_plain = run_passes(cases.passes(workload, seed, seconds / 2))
        # generated before the wrappers go in, so input generation is never traced
        traced_passes = list(cases.passes(workload, seed, seconds / 2))
        tr = tracing.Tracer()
        with tr.installed():
            res_traced = run_passes(iter(traced_passes), tr)
        wall_plain, wall_traced = (sum(map(sum, r["times"])) for r in (res_plain, res_traced))
        metrics = tr.metrics()
        metrics["process.cpu_s"] = (res_plain["cpu_s"], "s")
        metrics["process.wall_s"] = (wall_plain, "s")
        metrics["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
        notes = {}
        runs = [res_plain, res_traced]
    attempted = sum(len(p) for r in runs for p in r["times"])
    failures = [f for r in runs for f in r["failures"]]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": attempted, "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": failures[:10],
        "metrics": metrics, "notes": notes,
        "infos": [i for r in runs for i in r["infos"]],
        "env": environment(load_start),
    }


def print_run(result) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"cases {result['attempted']}")
    notes = result["notes"]
    for name, (value, unit) in result["metrics"].items():
        extra = ""
        if name == "wall_s":
            extra = f"  (one pass of {notes['cases_per_pass']} cases, median of {notes['passes']})"
        elif name == "case_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:.1f} of the {notes['cases_per_pass']} "
                     f"per-case medians, {notes['cases_beyond_tail']} cases beyond)")
        elif name == "setup_s":
            samples = ", ".join(f"{v:.3f}" for v in notes["setup_samples_s"])
            extra = f"  (median of {samples})"
        if name in notes.get("raw", {}):
            extra = f"  raw {notes['raw'][name]:.6g} {unit}{extra}"
        print(f"  {name:<38} {value:>14.6g} {unit}{extra}")
    if "slowness" in notes:
        per_pass = ", ".join(f"{v:.3f}" for v in notes["slowness"])
        print(f"  {'reference loop / nominal, per pass':<38} {per_pass}")
    print(f"  {'error_rate':<38} {result['error_rate']:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} cases failed)")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    for info in result["infos"]:
        print(f"  case: {json.dumps(info, sort_keys=True)}")
    print(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }
    print(json.dumps(summary))


def criterion3_chains():
    import numpy as np

    import cases

    rng = np.random.default_rng(CRITERION3_SEED)
    return [cases.chain_instance(rng) for _ in range(CRITERION3_CHAINS)]


def criterion3_counts() -> dict:
    """Tracer counts over the unreduced oracle path of the criterion-3 chains."""
    import cyclospec as cs
    import tracer as tracing

    tr = tracing.Tracer()
    chains = criterion3_chains()
    with tr.installed():
        for inst in chains:
            with tr.case():
                cs.chain_moment_unreduced(inst["chain"], inst["m"], inst["a_model"], inst["b_state"])
    metrics = tr.metrics()
    return {name: metrics[name][0] for name in CRITERION3_COUNTS}


def baseline() -> int:
    """Per-case rows comparable with the ROADMAP baseline, then the tracer count check."""
    import cyclospec as cs

    chains = criterion3_chains()
    for label, fn, reference in (
        ("criterion 3, reduced path, 100 chains", cs.chain_moment, 3.5),
        ("criterion 3, unreduced oracle path, 100 chains", cs.chain_moment_unreduced, 8.8),
    ):
        start = time.perf_counter()
        for inst in chains:
            fn(inst["chain"], inst["m"], inst["a_model"], inst["b_state"])
        print(f"{label:<50} {time.perf_counter() - start:8.3f} s  (baseline {reference} s)")
    for name, n, reference in (("example1", 300, 2.75), ("example3", 600, 4.4)):
        scenario = cs.builtin_scenario(name, n=n, trials=5)
        start = time.perf_counter()
        cs.run_scenario(scenario)
        label = f"run_scenario {name}, n={n}, 5 trials"
        print(f"{label:<50} {time.perf_counter() - start:8.3f} s  (baseline {reference} s)")

    ok = True
    for name, value in criterion3_counts().items():
        ok &= value == CRITERION3_COUNTS[name]
        print(f"tracer check {name}: {value} (expected {CRITERION3_COUNTS[name]})")
    return 0 if ok else 1


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--baseline", action="store_true", help="labelled baseline rows")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # the runner's optional trial pool stays off, so every run measures one configuration
    os.environ.pop("CYCLOSPEC_THREADS", None)
    try:
        import_cyclospec()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.all:
        status = 0
        for workload in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            status |= subprocess.run(cmd).returncode
        return status
    if args.baseline:
        return baseline()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        import cases

        for _ in cases.passes(args.workload, args.seed, args.seconds):
            pass
        print(time.perf_counter() - started)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace, started)
    print_run(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
