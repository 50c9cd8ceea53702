"""Print, per function of the package, the statements that no tier-1 test
runs, and check that every refusal is tested.

    python tests/print_unexecuted.py [pytest argument ...]

Runs the tier-1 suite in this process (``pytest -q`` over ``tests/``, or
the given arguments) under ``sys.settrace`` and ``threading.settrace``,
then reads every function and method of ``src/cyclospec/*.py`` with ``ast``
and prints the line of each of its statements that never ran, ``raise``
statements marked, and ``(never called)`` for a function none of whose
statements ran.  A compound statement counts as run when its header does
(a ``try:`` is not a statement of its own), a nested function's statements
are its own, and module-level statements, which run on import, are left
out.

It exits with pytest's code if a test fails, and otherwise 1 when a
function outside ``ALLOWED`` holds a ``raise`` that never ran, or when
every ``raise`` of a function in ``ALLOWED`` ran; each such function is
named on a last ``FAIL`` line.  With pytest arguments that select fewer
tests than the tier-1 suite, expect that check to fail.  It needs the
standard library and pytest only, and takes about two and a half times
the suite's own wall time (140 s against 57 s on a 2-vCPU x86 host).
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclospec"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the functions whose raise no test runs, and why none can
ALLOWED = {
    "cmcalc.Spectrum.eigenvalues": "abstract: every spectrum overrides it",
    "cmcalc.Spectrum.power_sum": "abstract: every spectrum overrides it",
    "cmcalc.TracialState.tau": "abstract: every state overrides it",
    "cmcalc.TraceClassModel.omega": "abstract: every weight model overrides it",
    "cmcalc.TraceClassModel.diagonal": "abstract: every weight model overrides it",
    "ensembles._lapack.call": "LAPACK's QR routines return a nonzero info only for an "
                              "invalid argument, and sample_haar_unitary passes none",
}


def _trace(run: dict):
    """A global trace function that records the lines run in ``run``'s files."""
    def trace(frame, event, arg):
        lines = run.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        lines.add(frame.f_lineno)
        return local
    return trace


def _statements(body):
    """``(statement, header lines)`` of the statements in ``body`` and in
    their blocks, not in a nested function or class."""
    for node in body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node, range(first, node.lineno + 1)
            continue
        blocks = [getattr(node, name) for name in ("body", "orelse", "finalbody")
                  if getattr(node, name, None)]
        blocks += [handler.body for handler in getattr(node, "handlers", [])]
        blocks += [case.body for case in getattr(node, "cases", [])]
        if not blocks:
            yield node, range(node.lineno, node.end_lineno + 1)
            continue
        if not isinstance(node, ast.Try):
            yield node, range(node.lineno, node.body[0].lineno)
        for block in blocks:
            yield from _statements(block)


def _functions(tree, prefix=""):
    """``(qualified name, function)`` of every function and method in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, FUNCTIONS):
            yield prefix + node.name, node
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        else:
            yield from _functions(node, prefix)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    files = sorted(PACKAGE.glob("*.py"))
    run = {str(path): set() for path in files}
    threading.settrace(_trace(run))
    sys.settrace(_trace(run))
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    unrun_raises = set()
    for path in files:
        lines = run[str(path)]
        for name, function in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            body = function.body
            if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]  # the docstring
            statements = list(_statements(body))
            missed = [(node, header) for node, header in statements
                      if not lines.intersection(header)]
            if not missed:
                continue
            marks = [f"{header[0]}{' raise' if isinstance(node, ast.Raise) else ''}"
                     for node, header in missed]
            never = " (never called)" if len(missed) == len(statements) else ""
            print(f"{path.stem}.{name}{never}: {', '.join(marks)}")
            if any(isinstance(node, ast.Raise) for node, _ in missed):
                unrun_raises.add(f"{path.stem}.{name}")
    failures = [f"{name}: a raise that no test runs" for name in sorted(unrun_raises - ALLOWED.keys())]
    failures += [f"{name}: allowed an untested raise, but every raise runs"
                 for name in sorted(ALLOWED.keys() - unrun_raises)]
    for failure in failures:
        print(f"FAIL {failure}")
    return code or int(bool(failures))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
