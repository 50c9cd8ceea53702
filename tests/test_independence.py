"""The two checks of the closed forms share no logic with them, and the
package holds no code that its entry points do not reach.

The predictions (``linred.ev_*`` and ``ev_polynomial``, through the
reduction) are checked against the moment oracle (``cmcalc``) and against
random-matrix trials (``rmtlab._trial_matrix``).  A check that reached the
reduction would agree with it by construction.  The checks may share
matrix-product primitives (``cyclospec.dense``), but the oracle needs none.

Every top-level function, class and method is reached from ``cli.main`` or
from a name that ``cyclospec/__init__.py`` exports, except the few listed
in ``UNREACHED``, each with its reason.  Code that only tests call belongs
in the tests.

The call graph is name-level, built with ``ast``: each function, method or
class name, and each name a module-level assignment binds, maps to every
name its body (or assigned value) refers to, and definitions of one name
merge.  A method call ``x.f()`` so reaches every ``f`` of the package.
Annotations are left out (they are never evaluated), and so are a class's
plain methods, which only such calls reach.  A class reaches its dunder
methods, its constructors among them; every function reaches the other
dunder methods, since operators call them unnamed.
The graph over-approximates otherwise: a test here can fail on a name
clash, but it cannot miss a call made by name.
"""

import ast
from importlib.util import find_spec
from pathlib import Path

import pytest

# the package's source, read without importing it
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(Path(find_spec("cyclospec").origin).parent.glob("*.py"))}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _refs(node):
    """The names that ``node``'s children refer to, as described above."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.arg) or child is getattr(node, "returns", None) or (
                isinstance(node, ast.AnnAssign) and child is node.annotation):
            continue
        if isinstance(child, DEFINITIONS):
            if not isinstance(node, ast.ClassDef) or _dunder(child.name):
                yield child.name
            continue  # its body is its own node's
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        yield from _refs(child)


GRAPH: dict[str, set] = {}
for _tree in TREES.values():
    for _node in ast.walk(_tree):
        if isinstance(_node, DEFINITIONS):
            GRAPH.setdefault(_node.name, set()).update(_refs(_node))
    for _node in _tree.body:  # a module-level table of functions, such as cli's demos
        if isinstance(_node, (ast.Assign, ast.AnnAssign)):
            for _target in _node.targets if isinstance(_node, ast.Assign) else [_node.target]:
                if isinstance(_target, ast.Name):
                    GRAPH.setdefault(_target.id, set()).update(_refs(_node))
CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}
REDUCTION = {"_reduce", "_reduction_spectrum", "_stack_spectrum", "reduce_b_matrix"} | {
    name for name in GRAPH if name.startswith("ev_")}
DENSE = {node.name for node in TREES["dense"].body if isinstance(node, DEFINITIONS)}


def _reach(*starts: str) -> set:
    seen = set(starts) | {name for name in GRAPH if _dunder(name)} - CONSTRUCTORS
    todo = list(seen)
    while todo:
        for name in GRAPH.get(todo.pop(), ()):
            if name in GRAPH and name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def test_the_trials_reach_no_reduction():
    reached = _reach("_trial_matrix")
    assert {"_consume_polynomial", "sample_gue", "sample_haar_unitary"} <= reached
    assert not reached & REDUCTION


@pytest.mark.parametrize("entry", ["cm_moment", "poly_moment", "chain_moment_unreduced"])
def test_the_oracle_reaches_no_reduction_and_no_dense_evaluation(entry):
    reached = _reach(entry)
    assert "omega" in reached and "tau" in reached
    assert not reached & REDUCTION
    assert not reached & DENSE


def test_the_dense_evaluator_imports_nothing_it_is_checked_with():
    imported = set()
    for node in ast.walk(TREES["dense"]):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            imported.update(name.rsplit(".", 1)[-1] for name in names)
    assert {"errors", "ncalg"} <= imported
    assert not imported & {"cmcalc", "linred", "rmtlab"}


EXPORTS = {alias.name for node in TREES["__init__"].body if isinstance(node, ast.ImportFrom)
           for alias in node.names}
# qualified name -> why it stays though neither cli.main nor an export reaches it
UNREACHED = {
    "dense.dense_polynomial": "the read-only reference the trial evaluator is tested against",
    "rmtlab.save_matrix_csv": "writes the file-B matrix format, for CI's file-B scenario",
    "ncalg.NCPolynomial.zero": "perfbench/cases.py builds its polynomials from it",
}


def _definitions():
    """``(qualified name, name)`` of every top-level function and class, and
    of every method."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                yield f"{module}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from ((f"{module}.{node.name}.{child.name}", child.name)
                                for child in node.body if isinstance(child, DEFINITIONS))


def test_every_definition_is_reached_from_the_cli_or_an_export():
    reached = _reach("main", *EXPORTS)
    assert "_trial_matrix" in reached and "chain_moment_unreduced" in reached
    unreached = {qualified for qualified, name in _definitions() if name not in reached}
    assert not unreached - UNREACHED.keys(), (
        f"reached from neither cli.main nor an export: {sorted(unreached - UNREACHED.keys())}")
    assert not UNREACHED.keys() - unreached, (
        f"reached now, so off UNREACHED: {sorted(UNREACHED.keys() - unreached)}")
