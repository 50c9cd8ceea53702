"""The two checks of the closed forms share no logic with them.

The predictions (``linred.ev_*`` and ``ev_polynomial``, through the
reduction) are checked against the moment oracle (``cmcalc``) and against
random-matrix trials (``rmtlab._trial_matrix``).  A check that reached the
reduction would agree with it by construction.  The checks may share
matrix-product primitives (``cyclospec.dense``), but the oracle needs none.

The call graph is name-level, built with ``ast``: each function, method or
class name maps to every name its body refers to, and definitions of one
name merge.  A method call ``x.f()`` so reaches every ``f`` of the package.
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
CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}
REDUCTION = {"_reduce", "_reduction_spectrum", "_stack_spectrum", "reduce_b_matrix"} | {
    name for name in GRAPH if name.startswith("ev_")}
DENSE = {node.name for node in TREES["dense"].body if isinstance(node, DEFINITIONS)}


def _reach(start: str) -> set:
    seen = {start} | {name for name in GRAPH if _dunder(name)} - CONSTRUCTORS
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
