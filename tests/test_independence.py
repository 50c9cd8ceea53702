"""The two checks of the closed forms share no logic with them, the
package holds no code that its entry points do not reach, no option that no
caller sets, and no eigensolve outside ``spectra``.

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
merge.  A name that a function binds itself (an argument, or the target of
an assignment, a loop, a ``with`` or a comprehension) is its local, which
refers to nothing, and an attribute of a module that an ``import``
statement binds (``np.trace``) is none of the package's names.  A method
call ``x.f()`` so reaches every ``f`` of the package.
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
# the names ``import`` statements bind: numpy's and the standard library's modules
IMPORTED = {alias.asname or alias.name.split(".")[0] for tree in TREES.values()
            for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _own_nodes(node):
    """The nodes under ``node``, but not those of a function, class or lambda
    it defines."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (*DEFINITIONS, ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def _locals(node) -> set:
    """The names a function binds in its own scope (none for a class)."""
    if isinstance(node, ast.ClassDef):
        return set()
    return {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)} | {
        child.id for child in _own_nodes(node)
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Load)}


def _refs(node, local=frozenset()):
    """The names that ``node``'s children refer to, as described above, less
    the function's ``local`` names."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.arg) or child is getattr(node, "returns", None) or (
                isinstance(node, ast.AnnAssign) and child is node.annotation):
            continue
        if isinstance(child, DEFINITIONS):
            if not isinstance(node, ast.ClassDef) or _dunder(child.name):
                yield child.name
            continue  # its body is its own node's
        if isinstance(child, ast.Name):
            if child.id not in local:
                yield child.id
        elif isinstance(child, ast.Attribute):
            root = child.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if getattr(root, "id", None) in IMPORTED:
                continue
            yield child.attr
        yield from _refs(child, local)


GRAPH: dict[str, set] = {}
for _tree in TREES.values():
    for _node in ast.walk(_tree):
        if isinstance(_node, DEFINITIONS):
            GRAPH.setdefault(_node.name, set()).update(_refs(_node, _locals(_node)))
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


def test_the_derived_b_state_reaches_no_sampler_and_no_runner():
    # the trials sample the law this state is derived from, so it is checked
    # by them only if it shares nothing with them
    # a scenario without a table reduces against _SemicircleState, whose
    # plain method tau only a call x.tau() reaches (every state's tau)
    reached = _reach("_SemicircleState", "tau")
    sampling = {node.name for module in ("ensembles", "rmtlab") for node in TREES[module].body
                if isinstance(node, DEFINITIONS)}
    assert "_noncrossing_pairings" in reached and not reached & sampling


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


# The options rule.  Every optional parameter of a function or method of the
# package is set at some call in the package or the benchmark: an option that
# every caller leaves at its default is a constant.  The scan is name-level,
# as the graph above: a call ``f(...)`` or ``x.f(...)`` counts for every
# function or method ``f`` and for the constructor of every class ``f``.  A
# positional argument sets the parameter at its place (after ``self`` or
# ``cls``), a keyword the parameter it names, and a ``*`` or ``**`` splat
# every optional parameter.  Dataclass and NamedTuple field defaults are out
# of scope: they are document keys, such as the scenario schema's.
BENCHMARK = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
CALLERS = [*TREES.values(), *(ast.parse(path.read_text(encoding="utf-8")) for path in BENCHMARK)]
# "module.function(parameter)" -> why it stays optional though no caller sets it
UNSET_OPTIONS = {
    "cli.main(argv)": "the entry point's test seam: the console script passes no arguments",
}


def _functions(node, prefix, method=False):
    """``(qualified name, called name, function, whether it takes self or
    cls)`` of every function under ``node``; a class's ``__init__`` is also
    called by the class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.", True)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bound = method and not any(getattr(d, "id", None) == "staticmethod"
                                       for d in child.decorator_list)
            yield f"{prefix}{child.name}", child.name, child, bound
            if bound and child.name == "__init__":
                yield f"{prefix}__init__", prefix.rstrip(".").rsplit(".", 1)[-1], child, bound
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix, method)


def _optional(function) -> list:
    positional = function.args.posonlyargs + function.args.args
    return [arg.arg for arg in positional[len(positional) - len(function.args.defaults):]] + [
        arg.arg for arg, default in zip(function.args.kwonlyargs, function.args.kw_defaults)
        if default is not None]


def test_every_optional_parameter_is_set_by_a_call_in_the_package_or_the_benchmark():
    assert BENCHMARK, "the benchmark's source is not beside the tests"
    callees, unset = {}, set()
    for module, tree in TREES.items():
        for qualified, name, function, bound in _functions(tree, f"{module}."):
            callees.setdefault(name, []).append((qualified, function, bound))
            unset.update(f"{qualified}({parameter})" for parameter in _optional(function))
    for call in (node for tree in CALLERS for node in ast.walk(tree) if isinstance(node, ast.Call)):
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        splat = any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords)
        for qualified, function, bound in callees.get(name, ()):
            positional = function.args.posonlyargs + function.args.args
            named = {arg.arg for arg in positional[bound:bound + len(call.args)]} | {
                keyword.arg for keyword in call.keywords}
            unset -= {f"{qualified}({parameter})" for parameter in _optional(function)
                      if splat or parameter in named}
    assert not unset - UNSET_OPTIONS.keys(), (
        f"optional, but set by no call in the package or the benchmark: "
        f"{sorted(unset - UNSET_OPTIONS.keys())}")
    assert not UNSET_OPTIONS.keys() - unset, (
        f"set by a call now, so off UNSET_OPTIONS: {sorted(UNSET_OPTIONS.keys() - unset)}")


# Every eigensolve is in ``spectra``.  ``eigvalsh`` reads one triangle of
# its input, so a matrix that a Hermiticity check accepted must be
# symmetrized first: ``spectra._solve_hermitian`` gates and solves, and
# ``sqrtm_psd`` gates before ``eigh``.  ``eigvals`` runs only where the gate
# refused a matrix whose spectrum must be real, in ``_real_spectrum``.
EIGENSOLVERS = {"eigvalsh": "spectra._solve_hermitian", "eigh": "spectra.sqrtm_psd",
                "eigvals": "spectra._real_spectrum"}


def _names(node, name: str) -> bool:
    return any(name in (getattr(child, "attr", None), getattr(child, "id", None),
                        getattr(child, "name", None)) for child in ast.walk(node))


def test_only_the_shared_hermitian_solve_calls_eigvalsh():
    # and each other eigensolver is named in one function of spectra too
    for solver, function in EIGENSOLVERS.items():
        assert [module for module, tree in TREES.items() if _names(tree, solver)] == ["spectra"]
        namers = {f"{module}.{node.name}" for module, tree in TREES.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _names(node, solver)}
        assert namers == {function}, solver


def test_the_exact_reference_imports_only_the_standard_library():
    # tests/_exact.py is the tolerance-free reference of tests/test_exact.py:
    # it reads a letter as a plain tuple, so it reaches nothing in cmcalc,
    # linred, dense or spectra, nor any other module of the package
    tree = ast.parse((Path(__file__).parent / "_exact.py").read_text(encoding="utf-8"))
    imported = {name.split(".")[0] for node in ast.walk(tree)
                for name in ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                             [alias.name for alias in getattr(node, "names", ())])
                if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert imported == {"__future__", "fractions", "functools"}
