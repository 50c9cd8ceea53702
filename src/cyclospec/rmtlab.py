"""Random-matrix experiments: scenario descriptions, sampling, and reports.

A scenario fixes the matrix dimension, a master seed, the builders for the
A-side and B-side matrices, an expression to evaluate, and optionally the
state of the B-side, which is otherwise the law of its GUE letters.  Each
trial derives its own non-overlapping random stream from the master seed,
samples every matrix in a fixed documented order (A-side first, then the
B-side list, then the shared Haar conjugator), evaluates the expression,
and compares the empirical spectrum against the prediction, by
rank in canonical order and by signed order.  Trials run one after
another, in order.

The prediction is :func:`linred.ev_polynomial` of the expression, as it is for
``cyclospec predict``; a run validates, predicts and reports its three moments
from one reduction, and compares every trial with that one prediction.
The demo scenarios are the JSON files shipped in the package's ``demos/``.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from .cmcalc import (
    ExplicitSpectrum,
    GeometricSpectrum,
    HaarConjugatedFamily,
    MomentTable,
    SpectrumFamily,
    _SemicircleState,
    _agree,
    _is_json_integer,
    _is_json_number,
)
from .dense import _consume_polynomial, _generators, _gram, _matmul_over, dense_block_matrix
from .ensembles import sample_gue, sample_haar_unitary
from .errors import (
    DegreeExceededError,
    DimensionMismatchError,
    NotInDomainError,
    NotSelfadjointError,
)
from .linred import AlgMatrix, _reduce, _reduction_spectrum, chain_moment
from .ncalg import FAMILY_A, FAMILY_B, Letter, auto_symbols, drop_stars, parse_expression, word_str
from .spectra import _solve_hermitian, match_distance, multiset_moment, relative_error

HERMITICITY_GATE = 1e-8

def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Per-trial generator; the spawn key makes streams injective in the trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


def estimate_beta(c_list, b_list) -> np.ndarray:
    """Matrix of normalized traces ``tr_n(C_i B_j)`` of the supplied matrices.

    The summation is arranged symmetrically so that passing the same list
    twice yields an exactly symmetric result.
    """
    if len(c_list) != len(b_list):
        raise DimensionMismatchError("need equally many C and B matrices")
    mats_c = [np.asarray(c, dtype=complex) for c in c_list]
    mats_b = [np.asarray(b, dtype=complex) for b in b_list]
    dims = {m.shape for m in mats_c} | {m.shape for m in mats_b}
    if len(dims) != 1:
        raise DimensionMismatchError("all matrices must share one shape")
    (shape,) = dims
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatchError("matrices must be square")
    n = shape[0]
    k = len(mats_c)
    beta = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            cross = mats_c[i] * mats_b[j].T
            beta[i, j] = complex(np.sum(cross + cross.T)) / (2.0 * n)
    return beta


def save_matrix_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV; each complex entry becomes adjacent (re, im) columns."""
    m = np.asarray(matrix, dtype=complex)
    with open(path, "w", encoding="utf-8") as fh:
        for row in m:
            fh.write(",".join(repr(float(part)) for value in row
                              for part in (value.real, value.imag)) + "\n")


def load_matrix_csv(path) -> np.ndarray:
    """The matrix :func:`save_matrix_csv` wrote; blank lines are skipped.
    ``ValueError`` naming ``path`` and the row for a cell that is not a
    number, an odd row or rows of unequal length."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                cells = [float(x) for x in line.strip().split(",")]
            except ValueError as exc:
                raise ValueError(f"matrix CSV {path}: row {len(rows) + 1}: {exc}") from None
            if len(cells) % 2 != 0:
                raise ValueError(f"matrix CSV {path}: rows need (re, im) column pairs")
            rows.append([complex(cells[2 * i], cells[2 * i + 1]) for i in range(len(cells) // 2)])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"matrix CSV {path}: row {len(rows)} has {len(rows[-1])} "
                                 f"entries, row 1 has {len(rows[0])}")
    return np.asarray(rows, dtype=complex)


def _save_json(doc: dict, path) -> None:
    """The one byte format of every JSON file the package writes: keys sorted,
    two-space indents and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@functools.cache
def _scenario_schema() -> dict:
    path = resources.files(__package__).joinpath("schemas/scenario.schema.json")
    return json.loads(path.read_text(encoding="utf-8"))


# the schema's JSON types, as jsonschema reads them: a bool is not a number
_JSON_TYPES = {
    "string": ("a string", lambda value: isinstance(value, str)),
    "number": ("a number", _is_json_number),
    "integer": ("an integer", _is_json_integer),
    "boolean": ("a boolean", lambda value: isinstance(value, bool)),
    "array": ("an array", lambda value: isinstance(value, (list, tuple))),
    "object": ("an object", lambda value: isinstance(value, dict)),
}
# typed by their own loaders, _block_cells and MomentTable.from_json_doc
_LOADER_TYPED = {"blocks", "b_state"}


def _require(keys, doc: dict, where: str) -> None:
    owner = f"scenario {where}" if where else "a scenario"  # "": the whole scenario
    for key in keys:
        if key not in doc:
            raise ValueError(f"{owner} needs the key {key!r}")


def _reject_unknown(node: dict, doc: dict, where: str) -> None:
    """Raise ``ValueError`` at a key of ``doc`` that a closed object ``node``
    (``"additionalProperties": false``) does not list."""
    if node.get("additionalProperties") is False:
        for key in doc:
            if key not in node["properties"]:
                path = f"{where}.{key}" if where else key
                raise ValueError(f"scenario {path!r} is not a known key")


def _holds(condition: dict, doc: dict) -> bool:
    """Whether ``doc`` meets an ``if`` of ``properties`` with a ``const`` each."""
    return all(doc.get(key, sub["const"]) == sub["const"]
               for key, sub in condition["properties"].items())


def _check(node: dict, value, where: str) -> None:
    """Raise ``ValueError`` at the first part of ``value`` that breaks the
    schema ``node``; ``where`` is its key path.  A container is checked
    before its items."""
    def fail(expected: str):
        raise ValueError(f"scenario {where!r} must be {expected}, not {value!r}")

    if "type" in node:
        kind, is_kind = _JSON_TYPES[node["type"]]
        if not is_kind(value):
            fail(kind)
    if "enum" in node and value not in node["enum"]:
        *others, last = map(repr, node["enum"])
        fail(f"{', '.join(others)} or {last}" if others else last)
    if "minimum" in node and value < node["minimum"]:
        fail(f">= {node['minimum']}")
    if "minItems" in node and len(value) < node["minItems"]:
        low = node["minItems"]
        fail(f"an array of at least {low} item{'s' if low != 1 else ''}")
    _require(node.get("required", ()), value, repr(where))
    _reject_unknown(node, value, where)
    for key, sub in node.get("properties", {}).items():
        if key in value and key not in _LOADER_TYPED:
            _check(sub, value[key], f"{where}.{key}" if where else key)
    if "items" in node:
        for pos, item in enumerate(value):
            _check(node["items"], item, f"{where}[{pos}]")
    for rule in node.get("allOf", ()):
        if _holds(rule["if"], value):
            condition = ", ".join(f"{key} {sub['const']!r}"
                                  for key, sub in sorted(rule["if"]["properties"].items()))
            _require(rule["then"]["required"], value, f"{where!r} with {condition}")


def _as_int(value):
    """An integral ``value`` as an int.  Anything else is returned unchanged,
    for :meth:`Scenario.validate` to reject."""
    return int(value) if _is_json_integer(value) else value


@dataclass
class Scenario:
    """Configuration of one experiment."""

    name: str
    n: int
    seed: int
    a_spec: dict
    b_spec: list
    expression: str
    prediction: dict | None = None  # None: the B state is b_spec's law
    trials: int = 5
    haar_conjugate_b: bool = False
    compare_top: int = 10
    truncation: int | None = None

    def __post_init__(self):
        for key in ("n", "seed", "trials", "compare_top", "truncation"):
            setattr(self, key, _as_int(getattr(self, key)))
        if self.truncation is None:
            self.truncation = self.n
        self.validate()

    def validate(self) -> None:
        """Check the scenario against ``scenario.schema.json``, then what the
        schema cannot express: references between entries, ``blocks``, the
        expression, a given ``b_state`` against the B laws, and the
        expression's symbolic reduction against the B state."""
        _compile(self)

    def to_dict(self) -> dict:
        """The scenario's JSON object, without ``prediction`` when it is ``None``."""
        return {key: value for key, value in asdict(self).items()
                if key != "prediction" or value is not None}

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ValueError(f"a scenario is an object, not {doc!r}")
        schema = _scenario_schema()
        _reject_unknown(schema, doc, "")
        _require(schema["required"], doc, "")
        return cls(**doc)

    @classmethod
    def from_json(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path) -> None:
        _save_json(self.to_dict(), path)


@dataclass
class Report:
    """Empirical-vs-predicted comparison output of one scenario run."""

    scenario: dict
    prediction: dict
    trials: list
    summary: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        _save_json(self.to_json_dict(), path)

    @classmethod
    def from_json(cls, path) -> "Report":
        """The report at ``path``: ``ValueError`` naming ``path`` and the key
        at fault unless ``prediction.eigenvalues`` is a list of numbers and
        ``trials`` a list of objects, each with an integer ``trial`` and a
        list of numbers ``eigenvalues``."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

        def require(ok, key, what):
            if not ok:
                raise ValueError(f"report {path}: {key!r} must be {what}")

        def numbers(value):
            return isinstance(value, list) and all(map(_is_json_number, value))

        if not isinstance(doc, dict):
            raise ValueError(f"report {path} must hold an object, not {type(doc).__name__}")
        require(isinstance(doc.get("scenario"), dict), "scenario", "an object")
        prediction, trials = doc.get("prediction"), doc.get("trials")
        require(isinstance(prediction, dict) and numbers(prediction.get("eigenvalues")),
                "prediction.eigenvalues", "a list of numbers")
        require(isinstance(trials, list), "trials", "a list of objects")
        for pos, rec in enumerate(trials):
            require(isinstance(rec, dict), f"trials[{pos}]", "an object")
            require(_is_json_integer(rec.get("trial")), f"trials[{pos}].trial", "an integer")
            require(numbers(rec.get("eigenvalues")), f"trials[{pos}].eigenvalues",
                    "a list of numbers")
        return cls(doc["scenario"], prediction, trials, doc.get("summary", {}))


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------


def _block_cells(spec: dict, kind: str, family: str, where: str) -> list | None:
    """The parsed ``blocks`` of a spec (``None`` if absent): a square list of
    lists of expressions in ``family``, allowed on spec kind ``kind`` only."""
    if "blocks" not in spec:
        return None
    blocks = spec["blocks"]
    if spec.get("kind") != kind:
        raise ValueError(f"{where} 'blocks' is allowed on the {kind!r} kind only")
    if not isinstance(blocks, list) or not blocks or not all(
        isinstance(row, list) and len(row) == len(blocks) for row in blocks
    ):
        raise ValueError(f"{where} 'blocks' must be a square list of lists")
    try:
        cells = [[parse_expression(cell, auto_symbols(cell)) for cell in row] for row in blocks]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{where} 'blocks': {exc}") from None
    if any(poly.families() - {family} for row in cells for poly in row):
        raise ValueError(f"{where} 'blocks' may hold {family}-letters only")
    return cells


def _build_a_matrix(
    a_diag: np.ndarray, a_cells: list | None, rng: np.random.Generator
) -> np.ndarray:
    """The trial's A: the diagonal ``a_diag`` itself, or the dense matrix of
    a_spec's blocks."""
    if a_cells is None:
        return a_diag
    # a1 is the diagonal, every further generator a fresh Haar rotation of it
    def rotated(letter):
        if letter.index == 1:
            return a_diag
        u = sample_haar_unitary(len(a_diag), rng)
        return (u * a_diag) @ u.conj().T

    return dense_block_matrix(a_cells, rotated, len(a_diag))


def _build_b_matrices(c: _Compiled, files: dict, rng: np.random.Generator) -> list[np.ndarray]:
    """The trial's B matrices: each law drawn in b_spec order (a ``file``
    law is its loaded ``files[pos]``; a blocks law's cells are formed as
    their generators are drawn), then the one Haar ``u`` of
    ``haar_conjugate_b``.

    Each draw is then replaced by its matrix: a ``gue_squared`` factor ``g``
    becomes ``g @ g``, or with ``u`` ``t @ t*`` for ``t = u @ g``; every other
    draw ``mat`` becomes ``t @ u*`` for ``t = u @ mat`` with ``u``.  Each
    product is written over an operand that dies with it (a read-only
    ``file`` B excepted): ``t`` over the draw and ``t @ u*`` over ``t``.
    ``u`` is freed once the last law has read it.  A ``copy_of`` entry
    gets its source's matrix.
    """
    sources = {law.pos: law for law in c.b_laws}  # in b_spec order: a copy follows its source
    squared = [pos for pos, law in sources.items() if law.kind == "gue_squared"]
    formed = {}
    for pos, law in sources.items():
        if law.kind == "blocks":
            size = c.dim // len(law.cells)
            formed[pos] = dense_block_matrix(law.cells, lambda letter: sample_gue(size, rng), size)
        elif law.kind == "file":
            formed[pos] = files[pos]
        else:  # gue, gue_squared
            formed[pos] = sample_gue(c.dim, rng)
    if not c.haar:
        for pos in squared:
            formed[pos] = formed[pos] @ formed[pos]
        return [formed[law.pos] for law in c.b_laws]
    u, last = sample_haar_unitary(c.dim, rng), max(sources)
    for pos in sources:
        mat = formed.pop(pos)
        t = _matmul_over(u, mat, mat if mat.flags.writeable else None)
        del mat
        if pos in squared:
            if pos == last:
                del u  # before t t* is formed
            formed[pos] = _gram(t)
        else:
            # u* is u.T while u is conjugated in place, which is exact both ways
            formed[pos] = _matmul_over(t, np.conj(u, out=u).T, t)
            if pos == last:
                del u
            else:
                np.conj(u, out=u)
        del t  # before the next law's product
    return [formed[law.pos] for law in c.b_laws]


def _trial_matrix(c: _Compiled, files: dict, rng: np.random.Generator) -> np.ndarray:
    """One trial's matrix of the compiled scenario's expression; ``files``
    holds its loaded ``file`` laws by position.

    The bound matrices are held by ``mats`` alone, which the evaluation
    empties: each is freed after its last letter, or written over by the
    product that reads it last (example1's ``B·A`` over A), and every other
    matrix built here dies when it returns.
    """
    mats = {Letter(FAMILY_A, 1): _build_a_matrix(c.a_diag, c.a_cells, rng)}
    mats.update((Letter(FAMILY_B, j), mat)
                for j, mat in enumerate(_build_b_matrices(c, files, rng), start=1))
    return _consume_polynomial(c.poly, mats, c.dim)


# ---------------------------------------------------------------------------
# prediction builders
# ---------------------------------------------------------------------------


def _a_spectrum(spec: dict, n: int):
    """a_spec's diagonal: its explicit ``values``, exactly ``n`` of them, or the
    analytic geometric sequence ``scale * ratio**(start_power + k)``.
    ``ValueError`` naming the key at fault for ``|ratio| >= 1`` and for a
    value that is not finite."""
    if spec["kind"] == "explicit":
        values = spec["values"]
        if len(values) != n:
            raise ValueError(f"scenario 'a_spec.values' has {len(values)} entries, but n is {n}")
        for pos, value in enumerate(values):
            if not math.isfinite(value):
                raise ValueError(f"scenario 'a_spec.values[{pos}]' must be finite, not {value!r}")
        return ExplicitSpectrum(values)
    ratio, scale = spec["ratio"], spec.get("scale", 1.0)
    if not -1 < ratio < 1:
        raise ValueError(f"scenario 'a_spec.ratio' must be > -1 and < 1, not {ratio!r}")
    try:
        first = scale * ratio ** spec.get("start_power", 0)
    except (ZeroDivisionError, OverflowError):  # 0 ** -1, 0.5 ** -2000
        first = math.inf
    if not math.isfinite(first):
        key = "start_power" if math.isfinite(scale) else "scale"
        raise ValueError(f"scenario 'a_spec.{key}' is {spec[key]!r}, so the first value "
                         "scale * ratio**start_power is not finite")
    return GeometricSpectrum(first, ratio, count=None)


# the law of one b_spec entry as plain data: kind is "gue", "gue_squared",
# "file" or "blocks" (a gue entry's), cells a blocks law's parsed cells and
# path a file law's; pos is the entry that draws it, so a copy_of entry holds
# its source's law
_BLaw = namedtuple("_BLaw", "pos kind cells path")
# b_laws holds each B letter's law, haar is haar_conjugate_b, dim a trial's
# dimension and a_diag, read-only, the n values of every trial's A
_Compiled = namedtuple("_Compiled", "poly a_model b_state reduction a_cells b_laws haar "
                                    "dim a_diag")


def _compile(scenario: Scenario) -> _Compiled:
    """A scenario validated, parsed once and reduced once against the B state:
    ``prediction.b_state`` if given, else the law of the GUE letters the
    expression reads (``_SemicircleState``).
    ``a1`` stands for a_spec's ``blocks``, whose generators take the limit model
    of independent Haar rotations (``HaarConjugatedFamily``: analytic spectra,
    mixed words exactly 0; the seed is not read), or else for its truncated
    diagonal; a B letter for its entry's ``blocks`` (a ``copy_of``'s source's),
    as many as a_spec has.  The state reads block generators by name, so two
    entries drawn apart share none, and no B letter the expression reads
    without blocks is another entry's block generator.  Each b_spec entry is
    read here only, into its ``_BLaw``.  ``ValueError`` for a truncation
    beyond n, explicit values other than n, a term without an A-letter, a
    ``b_state`` entry that disagrees with the law of the GUE letters the
    expression reads, a word missing from ``b_state`` (a ``file`` letter's, if
    none is given) or a reduction to 0."""
    _check(_scenario_schema(), scenario.to_dict(), "")
    if scenario.truncation > scenario.n:
        raise ValueError(f"scenario 'truncation' is {scenario.truncation}, but n is {scenario.n}")
    a_cells = _block_cells(scenario.a_spec, "geometric", FAMILY_A, "a_spec")
    dim = scenario.n * (len(a_cells) if a_cells else 1)
    symbols = {"a1": Letter(FAMILY_A, 1)}
    symbols.update((f"b{j}", Letter(FAMILY_B, j)) for j in range(1, len(scenario.b_spec) + 1))
    poly = parse_expression(scenario.expression, symbols)
    spectrum = _a_spectrum(scenario.a_spec, scenario.n)
    a_diag = spectrum.eigenvalues(scenario.n).astype(complex)
    a_diag.setflags(write=False)
    if a_cells is None:
        # the prediction's diagonal is the first `truncation` values of the trials'
        a_model = SpectrumFamily({1: ExplicitSpectrum(spectrum.eigenvalues(scenario.truncation))})
        blocks = {}
    else:
        a_model = HaarConjugatedFamily({g.index: spectrum for g in _generators(a_cells)})
        blocks = {Letter(FAMILY_A, 1): AlgMatrix([list(map(drop_stars, row)) for row in a_cells])}
    # names maps each B letter the state reads (a block generator, for blocks)
    # to the GUEs it multiplies, each named by its entry and block generator
    letters, owners, b_laws, names = _generators([[poly]]), {}, [], {}
    for j, spec in enumerate(scenario.b_spec, start=1):
        if spec["kind"] == "copy_of" and not 1 <= spec.get("index", 0) < j:
            raise ValueError("copy_of must reference an earlier b_spec entry")
        cells = _block_cells(spec, "gue", FAMILY_B, f"b_spec entry {j}")
        if cells and dim % len(cells):
            raise ValueError(f"b_spec entry {j} 'blocks' do not divide the dimension {dim}")
        b_laws.append(b_laws[int(spec["index"]) - 1] if spec["kind"] == "copy_of" else
                      _BLaw(j - 1, "blocks" if cells else spec["kind"], cells, spec.get("path")))
        law, letter = b_laws[-1], Letter(FAMILY_B, j)
        if letter in letters and len(law.cells or [0]) != len(a_cells or [0]):
            raise ValueError(f"b{j} needs as many 'blocks' as a_spec")
        if letter in letters and law.cells:
            blocks[letter] = AlgMatrix(law.cells)
            if any(owners.setdefault(g, law.pos) != law.pos for g in _generators(law.cells)):
                raise ValueError(f"b{j} 'blocks' share generators with another b_spec entry")
            names.update((g, ((law.pos, g.index),)) for g in _generators(law.cells))
        elif letter in letters and law.kind != "file":
            names[letter] = (law.pos,) * (2 if law.kind == "gue_squared" else 1)
    # a letter read without blocks, and also a generator of another entry's
    for letter in sorted(owners.keys() & set(letters) - blocks.keys()):
        raise ValueError(f"{letter.label()} is read as its own b_spec entry and as a "
                         f"'blocks' generator of b_spec entry {owners[letter] + 1}")
    table = derived = _SemicircleState(names)
    if scenario.prediction is not None:  # a given table, each entry over named letters checked
        try:
            table = MomentTable.from_json_doc(scenario.prediction["b_state"])
        except (ValueError, TypeError, AttributeError, NotInDomainError) as exc:
            raise ValueError(f"prediction 'b_state': {exc}") from None
        for word, value in table._table.items():
            if (all(letter.base() in names for letter in word)
                    and not _agree(value, derived.tau(word))):
                shown = value if value.imag else value.real
                raise ValueError(f"prediction 'b_state' gives tau({word_str(word)}) = {shown}, "
                                 f"but b_spec's law gives {int(derived.tau(word).real)}")
    source = "b_spec's law" if table is derived else "prediction 'b_state'"
    try:
        reduction = _reduce(poly, table, blocks)
    except NotInDomainError as exc:
        raise ValueError(f"scenario 'expression': {exc}") from None
    except DegreeExceededError as exc:  # the derived state's message names its source
        raise ValueError(f"{exc}, a word over a 'file' letter: give it in prediction.b_state"
                         if table is derived else f"{source}: {exc}") from None
    if not any(map(any, reduction[0])):
        raise ValueError(f"scenario 'expression' reduces to 0 against {source}")
    return _Compiled(poly, a_model, table, reduction, a_cells, b_laws, scenario.haar_conjugate_b,
                     dim, a_diag)


def build_prediction(scenario: Scenario):
    """:func:`ev_polynomial` of a scenario's expression."""
    c = _compile(scenario)
    return _reduction_spectrum(c.reduction, c.a_model, scenario.truncation)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def run_scenario(scenario: Scenario) -> Report:
    """Run every trial of a scenario and assemble the comparison report."""
    c = _compile(scenario)
    prediction = _reduction_spectrum(c.reduction, c.a_model, scenario.truncation)
    if scenario.compare_top > min(c.dim, len(prediction.multiset)):
        raise ValueError(f"scenario 'compare_top' is {scenario.compare_top}, but a trial has "
                         f"{c.dim} eigenvalues and the prediction {len(prediction.multiset)}")
    # the first three trace moments of its A (beta x I); with blocks, analytic: the limits
    chain = [AlgMatrix.from_grid(c.reduction[0]), AlgMatrix(c.reduction[1])]
    try:
        predicted_moments = [float(np.real(chain_moment(chain, m, c.a_model, c.b_state)))
                             for m in (1, 2, 3)]
    except OverflowError:  # an analytic power sum's scale**m, a float power
        # |ratio| < 1, so a negative start_power is what raises the first value past scale
        key = "scale" if scenario.a_spec.get("start_power", 0) >= 0 else "start_power"
        raise ValueError(f"scenario 'a_spec.{key}' is {scenario.a_spec[key]!r}, so the "
                         "predicted moments overflow") from None
    files = {}  # each file law, read once and shared by every trial
    for pos, law in {law.pos: law for law in c.b_laws if law.kind == "file"}.items():
        files[pos] = load_matrix_csv(law.path)
        if files[pos].shape != (c.dim, c.dim):
            raise DimensionMismatchError(f"loaded matrix has shape {files[pos].shape}, "
                                         f"expected {(c.dim, c.dim)}")
        if not np.isfinite(files[pos]).all():
            raise NotSelfadjointError(f"b_spec entry {pos + 1} ({law.path}): "
                                      "matrix has a non-finite entry")
        files[pos].setflags(write=False)

    def one_trial(t: int) -> dict:
        rng = trial_rng(scenario.seed, t)
        x = _trial_matrix(c, files, rng)
        try:
            empirical, residual = _solve_hermitian(x, HERMITICITY_GATE)
        except NotSelfadjointError as exc:
            raise NotSelfadjointError(f"trial {t}: {exc}") from None
        del x
        return {
            "trial": t,
            "eigenvalues": empirical.to_list(),
            "moments": [multiset_moment(empirical, k) for k in (1, 2, 3)],
            "match": match_distance(empirical, prediction.multiset, scenario.compare_top),
            "diagnostics": {"hermiticity_residual": residual},
        }

    trial_records = [one_trial(t) for t in range(scenario.trials)]

    rels = [rec["match"]["max_rel"] for rec in trial_records]
    abss = [rec["match"]["max_abs"] for rec in trial_records]
    signed = [rec["match"]["signed_max_rel"] for rec in trial_records]
    moment_means = [
        float(np.mean([rec["moments"][k] for rec in trial_records])) for k in range(3)
    ]
    moment_rel_err = relative_error(moment_means, predicted_moments).tolist()
    summary = {
        "match_mean_max_rel": float(np.mean(rels)),
        "match_max_max_rel": float(np.max(rels)),
        "match_mean_max_abs": float(np.mean(abss)),
        "match_mean_signed_max_rel": float(np.mean(signed)),
        "moments_mean": moment_means,
        "moment_rel_err_vs_prediction": moment_rel_err,
    }
    prediction_doc = prediction.to_json_dict()
    prediction_doc["moments"] = predicted_moments
    return Report(
        scenario=scenario.to_dict(),
        prediction=prediction_doc,
        trials=trial_records,
        summary=summary,
    )


# ---------------------------------------------------------------------------
# built-in demos
# ---------------------------------------------------------------------------


def builtin_scenario(name: str, n: int | None = None, trials: int | None = None,
                     seed: int | None = None) -> Scenario:
    """The shipped demo scenario ``demos/<name>.json``.

    Each of ``n``, ``trials`` and ``seed`` that is given replaces the file's
    value, and a given ``n`` also sets ``truncation = n``.  The file is read
    afresh on every call, so the returned scenario shares nothing with
    earlier ones.
    """
    path = resources.files(__package__).joinpath(f"demos/{name}.json")
    if not path.is_file():
        raise ValueError(f"unknown demo scenario {name!r}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    given = {"n": n, "trials": trials, "seed": seed, "truncation": n}
    doc.update((key, value) for key, value in given.items() if value is not None)
    return Scenario.from_dict(doc)
