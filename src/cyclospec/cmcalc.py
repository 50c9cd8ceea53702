"""State models for both generator families and the brute-force moment oracle.

The oracle evaluates mixed moments through the defining factorization: a word
is decomposed into maximal A-runs and B-runs, a leading B-run is rotated into
the trailing one (traciality), and the value is the weight of the concatenated
A-letters times the product of the state values of the B-runs.

The oracle takes a word in one of two forms.  On a tuple of letters
(``poly_moment``'s sweep) it factors the word letter by letter and asks the
models for each run and A-word (``tau``, ``omega``).  On the code of a word
under an :class:`~cyclospec.ncalg.WordCode` (``linred.chain_moment_unreduced``'s
sweep) it cuts the code with ``str`` operations and reads the values
through code-keyed memos that live for one sweep (:class:`CodedSweep`), so
a run or an A-word is decoded and asked for only when it first misses.
Both sweeps are one loop, ``_sweep``.  Every weight model also has
``omega_many``, the weights of a list of codes of one ``WordCode``; a matrix
model evaluates them as one batch (``WordProducts.traces``: the codes' prefix
tree, built with array operations, multiplied out one depth at a time), with
values bitwise equal to ``omega``.  The reduced chain trace of
:mod:`cyclospec.linred` uses the batch; the oracle does not.  A
``MatrixTraceFamily`` keeps its last batch's weights by code, and the next
coded sweep starts its A-word memo from them when its ``WordCode`` has the
same A-letters, so ``chain_moment_unreduced`` after ``chain_moment`` on the
same models decodes no A-word of the batch.

Every lazily filled table of a model is a ``_Memo``, whose evaluator holds a
model's data, never the model.  The one table outside the models is
process-wide: ``_noncrossing_pairings`` keeps a ``functools.cache``, which a
counter reads through its ``cache_info()``.  ``MomentTable`` and
``SpectrumFamily`` memoize their values per word as long as they live: they
hold a few runs, which every sweep reads again.  A matrix model
(``MatrixTraceFamily``, ``TraceMatrixState``) memoizes no value, only its
letters; a coded sweep's memos answer the repeats within one sweep.  A matrix
state keeps only its letters and multiplies each word out from them.  A matrix
weight keeps the prefix products of its last word, and its batch, for one
sweep: ``_sweep`` ends the weight's sweep when it returns or raises
(``_drop_sweep``), so between sweeps a matrix model keeps only its letters and
the weight its batch.

For the eigenvalue recipes a weight model also realizes each generator as a
matrix: ``diagonal`` gives the 1-D diagonal of the realization, or ``None``
when it is not diagonal, and ``realization`` the dense matrix.  Only
``MatrixTraceFamily`` can be non-diagonal; ``HaarConjugatedFamily`` realizes
its limit exactly, on orthogonal coordinate blocks, and draws nothing.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegreeExceededError,
    DimensionMismatchError,
    NotInDomainError,
)
from .ncalg import (
    FAMILY_A,
    FAMILY_B,
    Letter,
    Word,
    WordCode,
    alternating_form,
    auto_symbols,
    b_gen,
    is_pure,
    min_cyclic_rotation,
    parse_expression,
    word_adjoint,
    word_str,
)
from .spectra import rounding_tolerance

DEFAULT_TRUNCATION = 64
# ndarray.trace is this reduction of the diagonal behind argument handling
# that costs about 0.17 us a call, a fifth of a small matrix's trace; the
# per-word weight and state of the matrix models pay it on every word.
_add_reduce = np.add.reduce
# Upper bound on the bytes of the product matrices of one batch of
# WordProducts.traces: a node's bytes times the batch's letters, which bound
# its prefix-tree nodes.  Longer word lists are split into batches.
TRACE_BATCH_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# shared evaluation machinery of the models
# ---------------------------------------------------------------------------


class _Memo(dict):
    """Values by key, starting from ``known``: a key that misses is evaluated
    once, as ``evaluate(key)``, and only a value is stored, so a key outside
    the domain raises on every ask.  ``evaluate`` holds a model's data, never
    the model, so a model's memo keeps it in no reference cycle; that data
    must not be mutated once the memo is built."""

    __slots__ = ("_evaluate",)

    def __init__(self, evaluate, known=()):
        super().__init__(known)
        self._evaluate = evaluate

    def __missing__(self, key):
        value = self[key] = self._evaluate(key)
        return value


def _letter_matrix(matrices: Mapping[int, np.ndarray], letter: Letter) -> np.ndarray:
    """The matrix of ``letter`` over ``matrices``: the bound matrix, or for a
    starred letter its conjugate transpose, read-only; an unknown generator
    raises ``NotInDomainError``."""
    mat = matrices.get(letter.index)
    if mat is None:
        raise NotInDomainError(f"no matrix for generator {letter.label()}")
    if letter.star:
        mat = mat.conj().T
        mat.flags.writeable = False
    return mat


class WordProducts:
    """Left-to-right products of words over a matrix weight's generators.

    Its letter table, ``_letters``, is a :class:`_Memo` from each letter met
    so far to its matrix (:func:`_letter_matrix`): the bound matrix itself,
    or for a starred letter its conjugate transpose, formed once on first use
    and read-only.  That is one adjoint per starred generator, ``16 *
    dim**2`` bytes of data each (tracemalloc counts 4.4 kB for a starred
    16x16 generator and 0.6 kB for a 4x4 one, the array headers and the
    table's entry included).  The table lives as long as the model.  A matrix
    state keeps only a letter table of its own (:class:`TraceMatrixState`).

    :meth:`product` keeps the products of the proper prefixes of the last
    evaluated word, on a stack (fewer matrices than the word has letters),
    so a word that shares its first ``k`` letters with
    the previous one costs only its remaining products; words in sorted
    order share long prefixes.  The stack lives for one sweep: the oracle's
    sweep empties it when it returns or raises (``_drop_sweep``), since the
    next sweep starts from its smallest word, which seldom shares a prefix
    with the last sweep's largest.  A matrix model keeps no value per word,
    so a word asked again is multiplied out again from the stack.  Neither
    changes a value, since a rebuilt product is the same left-to-right
    product the stack kept.

    A product starts from its first letter's matrix, as the dense
    evaluator's does, not from the identity: ``I @ M`` is
    exact, so every product equals the naive loop ``I @ M1 @ M2 @ ...``
    bitwise up to the sign of zeros, one matmul cheaper.  Each step is
    ``prod.dot(mat)``: it makes the same zgemm call as ``prod @ mat``, and
    the tests check the two bitwise, but costs about half as much on the
    small matrices the oracle multiplies, where the call overhead is most of
    a product.  The returned array may be one kept on the stack, or for a
    one-letter word the bound matrix itself or its read-only adjoint;
    callers must not modify it.

    :meth:`traces` evaluates a whole list of words at once, as a prefix tree
    of their codes, built with numpy array operations and multiplied out one
    depth at a time; it leaves the stack alone.
    """

    def __init__(self, matrices: Mapping[int, np.ndarray], dim: int):
        self._letters = _Memo(functools.partial(_letter_matrix, matrices))
        self._dim = dim
        self._word: Word = ()
        self._stack: list[np.ndarray] = []

    def _drop_stack(self) -> None:
        """Forget the last word and free its prefix products."""
        self._word = ()
        self._stack.clear()

    def product(self, w: Word) -> np.ndarray:
        """Product of the letters of the nonempty word ``w``; unknown
        generators raise ``NotInDomainError``."""
        last, stack = self._word, self._stack
        shared = 0
        limit = min(len(w), len(stack))
        while shared < limit and w[shared] == last[shared]:
            shared += 1
        del stack[shared:]
        # stack[k] is the product of w[:k + 1] from here on, also when a
        # letter below raises
        self._word = w
        prod = stack[-1] if shared else None
        letters = self._letters
        end = len(w) - 1
        for pos in range(shared, len(w)):
            mat = letters[w[pos]]
            prod = mat if prod is None else prod.dot(mat)
            if pos < end:
                stack.append(prod)
        return prod

    def traces(self, codes: Sequence[str], code: WordCode) -> list[complex]:
        """Traces of the products of the words of ``codes``, nonempty codes
        of ``code`` (:class:`~cyclospec.ncalg.WordCode`), in their order.

        The codes are read as one array of code points, and each code point
        is mapped to its letter's row of a stacked letter matrix: one row per
        distinct character of ``codes``.  They are split greedily into
        consecutive batches of at most ``TRACE_BATCH_BYTES`` of products (a
        longer code gets a batch of its own).  The codes of a batch form a
        prefix tree with one node per distinct prefix, built with array
        operations on the batch's codes padded into a matrix: a code opens a
        node at each depth past the prefix it shares with the code before
        it, a new node's parent is its code's node one depth up, and a code
        ends at its node at its last depth, the last one made there so far.
        So unsorted and repeated codes are welcome; sorted codes share the
        most prefixes.  Depth 0 is a gather of the first letters' matrices,
        not a product with the identity, and each deeper depth is one
        stacked ``np.matmul`` of the parents' products by the letters'
        matrices, as :meth:`product` multiplies.  The traces of a depth's
        nodes are taken with ``np.trace(..., axis1=1, axis2=2)``.  So every
        value is bitwise equal to ``complex(self.product(w).trace())``, ``w``
        its code's word.  An empty or impure code raises the weight's
        ``NotInDomainError``, and so does an unknown generator, before
        anything is stacked.
        """
        if not codes:
            return []
        # every rank is a code point, those in the surrogate range too
        chars = np.frombuffer("".join(codes).encode("utf-32-le", "surrogatepass"), np.uint32)
        lengths = np.fromiter(map(len, codes), np.intp, len(codes))
        # the A-letters have the lowest codes
        if not lengths.all() or chars.max() >= code.a_count:
            for c in codes:
                _check_pure_a_nonempty(code.decode(c))
        counts = np.bincount(chars)
        ranks = np.flatnonzero(counts)
        letter_stack = np.stack([self._letters[code.letters[rank]] for rank in ranks.tolist()])
        # row_of[rank] is the letter stack's row of the character chr(rank);
        # len(ranks), the padding below, is no row
        row_type = np.min_scalar_type(len(ranks))
        row_of = np.zeros(len(counts), row_type)
        row_of[ranks] = np.arange(len(ranks))
        rows = row_of[chars]
        offsets = np.zeros(len(codes) + 1, np.intp)
        np.cumsum(lengths, out=offsets[1:])
        budget = TRACE_BATCH_BYTES // (16 * self._dim * self._dim)
        values = np.empty(len(codes), complex)
        start = 0
        while start < len(codes):
            stop = max(int(np.searchsorted(offsets, offsets[start] + budget, "right")) - 1,
                       start + 1)
            size = lengths[start:stop]
            width = int(size.max())
            depths = np.arange(width)
            inside = depths < size[:, None]
            padded = np.full((stop - start, width), len(ranks), row_type)
            padded[inside] = rows[offsets[start]:offsets[stop]]
            # shared[i]: the length of the prefix code i shares with code i - 1
            differ = np.ones((stop - start, width + 1), bool)
            differ[1:, :width] = padded[1:] != padded[:-1]
            shared = differ.argmax(axis=1)
            opens = inside & (depths >= shared[:, None])
            # node[i, d]: code i's node at depth d, the last one opened by then
            node = np.cumsum(opens, axis=0) - 1
            # the new nodes depth by depth, each depth's in code order: their
            # letters' rows and parents (depth 0's parents are never read),
            # and the codes that end at each depth with their nodes
            new_depth, new_code = np.nonzero(opens.T)
            letter_rows = padded[new_code, new_depth]
            parents = node[new_code, new_depth - 1]
            ended = depths[:, None] == size - 1
            end_depth, ending = np.nonzero(ended)
            ends = node[ending, end_depth]
            out = values[start:stop]
            first = last = 0
            products = None
            for made, done in zip(np.cumsum(opens.sum(axis=0)).tolist(),
                                  np.cumsum(ended.sum(axis=1)).tolist()):
                letters = letter_stack[letter_rows[first:made]]
                products = (letters if products is None
                            else np.matmul(products[parents[first:made]], letters))
                if done > last:
                    out[ending[last:done]] = np.trace(products, axis1=1, axis2=2)[ends[last:done]]
                first, last = made, done
            start = stop
        return values.tolist()


# ---------------------------------------------------------------------------
# eigenvalue sequences for the trace-class side
# ---------------------------------------------------------------------------


class Spectrum:
    """A real eigenvalue sequence; subclasses give truncations and its ``count`` values' power sums."""

    count: int | None

    def eigenvalues(self, n: int | None = None) -> np.ndarray:
        raise NotImplementedError

    def power_sum(self, m: int) -> float:
        raise NotImplementedError


class GeometricSpectrum(Spectrum):
    """Eigenvalues ``scale * ratio**k`` for ``k = 0, 1, ...``.

    ``count=None`` selects the exact analytic mode where power sums are the
    closed-form geometric series; otherwise the sequence is truncated after
    ``count`` entries (default 64).
    """

    def __init__(self, scale: float, ratio: float, count: int | None = DEFAULT_TRUNCATION):
        if abs(ratio) >= 1:
            raise ValueError("|ratio| must be < 1")
        if not (math.isfinite(scale) and math.isfinite(ratio)):  # a NaN passes the check above
            raise ValueError(f"scale and ratio must be finite, not {scale!r} and {ratio!r}")
        if count is not None and count < 1:
            raise ValueError("count must be >= 1")
        self.scale = float(scale)
        self.ratio = float(ratio)
        self.count = count

    def eigenvalues(self, n: int | None = None) -> np.ndarray:
        n = n if n is not None else self.count
        if n is None:
            raise ValueError(f"{self!r} is analytic: give a count, or n, to list its values")
        return self.scale * np.power(self.ratio, np.arange(n))

    def power_sum(self, m: int) -> float:
        if self.count is None:
            return self.scale**m / (1.0 - self.ratio**m)
        return float(np.sum(self.eigenvalues() ** m))

    def __repr__(self):
        return f"GeometricSpectrum(scale={self.scale}, ratio={self.ratio}, count={self.count})"


class ExplicitSpectrum(Spectrum):
    """Finite list of finite eigenvalues."""

    def __init__(self, values: Iterable[float]):
        self.values = np.asarray(list(values), dtype=float)
        if self.values.size < 1:
            raise ValueError("spectrum must contain at least one value")
        # min and max carry a NaN or an infinity through and allocate no mask;
        # an np.isfinite mask here moved the scenarios benchmark's peak RSS up
        # by about 0.15 MB, through heap placement rather than its own bytes
        if not (math.isfinite(self.values.min()) and math.isfinite(self.values.max())):
            pos = int(np.argmin(np.isfinite(self.values)))
            value = float(self.values[pos])
            raise ValueError(f"spectrum value {pos} must be finite, not {value!r}")
        self.count = int(self.values.size)

    def eigenvalues(self, n: int | None = None) -> np.ndarray:
        if n is None or n == self.count:
            return self.values.copy()
        if n > self.count:
            raise DimensionMismatchError(
                f"asked for {n} eigenvalues but only {self.count} are recorded"
            )
        return self.values[:n].copy()

    def power_sum(self, m: int) -> float:
        return float(np.sum(self.values ** m))

    def __repr__(self):
        return f"ExplicitSpectrum({self.values.tolist()!r})"


# ---------------------------------------------------------------------------
# tracial states on the B-family
# ---------------------------------------------------------------------------


class TracialState:
    """Evaluator of the unital tracial state on pure-B words."""

    def tau(self, w: Word) -> complex:
        raise NotImplementedError


def _check_pure_b(w: Word) -> None:
    if not is_pure(w, FAMILY_B):
        raise NotInDomainError(f"state is defined on pure-B words only: {word_str(w)}")


def _agree(x: complex, y: complex) -> bool:
    """Whether two state values agree up to rounding at their magnitude."""
    return abs(x - y) <= rounding_tolerance(1e-12, max(abs(x), abs(y)))


@functools.cache
def _noncrossing_pairings(names: tuple) -> int:
    """The limit state of a word in independent standard semicircles, given
    as one name per letter (a word in independent GUE matrices, by
    Voiculescu's asymptotic freeness): the number of its non-crossing
    pairings of equal names.  The first letter pairs with an equal one at an
    odd distance, and the letters inside and outside that pair are counted
    apart."""
    if not names:
        return 1
    return sum(_noncrossing_pairings(names[1:k]) * _noncrossing_pairings(names[k + 1:])
               for k in range(1, len(names), 2) if names[k] == names[0])


class _SemicircleState(TracialState):
    """The limit state of B letters that multiply independent GUE matrices
    (Voiculescu's asymptotic freeness): ``names`` maps each letter to the
    names of the GUEs it multiplies, and a word's value is the
    :func:`_noncrossing_pairings` of their names.  It needs no degree cap.
    A word over another letter raises ``DegreeExceededError`` naming
    b_spec's law, the state's source."""

    def __init__(self, names: Mapping[Letter, tuple]):
        self.names = names

    def tau(self, w: Word) -> complex:
        _check_pure_b(w)
        if not all(letter.base() in self.names for letter in w):
            raise DegreeExceededError(f"b_spec's law has no value for {word_str(w)}")
        return complex(_noncrossing_pairings(sum((self.names[letter.base()] for letter in w), ())))


def _is_json_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_json_integer(value) -> bool:
    """JSON Schema's ``integer``: an int or an integral float such as ``40.0``."""
    return _is_json_number(value) and (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    )


class MomentTable(TracialState):
    """Finite table of state values on pure-B words up to a degree cap.

    Keys are canonicalized to their minimal cyclic rotation (traciality), and
    the adjoint of a stored word is looked up as the conjugate value.  Entries
    that collide after canonicalization, and stored adjoint pairs, must agree
    within ``rounding_tolerance(1e-12, max(|x|, |y|))``, and every value must be
    finite.  Values are memoized per word for the table's lifetime: a table
    holds a few runs, which every later sweep reads again.
    """

    def __init__(self, moments: Mapping[Word, complex], degree_cap: int | None = None):
        table: dict[Word, complex] = {}
        max_degree = 0
        for word, value in moments.items():
            word = tuple(word)
            _check_pure_b(word)
            value = complex(value)
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"the state of {word_str(word)} must be finite, not {value!r}")
            if not word:
                if not _agree(value, 1):
                    raise ValueError("the state of the unit word must be 1")
                continue
            max_degree = max(max_degree, len(word))
            canon = min_cyclic_rotation(word)
            if canon in table and not _agree(table[canon], value):
                raise ValueError(
                    f"inconsistent values for the rotation class of {word_str(word)}"
                )
            table[canon] = value
        for canon, value in table.items():
            conj_key = min_cyclic_rotation(word_adjoint(canon))
            if conj_key in table and not _agree(table[conj_key], value.conjugate()):
                raise ValueError(
                    f"adjoint inconsistency for {word_str(canon)}: "
                    "stored values violate tau(w*) = conj(tau(w))"
                )
        self._table = table
        self.degree_cap = degree_cap if degree_cap is not None else max_degree
        self._values = _Memo(functools.partial(self._tau, table, self.degree_cap))

    @classmethod
    def from_b_powers(cls, powers: Mapping[int, complex]) -> "MomentTable":
        """Table for the one generator ``b1`` given ``{m: tau(b1**m)}``."""
        return cls({(b_gen(1),) * m: value for m, value in powers.items()})

    @classmethod
    def from_json_doc(cls, doc: Mapping) -> "MomentTable":
        """Load ``{"degree_cap": d, "moments": {"b1*b1": [re, im], ...}}``.

        A value is a number, ``[re]`` or ``[re, im]``, and ``d`` an integer
        >= 1 (an integral float such as ``4.0`` counts); anything else, or
        another key, raises ``ValueError``.
        """
        if not isinstance(doc, Mapping) or not isinstance(doc.get("moments", {}), Mapping):
            raise ValueError("a moment table is an object with a 'moments' object")
        for key in doc:
            if key not in ("degree_cap", "moments"):
                raise ValueError(f"{key!r} is not a key of a moment table")
        cap = doc.get("degree_cap")
        if "degree_cap" in doc and not (_is_json_integer(cap) and cap >= 1):
            raise ValueError(f"degree_cap must be an integer >= 1, not {cap!r}")
        moments = {}
        for key, value in doc.get("moments", {}).items():
            pair = isinstance(value, (list, tuple)) and 1 <= len(value) <= 2
            if not (_is_json_number(value) or pair and all(map(_is_json_number, value))):
                raise ValueError(
                    f"moment {key!r} must be a number, [re] or [re, im], not {value!r}"
                )
            poly = parse_expression(key, auto_symbols(key))
            if len(poly.terms) != 1:
                raise ValueError(f"moment key {key!r} must be a single word")
            (word, coeff), = poly.terms.items()
            if coeff != 1:
                raise ValueError(f"moment key {key!r} must have coefficient 1")
            if pair:
                value = complex(value[0], value[1] if len(value) > 1 else 0.0)
            moments[word] = complex(value)
        return cls(moments, degree_cap=cap)

    @classmethod
    def from_json(cls, path) -> "MomentTable":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_doc(json.load(fh))

    def tau(self, w: Word) -> complex:
        return self._values[w]

    @staticmethod
    def _tau(table: Mapping[Word, complex], degree_cap: int, w: Word) -> complex:
        _check_pure_b(w)
        if not w:
            return 1 + 0j
        if len(w) > degree_cap:
            raise DegreeExceededError(
                f"word degree {len(w)} exceeds table cap {degree_cap}"
            )
        canon = min_cyclic_rotation(w)
        if canon in table:
            return table[canon]
        conj_key = min_cyclic_rotation(word_adjoint(w))
        if conj_key in table:
            return table[conj_key].conjugate()
        raise DegreeExceededError(f"no table entry for {word_str(w)}")


def _square_matrices(matrices: Mapping[int, np.ndarray], what: str):
    """A matrix model's generators as complex arrays, and their one dimension;
    ``ValueError`` for a NaN or infinite entry."""
    if not matrices:
        raise ValueError(f"matrix {what} needs at least one generator")
    mats = {int(index): np.asarray(mat, dtype=complex) for index, mat in matrices.items()}
    if any(arr.ndim != 2 or arr.shape[0] != arr.shape[1] for arr in mats.values()):
        raise DimensionMismatchError(f"{what} matrices must be square")
    dims = {arr.shape[0] for arr in mats.values()}
    if len(dims) > 1:
        raise DimensionMismatchError(f"{what} matrices must share one dimension")
    for index, arr in mats.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"matrix {what}: generator {index} has a non-finite entry")
    return mats, dims.pop()


class TraceMatrixState(TracialState):
    """Concrete matrix model: the state is the normalized trace.

    The state keeps only its letters, in a letter table as the weight's
    (:class:`WordProducts`), and no value or product: each word is
    multiplied out when asked, left to right from the table, in the
    ``prod.dot(mat)`` steps of ``WordProducts.product``.  The matrices must
    not be mutated after the model is built.
    """

    def __init__(self, matrices: Mapping[int, np.ndarray]):
        self.matrices, self.dim = _square_matrices(matrices, "state")
        self._letters = _Memo(functools.partial(_letter_matrix, self.matrices))

    def tau(self, w: Word) -> complex:
        _check_pure_b(w)
        if not w:
            return 1 + 0j
        prod = functools.reduce(np.ndarray.dot, map(self._letters.__getitem__, w))
        return complex(_add_reduce(prod.diagonal())) / self.dim


# ---------------------------------------------------------------------------
# trace-class models for the A-family
# ---------------------------------------------------------------------------


class TraceClassModel:
    """Evaluator of the tracial weight on pure-A words, plus numeric truncations."""

    truncation: int | None

    def omega(self, w: Word) -> complex:
        raise NotImplementedError

    def omega_many(self, codes: Sequence[str], code: WordCode) -> list[complex]:
        """The weights of the words of ``codes`` under ``code``, each decoded
        and asked of :meth:`omega`.  A model may evaluate them as one batch."""
        return [self.omega(w) for w in map(code.decode, codes)]

    def _batched_weights(self, code: WordCode) -> Mapping[str, complex]:
        """The weights a batch of :meth:`omega_many` left for the next
        sweep, keyed by code under ``code``; a model keeps none unless it
        says so."""
        return {}

    def _drop_sweep(self) -> None:
        """Forget what the model keeps for one sweep (:func:`_sweep`); only a
        matrix model keeps anything."""

    def diagonal(self, index: int, size: int | None = None) -> np.ndarray | None:
        """The 1-D complex diagonal of generator ``index``'s realization, or
        ``None`` when that realization is not diagonal."""
        raise NotImplementedError

    def realization(self, index: int, size: int | None = None) -> np.ndarray:
        """The dense matrix of generator ``index`` realized at ``size``."""
        return np.diag(self.diagonal(index, size))


def _check_pure_a_nonempty(w: Word) -> None:
    if not w:
        raise NotInDomainError("the unit word is not in the domain of the weight")
    if not is_pure(w, FAMILY_A):
        raise NotInDomainError(f"weight is defined on pure-A words only: {word_str(w)}")


def _realized_size(size: int | None, truncation: int | None) -> int:
    n = size if size is not None else truncation
    if n is None:
        raise ValueError("analytic spectra need an explicit truncation to realize")
    return n


def _shared_spectra(spectra: Mapping[int, Spectrum]):
    """A spectrum model's generators, and their one truncation count."""
    if not spectra:
        raise ValueError("spectrum family needs at least one generator")
    spectra = {int(i): s for i, s in spectra.items()}
    counts = {s.count for s in spectra.values()}
    if len(counts) > 1:
        raise DimensionMismatchError("all spectra in a family must share one truncation count")
    return spectra, counts.pop()


class SpectrumFamily(TraceClassModel):
    """Commuting family of selfadjoint generators, simultaneously diagonal.

    Each generator carries its own eigenvalue sequence; words evaluate as
    entrywise products of the sequences.  All spectra must agree on the
    truncation count, or all be analytic geometric sequences.  Values are
    memoized per word, so the spectra must not be mutated after the family
    is built.
    """

    def __init__(self, spectra: Mapping[int, Spectrum]):
        self.spectra, self.truncation = _shared_spectra(spectra)
        self._values = _Memo(functools.partial(self._omega, self.spectra, self.truncation))

    @staticmethod
    def _spectrum(spectra: Mapping[int, Spectrum], index: int) -> Spectrum:
        spec = spectra.get(index)
        if spec is None:
            raise NotInDomainError(f"no spectrum for generator index {index}")
        return spec

    def omega(self, w: Word) -> complex:
        return self._values[w]

    @staticmethod
    def _omega(spectra: Mapping[int, Spectrum], truncation: int | None, w: Word) -> complex:
        _check_pure_a_nonempty(w)
        for letter in w:
            SpectrumFamily._spectrum(spectra, letter.index)
        if truncation is None:
            scale = 1.0
            ratio = 1.0
            for letter in w:
                spec = spectra[letter.index]
                scale *= spec.scale
                ratio *= spec.ratio
            return complex(scale / (1.0 - ratio))
        vals = np.ones(truncation)
        for letter in w:
            vals = vals * spectra[letter.index].eigenvalues(truncation)
        return complex(np.sum(vals))

    def diagonal(self, index: int, size: int | None = None) -> np.ndarray:
        spec = self._spectrum(self.spectra, index)
        return spec.eigenvalues(_realized_size(size, self.truncation)).astype(complex)


class MatrixTraceFamily(TraceClassModel):
    """Concrete matrix family; the weight is the unnormalized trace.

    Hermitian matrices give the selfadjoint semantics the recipes expect,
    but general square matrices are accepted for oracle cross-checks.  No
    value is memoized: each is multiplied out when asked, from the prefix
    products of the last word (:class:`WordProducts`).  The weights of the
    last :meth:`omega_many` batch are kept, by code with the A-letters of
    their ``WordCode``, until a sweep ends: ``linred.chain_moment`` leaves
    them for the next coded sweep (:class:`CodedSweep`) to start from.  The
    matrices must not be mutated after the family is built.
    """

    def __init__(self, matrices: Mapping[int, np.ndarray]):
        self.matrices, self.truncation = _square_matrices(matrices, "family")
        self._products = WordProducts(self.matrices, self.truncation)
        # the A-letters of the last batch's WordCode, and its weights by code
        self._batch: tuple[tuple[Letter, ...], dict[str, complex]] = ((), {})

    def omega(self, w: Word) -> complex:
        _check_pure_a_nonempty(w)
        return complex(_add_reduce(self._products.product(w).diagonal()))

    def omega_many(self, codes: Sequence[str], code: WordCode) -> list[complex]:
        """The weights of the words of ``codes`` under ``code``, bitwise equal
        to :meth:`omega`'s, as one batch of ``WordProducts.traces`` in the
        given order (sorted codes, as ``linred.chain_moment`` passes, share
        the most prefixes).

        No code is decoded, and the prefix stack is left alone: the values
        are kept as the batch, keyed by code with the A-letters of ``code``,
        for the next coded sweep to start from (:meth:`_batched_weights`);
        the batch replaces the last one.  A word outside the domain raises
        the error of :meth:`omega` (``WordProducts.traces`` checks), and then
        nothing is multiplied or kept.  No codes give ``[]``.
        """
        values = self._products.traces(codes, code)
        self._batch = code.letters[:code.a_count], dict(zip(codes, values))
        return values

    def _batched_weights(self, code: WordCode) -> Mapping[str, complex]:
        """The last batch's weights by code, if ``code`` has the A-letters of
        its ``WordCode``, else none.  The A-letters take the lowest codes, so
        under equal A-letters a code names the same A-word in both."""
        letters, values = self._batch
        return values if letters == code.letters[:code.a_count] else {}

    def _drop_sweep(self) -> None:
        self._products._drop_stack()
        self._batch = (), {}

    def realization(self, index: int, size: int | None = None) -> np.ndarray:
        if index not in self.matrices:
            raise NotInDomainError(f"no matrix for generator index {index}")
        mat = self.matrices[index]
        if size is not None and size != mat.shape[0]:
            raise DimensionMismatchError(
                f"matrix generator has dimension {mat.shape[0]}, not {size}"
            )
        return mat

    def diagonal(self, index: int, size: int | None = None) -> np.ndarray | None:
        mat = self.realization(index, size)
        diagonal = np.diagonal(mat)
        return diagonal if np.count_nonzero(mat) == np.count_nonzero(diagonal) else None


class HaarConjugatedFamily(TraceClassModel):
    """Limit model of independently rotated copies with given spectra.

    Mixed words (two or more distinct generator indices) evaluate to exactly
    0, the limiting value; single-generator words evaluate through the
    spectrum power sums.  The realization at size n is this limit exactly:
    with k generators, the i-th in index order is its truncated diagonal on
    the i-th coordinate block of n in a space of k*n, and zero elsewhere, so
    every mixed word multiplies out to exactly 0 and nothing is drawn.
    """

    def __init__(self, spectra: Mapping[int, Spectrum]):
        self.spectra, self.truncation = _shared_spectra(spectra)

    def omega(self, w: Word) -> complex:
        _check_pure_a_nonempty(w)
        seen = set()
        for letter in w:
            if letter.index not in self.spectra:
                raise NotInDomainError(f"no spectrum for generator {letter.label()}")
            seen.add(letter.index)
        if len(seen) > 1:
            return 0j
        index = seen.pop()
        return complex(self.spectra[index].power_sum(len(w)))

    def diagonal(self, index: int, size: int | None = None) -> np.ndarray:
        if index not in self.spectra:
            raise NotInDomainError(f"no spectrum for generator index {index}")
        n = _realized_size(size, self.truncation)
        block = sorted(self.spectra).index(index)
        out = np.zeros(len(self.spectra) * n, dtype=complex)
        out[block * n:(block + 1) * n] = self.spectra[index].eigenvalues(n)
        return out


# ---------------------------------------------------------------------------
# the cyclic-monotone moment oracle
# ---------------------------------------------------------------------------


def _decoded(evaluate, decode, c: str) -> complex:
    """``evaluate`` of the word that ``decode`` gives for the code ``c``."""
    return evaluate(decode(c))


class CodedSweep:
    """What :func:`cm_moment`'s coded form reads over one sweep of codes.

    The codes are those of ``code`` (a :class:`~cyclospec.ncalg.WordCode`),
    whose A-letters take the lowest codes.  Two ``str.translate`` tables
    factor a code: ``a_to_cut`` turns each A-letter into ``cut``, a
    character that is no code, at which ``str.split`` cuts the B-runs
    apart, and ``drop_b`` drops the B-letters, which leaves the A-word.
    ``taus`` and ``omegas``, each a :class:`_Memo`, hold the state value of
    each B-run code and the weight of each A-word code; they live as long as
    the sweep, and decode a code and ask ``b_state.tau`` or ``a_model.omega``
    only when it first misses.  ``omegas`` starts from the weights
    ``a_model`` batched by code (``_batched_weights``), which it keeps only
    for a ``WordCode`` with the same A-letters: the A-letters take the lowest
    codes, so then a code names the same A-word in both, although
    ``linred.chain_moment`` codes only the A-matrices' letters.
    """

    __slots__ = ("code", "cut", "a_to_cut", "drop_b", "taus", "omegas")

    def __init__(self, code: WordCode, a_model: TraceClassModel, b_state: TracialState):
        a_count, count = code.a_count, len(code.letters)
        # translate reads a list table in about half the time of a dict one
        # (0.43 against 0.80 us a code of an oracle-chains pass, 2-vCPU x86)
        self.code = code
        self.cut = chr(count)
        self.a_to_cut = [self.cut] * a_count + [chr(rank) for rank in range(a_count, count)]
        self.drop_b = [chr(rank) for rank in range(a_count)] + [None] * (count - a_count)
        self.taus = _Memo(functools.partial(_decoded, b_state.tau, code.decode))
        self.omegas = _Memo(functools.partial(_decoded, a_model.omega, code.decode),
                            a_model._batched_weights(code))


def cm_moment(
    w: Word | str,
    a_model: TraceClassModel | CodedSweep,
    b_state: TracialState | None,
) -> complex:
    """Mixed moment of a word through the factorization formula.

    The word is decomposed into maximal runs; a leading B-run is rotated into
    the trailing one by traciality.  The value is the weight of the A-letters
    in order, times the product of the state values of the B-runs.

    ``cm_moment(w, a_model, b_state)``, on a tuple of letters, is the
    definition.  One forward pass factors the word: after the leading B-run,
    each A-letter joins the A-word and closes the B-run before it, whose
    state value is taken at once.  The state values multiply in run order,
    the rotated run last, and the weight multiplies last of all.

    ``cm_moment(c, sweep, None)`` is the coded form, on the code ``c`` of a word
    under a :class:`CodedSweep`'s ``WordCode``.  It cuts the code at its
    A-letters, drops the B-codes for the A-word, and reads the values through
    the sweep's code-keyed memos; a run or an A-word is decoded only when it
    first misses.  The multiplications and the errors are those of the
    definition, so the two forms agree bitwise.
    """
    if b_state is None:
        # the B-runs before, between and after the A-letters; a code without
        # an A-letter is one run
        runs = w.translate(a_model.a_to_cut).split(a_model.cut)
        if len(runs) == 1:
            raise _no_a_letter(a_model.code.decode(w))
        taus = a_model.taus
        value = 1 + 0j
        for run in runs[1:-1]:
            if run:
                value *= taus[run]
        run = runs[-1] + runs[0]
        if run:
            value *= taus[run]
        return value * a_model.omegas[w.translate(a_model.drop_b)]
    tau = b_state.tau
    letters = iter(w)
    leading = []
    # letter[0] is letter.family: a NamedTuple field read by name costs about 3x
    for letter in letters:
        if letter[0] == FAMILY_A:
            break
        leading.append(letter)
    else:
        raise _no_a_letter(w)
    a_word = [letter]
    run: list[Letter] = []
    value = 1 + 0j
    for letter in letters:
        if letter[0] != FAMILY_A:
            run.append(letter)
        else:
            if run:
                value *= tau(tuple(run))
                run = []
            a_word.append(letter)
    run += leading
    if run:
        value *= tau(tuple(run))
    return value * a_model.omega(tuple(a_word))


def _no_a_letter(w: Word) -> NotInDomainError:
    return NotInDomainError(
        f"word {word_str(w)} contains no A-letter, so it lies outside the weight domain"
    )


def _sweep(
    terms: Mapping,
    a_model: TraceClassModel,
    b_state: TracialState,
    code: WordCode | None = None,
) -> complex:
    """The sum of ``coeff * cm_moment(key, ...)`` over ``terms`` in key order,
    that of ``NCPolynomial.sorted_terms``.  With ``code`` the keys are its
    codes, whose order is their words', read through one :class:`CodedSweep`.
    The weight's sweep ends when the sum returns or raises."""
    # positional models and a key-only sort: *models with whole-item compares
    # read the unreduced chain path 18-20% slower, and terms[key] after a
    # sort of the keys hashes each tuple word again (poly_moment +4-6%)
    first, second = (a_model, b_state) if code is None else (
        CodedSweep(code, a_model, b_state), None)
    total = 0j
    try:
        for key, coeff in sorted(terms.items(), key=itemgetter(0)):
            total += coeff * cm_moment(key, first, second)
    finally:
        a_model._drop_sweep()
    return total


def poly_moment(p, m: int, a_model: TraceClassModel, b_state: TracialState) -> complex:
    """Linear extension of :func:`cm_moment` over the expansion of ``p**m``."""
    if m < 1:
        raise ValueError("moment order must be >= 1")
    return _sweep((p**m).terms, a_model, b_state)


def collapse_internal_b_runs(w: Word, b_state: TracialState) -> tuple[complex, Word]:
    """Replace each interior maximal B-run of ``w`` by its state value.

    ``w`` must begin and end with A-letters.  Returns the scalar product of
    the collapsed state values and the concatenated A-letters; seen as a
    composite A-element, the replacement leaves every mixed moment unchanged.
    """
    w = tuple(w)
    if not w or w[0].family != FAMILY_A or w[-1].family != FAMILY_A:
        raise NotInDomainError(
            "collapse requires a word that begins and ends with A-letters"
        )
    form = alternating_form(w)
    scalar = 1 + 0j
    reduced: list[Letter] = []
    for a_block, b_block in form.blocks:
        reduced.extend(a_block)
        if b_block:
            scalar *= b_state.tau(b_block)
    return scalar, tuple(reduced)
