"""Matrices over the polynomial algebra and the eigenvalue-multiset recipes.

The reduction step replaces a pure-B matrix by the scalar matrix of its
entrywise state values.  Chain traces are evaluated twice over: a reduced
path (fold the scalar matrices into coefficients, evaluate the remaining
pure-A polynomial with the weight) and an unreduced path (expand everything
and hand each word to the moment oracle).  The two paths are deliberately
independent so they can cross-check each other.

Matrix products, traces and trace powers are module functions over grids of
term maps (``grid_product``, ``grid_scaled``, ``grid_trace``,
``grid_power_trace``); ``AlgMatrix``'s ``@`` runs the products, and an
ndarray on either side raises ``TypeError``.  Both chain paths run the
same functions on the ``ncalg.WordCode`` codes of their words, one character
per letter, and hand the codes on: the weight model takes the reduced
path's codes as one batch, and ``poly_moment``'s sweep factors each
unreduced code itself.  A code's order is its word's order, so sorting the
codes visits the words in ``sorted_terms`` order, and every value is
bitwise that of the same arithmetic on words.

:func:`ev_polynomial` derives the multiset of any polynomial by the same
reduction; each closed-form recipe is one of its corollaries, derived by
hand.  Every prediction is a :class:`Prediction`: the eigenvalue multiset
and the derived scalars it used.  A recipe builds its matrix, checks its
state values and sizes, and hands the matrix to ``spectra``, which solves
every spectrum and refuses it (``sqrtm_psd`` is ``spectra``'s too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import ncalg
from .cmcalc import (
    Spectrum,
    TraceClassModel,
    TracialState,
    _sweep,
)
from .dense import _generators, _word_product, dense_block_matrix
from .errors import (
    DimensionMismatchError,
    NotInDomainError,
    NotPositiveError,
    NotSelfadjointError,
)
from .ncalg import (
    FAMILY_A,
    FAMILY_B,
    Letter,
    NCPolynomial,
    WordCode,
    _add_terms,
    _polynomial,
    _product_terms,
    _scaled_terms,
    _sum_terms,
    alternating_form,
    drop_stars,
    word_adjoint,
    word_str,
)
from .spectra import (
    HERMITICITY_TOL,
    EVMultiset,
    _diagonal_spectrum,
    _hermitian_gate,
    _real_spectrum,
    hermitian_spectrum,
    rounding_tolerance,
    sqrtm_psd,
)

EIGENVALUE_IMAG_TOL = 1e-9
SUM_BAC_HERMITIAN_TOL = 1e-14
CHAIN_IMAG_REL_TOL = 1e-8


class AlgMatrix:
    """Square or rectangular matrix with polynomial entries."""

    def __init__(self, rows: Sequence[Sequence]):
        entries: list[list[NCPolynomial]] = []
        width = None
        for row in rows:
            out_row = []
            for cell in row:
                if isinstance(cell, NCPolynomial):
                    out_row.append(cell)
                elif isinstance(cell, (int, float, complex)):
                    out_row.append(NCPolynomial.scalar(cell))
                elif isinstance(cell, str):
                    out_row.append(ncalg.parse_expression(cell, ncalg.auto_symbols(cell)))
                else:
                    raise TypeError(f"cannot use {type(cell).__name__} as a matrix entry")
            if width is None:
                width = len(out_row)
            elif len(out_row) != width:
                raise DimensionMismatchError("ragged matrix rows")
            entries.append(out_row)
        if not entries or width == 0:
            raise DimensionMismatchError("matrix must be nonempty")
        self.entries = entries
        self.shape = (len(entries), width)

    def purity(self) -> str:
        """One of ``"a"``, ``"b"`` or ``"mixed"``.

        Pure-A matrices must not contain the unit word; scalar entries are
        compatible with the B-side algebra, which contains the unit.
        """
        families = set()
        has_unit = False
        for row in self.entries:
            for poly in row:
                families |= poly.families()
                has_unit = has_unit or poly.contains_unit()
        if FAMILY_A in families:
            return "mixed" if (FAMILY_B in families or has_unit) else FAMILY_A
        return FAMILY_B

    def adjoint(self) -> "AlgMatrix":
        n, m = self.shape
        return AlgMatrix(
            [[self.entries[j][i].adjoint() for j in range(n)] for i in range(m)]
        )

    def is_selfadjoint(self) -> bool:
        n, m = self.shape
        if n != m:
            return False
        for i in range(n):
            for j in range(n):
                diff = self.entries[i][j] - self.entries[j][i].adjoint()
                if not drop_stars(diff).is_zero():
                    return False
        return True

    def grid(self) -> list[list[dict]]:
        """The entries' term maps, row by row (shared with the entries, not copied)."""
        return [[poly.terms for poly in row] for row in self.entries]

    @classmethod
    def from_grid(cls, grid) -> "AlgMatrix":
        """The matrix whose entries have the given canonical term maps."""
        return cls([[_polynomial(terms) for terms in row] for row in grid])

    def __matmul__(self, other: "AlgMatrix") -> "AlgMatrix":
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatchError("matrix product dimension mismatch")
        return AlgMatrix.from_grid(grid_product(self.grid(), other.grid()))

    # ``ndarray @ AlgMatrix`` raises TypeError, as ``AlgMatrix @ ndarray`` does,
    # instead of treating the matrix as a 0-d object array
    __array_ufunc__ = None


# ---------------------------------------------------------------------------
# matrix kernels over grids of term maps
# ---------------------------------------------------------------------------
#
# A grid is a list of rows of term maps (``NCPolynomial.terms``).  The kernels
# only multiply and add term maps with the ncalg kernels, which never look
# inside a key, so they run alike on words and on ``WordCode`` codes.  Every
# entry is accumulated as the chain of ``+`` over its products in index
# order, so the terms are bitwise those of the same sums of polynomials.


def grid_product(left, right) -> list[list[dict]]:
    """``left @ right`` for two grids of matching shapes."""
    inner = range(len(right))
    cols = range(len(right[0]))
    return [
        [_sum_terms(_product_terms(row[p], right[p][j]) for p in inner) for j in cols]
        for row in left
    ]


def grid_scaled(left, scalar: np.ndarray) -> list[list[dict]]:
    """``left @ scalar`` for a 2-D complex array; zero entries are skipped."""
    return [
        [_sum_terms(_scaled_terms(row[p], c) for p, c in enumerate(scalar[:, j]) if c != 0)
         for j in range(scalar.shape[1])]
        for row in left
    ]


def grid_trace(grid) -> dict:
    return _sum_terms(grid[i][i] for i in range(len(grid)))


def grid_power_trace(grid, m: int) -> dict:
    """The trace of ``grid @ grid @ ...`` (``m`` factors, multiplied from the
    left), forming only the diagonal of the last product; its entries and
    their sum are accumulated as ``grid_product`` and ``grid_trace`` would,
    so the terms are bitwise equal."""
    if m == 1:
        return grid_trace(grid)
    left = grid
    for _ in range(m - 2):
        left = grid_product(left, grid)
    n = len(grid)
    return _sum_terms(
        _sum_terms(_product_terms(left[i][p], grid[p][i]) for p in range(n))
        for i in range(n)
    )


@dataclass
class Prediction:
    """An eigenvalue-multiset prediction with the scalars that produced it."""

    multiset: EVMultiset
    recipe: str
    parameters: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "recipe": self.recipe,
            "parameters": _jsonable(self.parameters),
            "provenance": _jsonable(self.provenance),
            "eigenvalues": self.multiset.to_list(),
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value) and np.max(np.abs(value.imag), initial=0) > 0:
            return [_jsonable(v) for v in value.tolist()]
        return np.real(value).tolist()
    if isinstance(value, complex):
        return [value.real, value.imag] if value.imag else value.real
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# reduction and chain traces
# ---------------------------------------------------------------------------


def reduce_b_matrix(b_matrix: AlgMatrix, b_state: TracialState) -> np.ndarray:
    """Entrywise state evaluation of a pure-B matrix."""
    if b_matrix.purity() != FAMILY_B:
        raise NotInDomainError("reduction applies to pure-B matrices only")
    n, m = b_matrix.shape
    out = np.zeros((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            acc = 0j
            for word, coeff in b_matrix.entries[i][j].sorted_terms():
                acc += coeff * b_state.tau(word)
            out[i, j] = acc
    return out


def _validate_chain(chain: Sequence[AlgMatrix]) -> None:
    if len(chain) < 2 or len(chain) % 2 != 0:
        raise DimensionMismatchError("chain must alternate A- and B-matrices in pairs")
    for pos, mat in enumerate(chain):
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("chain matrices must be square")
        if mat.shape != chain[0].shape:
            raise DimensionMismatchError("chain matrices must share one dimension")
        if pos % 2 == 0:
            if mat.purity() != FAMILY_A:
                raise NotInDomainError(
                    "A-positions must hold pure-A matrices without the unit word"
                )
        elif mat.purity() != FAMILY_B:
            raise NotInDomainError("B-positions must hold pure-B matrices")


def _coded_grids(mats: Sequence[AlgMatrix]) -> tuple[WordCode, list]:
    """A :class:`WordCode` for the letters of ``mats`` and their coded grids."""
    code = WordCode(
        letter
        for mat in mats for row in mat.entries for poly in row
        for word in poly.terms for letter in word
    )
    return code, [[[code.encode_terms(terms) for terms in row] for row in mat.grid()]
                  for mat in mats]


def chain_moment(
    chain: Sequence[AlgMatrix],
    m: int,
    a_model: TraceClassModel,
    b_state: TracialState,
) -> complex:
    """Trace moment of an alternating chain after reducing every B-matrix.

    The scalar matrices fold into coefficients, the chain power stays a
    matrix of pure-A polynomials, and the words of its trace are evaluated by
    the weight as one sorted batch.  The polynomials are multiplied out over
    the :class:`WordCode` codes of their words, with the products and sums
    of the ``AlgMatrix`` arithmetic, and the weight takes the sorted,
    distinct codes with their ``WordCode`` (``omega_many(codes, code)``),
    none if the trace cancels; code order is word order.  A matrix state
    keeps nothing of the reduction.  A matrix weight keeps the batch by
    code, and a :func:`chain_moment_unreduced` of the same chain and models
    starts from it: its codes of the batch's A-words are the same, since
    both codes rank the same A-letters first, so it decodes none of them.
    """
    _validate_chain(chain)
    if m < 1:
        raise ValueError("moment order must be >= 1")
    code, a_grids = _coded_grids(chain[0::2])
    reduced = None
    for a_grid, b_matrix in zip(a_grids, chain[1::2]):
        step = grid_scaled(a_grid, reduce_b_matrix(b_matrix, b_state))
        reduced = step if reduced is None else grid_product(reduced, step)
    trace = grid_power_trace(reduced, m)
    del a_grids, reduced, step
    codes = sorted(trace)
    coeffs = [trace[c] for c in codes]
    del trace  # only the sorted codes are needed from here on
    total = 0j
    for coeff, value in zip(coeffs, a_model.omega_many(codes, code)):
        total += coeff * value
    return total


def chain_moment_unreduced(
    chain: Sequence[AlgMatrix],
    m: int,
    a_model: TraceClassModel,
    b_state: TracialState,
) -> complex:
    """Cross-check path: expand the unreduced chain and use the moment oracle.

    The expansion runs over :class:`WordCode` codes as :func:`chain_moment`
    does, and ``poly_moment``'s loop hands each code of the trace to
    ``cm_moment``'s coded form in code order, which is word order, through
    one ``CodedSweep``: a word is never decoded, only a B-run or an A-word
    when it first misses the sweep's memos, whose A-words start from the
    weights a :func:`chain_moment` on the same weight batched.  Exponential
    in the chain length; intended for small verification instances.
    """
    _validate_chain(chain)
    if m < 1:
        raise ValueError("moment order must be >= 1")
    code, grids = _coded_grids(chain)
    product = None
    for grid in grids:
        product = grid if product is None else grid_product(product, grid)
    trace = grid_power_trace(product, m)
    del grids, product, grid  # only the trace is needed from here on
    return _sweep(trace, a_model, b_state, code)


# ---------------------------------------------------------------------------
# numeric realization helpers
# ---------------------------------------------------------------------------


def _given_diagonal(a) -> np.ndarray | None:
    """The diagonal of an A-generator given as a :class:`Spectrum` or 1-D array."""
    if isinstance(a, Spectrum):
        return a.eigenvalues().astype(complex)
    arr = np.asarray(a, dtype=complex)
    return arr if arr.ndim == 1 else None


def realize_a(a) -> np.ndarray:
    """Numeric matrix for one A-generator description.

    Accepts a :class:`Spectrum` with a count (its diagonal), a square
    matrix, or a one-dimensional array of eigenvalues.
    """
    diagonal = _given_diagonal(a)
    if diagonal is not None:
        return np.diag(diagonal)
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    raise DimensionMismatchError("cannot realize this object as an A-generator")


def eigenvalue_multiset(a) -> EVMultiset:
    """Eigenvalue multiset of one A-generator description; a diagonal is
    accepted or refused as its ``np.diag`` is."""
    diagonal = _given_diagonal(a)
    if diagonal is not None:
        return _diagonal_spectrum(diagonal)
    return hermitian_spectrum(realize_a(a))


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        out[pos : pos + b.shape[0], pos : pos + b.shape[0]] = b
        pos += b.shape[0]
    return out


def _realized_blocks(a_list):
    blocks = [realize_a(a) for a in a_list]
    return blocks, _shared_dimension(b.shape[0] for b in blocks)


def _shared_dimension(dims) -> int:
    dims = set(dims)
    if len(dims) != 1:
        raise DimensionMismatchError("blocks and A-generator realizations must share one size")
    return dims.pop()


# ---------------------------------------------------------------------------
# eigenvalue recipes
# ---------------------------------------------------------------------------


def ev_sum_bab(a_list, gram) -> Prediction:
    """Multiset of the Gram-sandwiched block diagonal of the generators.

    ``gram[i, j]`` holds the state value of ``b_i* b_j``; the prediction is
    the spectrum of ``(sqrt(gram) x I) . blockdiag(a_1..a_k) . (sqrt(gram) x I)``.
    """
    gram = np.asarray(gram, dtype=complex)
    root = sqrtm_psd(gram)
    blocks, n = _realized_blocks(a_list)
    if gram.shape[0] != len(blocks):
        raise DimensionMismatchError("Gram size must match the number of generators")
    lift = np.kron(root, np.eye(n))
    multiset = hermitian_spectrum(lift @ _block_diag(blocks) @ lift)
    return Prediction(
        multiset=multiset,
        recipe="sum_bab",
        parameters={"k": len(blocks), "truncation": n},
        provenance={"gram": gram},
    )


def _real_states(values, label: str) -> np.ndarray:
    """The state values ``label``, which must be finite and then real, as reals."""
    values = np.asarray(values, dtype=complex)
    if not np.isfinite(values).all():
        raise NotSelfadjointError(f"non-finite state value: {label} = "
                                  f"{np.real_if_close(values).tolist()}")
    tol = rounding_tolerance(1e-12, float(np.abs(values).max(initial=0.0)))
    if np.abs(values.imag).max(initial=0.0) > tol:
        raise NotSelfadjointError(f"state values {label} must be real (selfadjoint generators)")
    return values.real


def _real_state_values(taus, a_list, letter: str):
    """``(taus, blocks, n)``: the real state values ``tau(<letter>_i)``, one
    per generator of ``a_list``, and its realized blocks."""
    taus = _real_states(taus, f"tau({letter}_i)")
    blocks, n = _realized_blocks(a_list)
    if taus.shape[0] != len(blocks):
        raise DimensionMismatchError("need one state value per generator")
    return taus, blocks, n


def ev_sum_aba(a_list, taus) -> Prediction:
    """Multiset of ``sum_i tau(b_i) a_i a_i*`` realized numerically."""
    taus, blocks, n = _real_state_values(taus, a_list, "b")
    acc = np.zeros((n, n), dtype=complex)
    for t, block in zip(taus, blocks):
        acc += t * (block @ block.conj().T)
    multiset = hermitian_spectrum(acc)
    return Prediction(
        multiset=multiset,
        recipe="sum_aba",
        parameters={"k": len(blocks), "truncation": n},
        provenance={"taus": taus},
    )


def _scaled_copies(recipe: str, a, slopes, parameters: dict, provenance: dict) -> Prediction:
    """The prediction of the spectrum of ``a`` scaled by each of the ``slopes`` in turn."""
    copies = np.outer(slopes, eigenvalue_multiset(a).values).ravel()
    return Prediction(EVMultiset(copies), recipe, parameters, provenance)


def ev_anticommutator(a, tau_b: float, tau_b2: float) -> Prediction:
    """Multiset of ``a b + b a`` from the two derived slopes."""
    tau_b, tau_b2 = map(float, _real_states((tau_b, tau_b2), "tau(b), tau(b^2)"))
    if tau_b2 < 0:
        raise NotPositiveError("tau(b^2) must be nonnegative")
    root = float(np.sqrt(tau_b2))
    p, q = root + tau_b, -root + tau_b
    return _scaled_copies("anticommutator", a, (p, q), {"tau_b": tau_b, "tau_b2": tau_b2},
                          {"p": p, "q": q})


def ev_commutator(a, tau_b: float, tau_b2: float) -> Prediction:
    """Multiset of ``i(a b - b a)``; the slope is the standard deviation of b."""
    tau_b, tau_b2 = map(float, _real_states((tau_b, tau_b2), "tau(b), tau(b^2)"))
    variance = tau_b2 - tau_b ** 2
    if variance < -rounding_tolerance(1e-12, abs(tau_b2)):
        raise NotPositiveError("tau(b^2) - tau(b)^2 is negative beyond tolerance; "
                               "inconsistent state table")
    r = float(np.sqrt(max(variance, 0.0)))
    return _scaled_copies("commutator", a, (r, -r), {"tau_b": tau_b, "tau_b2": tau_b2}, {"r": r})


def ev_sum_bac(a, bprime) -> Prediction:
    """Multiset of ``sum_i b_i a c_i``: scaled copies of the base spectrum.

    ``bprime[i, j]`` holds the state value of ``c_i b_j``; its eigenvalues
    are the scaling factors, from a copy of ``bprime`` at
    ``SUM_BAC_HERMITIAN_TOL``.  Eigenvalues with imaginary part beyond
    ``max(EIGENVALUE_IMAG_TOL, 64*eps*radius)`` refuse the prediction.
    """
    bprime = np.asarray(bprime, dtype=complex)
    if bprime.ndim != 2 or bprime.shape[0] != bprime.shape[1] or not bprime.size:
        raise DimensionMismatchError("reduced matrix must be square and nonempty")
    spectrum = _real_spectrum(bprime.copy(), SUM_BAC_HERMITIAN_TOL,
                              lambda radius: rounding_tolerance(EIGENVALUE_IMAG_TOL, radius))
    lams = np.sort(spectrum.values)[::-1]
    return _scaled_copies("sum_bac", a, lams, {"k": len(bprime)},
                          {"bprime": bprime, "lambdas": lams})


def ev_conjugated_sum(a_list, c_taus, gram) -> Prediction:
    """Multiset of ``sum_i b_i a_i c_i a_i* b_i*`` via the modified diagonal."""
    c_taus, blocks, n = _real_state_values(c_taus, a_list, "c")
    modified = [t * (block @ block.conj().T) for t, block in zip(c_taus, blocks)]
    inner = ev_sum_bab(modified, gram)
    return Prediction(
        multiset=inner.multiset,
        recipe="conjugated_sum",
        parameters={"k": len(blocks), "truncation": n},
        provenance={"gram": np.asarray(gram, dtype=complex), "c_taus": c_taus},
    )


# ---------------------------------------------------------------------------
# the polynomial compiler
# ---------------------------------------------------------------------------
#
# Each term ``u . core . v`` (u, v its leading and trailing B-runs) has its
# interior B-runs reduced to state values, so ``P = sum u A_uw w*`` with w the
# adjoint of v.  The nonzero spectrum of P is that of ``A (beta x I)``,
# ``beta_wu = tau(w* u)``: in a moment of P each ``v_i u_(i+1)`` is one maximal
# B-run.  Rows and columns pair in sorted order, u with u for a selfadjoint P
# (B-letters written without stars key the columns by the rows starred, which
# sort alike), so A is Hermitian and beta a Gram matrix.  A letter bound to a
# d x d block ``AlgMatrix`` stands for it, an unbound one for itself times
# the identity, and each reduction is entrywise (``reduce_b_matrix``).


def _run_grid(run, blocks: dict, dim: int) -> list[list[dict]]:
    """The grid of the product of the letters of ``run`` (the identity if empty)."""
    eye = range(dim)
    out = [[{(): 1 + 0j} if i == j else {} for j in eye] for i in eye]
    for pos, letter in enumerate(run):
        block = blocks.get(letter.base())
        if block is None:
            grid = [[{(letter,): 1 + 0j} if i == j else {} for j in eye] for i in eye]
        else:
            grid = (block.adjoint() if letter.star else block).grid()
        out = grid_product(out, grid) if pos else grid
    return out


def _reduce(poly: NCPolynomial, b_state: TracialState, blocks=None):
    """``(A, beta, rows, columns, d)``: the pure-A grid, the scalar matrix,
    their keys and the block size."""
    blocks = dict(blocks or {})
    for letter, block in blocks.items():
        if block.shape[0] != block.shape[1] or block.purity() != letter.family:
            raise NotInDomainError(f"{letter.label()} needs a square pure-{letter.family} block")
    dim = _shared_dimension(block.shape[0] for block in blocks.values()) if blocks else 1
    terms = []
    for word, coeff in poly.sorted_terms():
        a_at = [pos for pos, letter in enumerate(word) if letter.family == FAMILY_A]
        if not a_at:
            raise NotInDomainError(f"the term {word_str(word)} has no A-letter")
        form = alternating_form(word[a_at[0]:a_at[-1] + 1]).blocks
        terms.append((word[:a_at[0]], word_adjoint(word[a_at[-1] + 1:]), coeff, form))
    if not terms:
        raise NotInDomainError("the polynomial is 0: it has no term to reduce")
    rows = sorted({term[0] for term in terms})
    columns = sorted({term[1] for term in terms})

    def reduced(run):
        return reduce_b_matrix(AlgMatrix.from_grid(_run_grid(run, blocks, dim)), b_state)

    a_grid = [[{} for _ in range(len(columns) * dim)] for _ in range(len(rows) * dim)]
    for row, column, coeff, form in terms:
        core = None
        for a_run, b_run in form:
            grid = _run_grid(a_run, blocks, dim)
            core = grid if core is None else grid_product(core, grid)
            if b_run:
                core = grid_scaled(core, reduced(b_run))
        r, c = rows.index(row) * dim, columns.index(column) * dim
        for p, line in enumerate(core):
            for q, entry in enumerate(line):
                _add_terms(a_grid[r + p][c + q], _scaled_terms(entry, coeff))
    beta = np.block([[reduced(word_adjoint(column) + row) for row in rows] for column in columns])
    return a_grid, beta, rows, columns, dim


def ev_polynomial(
    poly: NCPolynomial,
    a_model: TraceClassModel,
    b_state: TracialState,
    truncation: int | None = None,
    blocks=None,
) -> Prediction:
    """Multiset of a polynomial: the spectrum of its ``A (beta x I)`` (see the
    comment above) over ``a_model``'s realizations; the oracle is never called.

    ``blocks`` maps base letters to square ``AlgMatrix`` blocks of one size,
    pure-A or pure-B by the letter.  A term without an A-letter raises
    ``NotInDomainError``; unequally many row and column keys, which no
    selfadjoint polynomial has, ``NotSelfadjointError``.  A is a stack of
    direct summands: n of k x k when the model gives every generator's
    diagonal, so nothing dense is realized, and otherwise one of k x k dense
    blocks.  One step solves either: the Hermitian sandwich when A is
    Hermitian and beta PSD, else the product ``A (beta x I)``, summand by
    summand."""
    return _reduction_spectrum(_reduce(poly, b_state, blocks), a_model, truncation)


def _reduction_spectrum(reduction, a_model: TraceClassModel, truncation: int | None) -> Prediction:
    """The :func:`ev_polynomial` of a :func:`_reduce` result."""
    if truncation is not None and truncation < 1:
        raise ValueError(f"truncation must be >= 1, not {truncation}")
    a_grid, beta, rows, columns, dim = reduction
    if len(rows) != len(columns):
        raise NotSelfadjointError(f"{len(rows)} leading B-runs against {len(columns)} "
                                  "trailing ones: the polynomial is not selfadjoint")
    cells = [[_polynomial(terms) for terms in row] for row in a_grid]
    generators = _generators(cells)
    diag = {letter: a_model.diagonal(letter.index, truncation) for letter in generators}
    # with every generator's diagonal given, nothing dense is realized
    mats = diag if all(d is not None for d in diag.values()) else {
        letter: np.asarray(a_model.realization(letter.index, truncation), dtype=complex)
        for letter in generators}
    n = truncation or a_model.truncation
    if mats:
        n = _shared_dimension(mat.shape[0] for mat in mats.values())
    elif n is None:  # A reduced to 0: P's spectrum is all zeros, of a size no input gives
        raise NotInDomainError("the polynomial reduces to 0, and no truncation sizes its spectrum")
    with np.errstate(over="ignore", invalid="ignore"):  # _stack_spectrum refuses an overflow
        if mats is diag:
            # A is the direct sum over j of the k x k matrices of its entries' j-th diagonal values
            lookup = {letter: (d, False) for letter, d in diag.items()}.__getitem__  # never written
            stack = np.zeros((n, len(a_grid), len(a_grid)), dtype=complex)
            for i, row in enumerate(a_grid):
                for j, entry in enumerate(row):
                    for word, coeff in sorted(entry.items()):
                        stack[:, i, j] += coeff * _word_product(word, lookup, n)
        else:
            stack = dense_block_matrix(cells, mats.get, n)[np.newaxis]
    multiset = _stack_spectrum(stack, beta)
    parameters = {"rows": list(map(word_str, rows)), "columns": list(map(word_str, columns)),
                  "dim": dim, "truncation": n}
    return Prediction(multiset, "polynomial", parameters, provenance={"beta": beta})


def _stack_spectrum(stack: np.ndarray, beta: np.ndarray) -> EVMultiset:
    """Spectrum of ``A (beta x I_s)``, A the direct sum of the summands of
    ``stack``, shape ``(m, k*s, k*s)``, each a k x k grid of s x s blocks.

    With A Hermitian and beta PSD it is that of the Hermitian sandwich
    ``(root x I_s) A (root x I_s)``, ``root = sqrt(beta)``; the gate
    symmetrizes A first, as the sandwich would scale its accepted asymmetry
    past the spectrum's own check.  Otherwise it is that of the product.
    Either is solved in place by :func:`_real_spectrum`, whose spectrum must
    be real: a sandwich its gate refuses goes to ``eigvals``, as a product
    does.  A non-finite entry of ``stack``, or of the product, is an overflow
    of its finite inputs, and raises ``ValueError``."""
    _refuse_overflow(stack)
    m, k = len(stack), len(beta)
    s = stack.shape[-1] // k
    # per summand and in-block column b, the k*s x k matrix of columns (q, b);
    # for s = 1, the summands themselves
    columns = stack.reshape(m, k * s, k, s).transpose(0, 3, 1, 2)
    try:  # the sandwich needs beta PSD, and A Hermitian, which the gate symmetrizes
        root = sqrtm_psd(beta)
        _hermitian_gate(stack, HERMITICITY_TOL)
    except (NotSelfadjointError, NotPositiveError):
        root = None
    with np.errstate(over="ignore", invalid="ignore"):
        if root is None:
            np.matmul(columns, beta, out=columns)
        else:
            rows = stack.reshape(m, k, -1)
            np.matmul(root, rows, out=rows)
            np.matmul(columns, root, out=columns)
    _refuse_overflow(stack)
    return _real_spectrum(stack, HERMITICITY_TOL,
                          lambda radius: CHAIN_IMAG_REL_TOL * max(radius, 1e-300))


def _refuse_overflow(stack: np.ndarray) -> None:
    if not np.isfinite(stack).all():
        raise ValueError("A (beta x I) overflows: the weight's realizations or the "
                         "state values are too large")


def ev_chain(
    b0: AlgMatrix,
    chain: Sequence[AlgMatrix],
    a_model: TraceClassModel,
    b_state: TracialState,
) -> Prediction:
    """Multiset of ``B0 A1 B1 ... Ak Bk``: :func:`ev_polynomial` of one word
    whose letters stand for the matrices, at ``a_model``'s truncation.  The
    chain is checked as :func:`chain_moment`'s is, and ``b0`` as the
    B-matrix of a pair with the chain's first matrix, before anything is
    multiplied.  The product must be selfadjoint for the spectrum to be real,
    which is verified symbolically with every generator selfadjoint."""
    _validate_chain(chain)
    _validate_chain([chain[0], b0])
    product = b0
    for mat in chain:
        product = product @ mat
    if not product.is_selfadjoint():
        raise NotSelfadjointError("chain product is not selfadjoint")
    letters = [Letter(FAMILY_B, len(chain))] + [  # B0's index is none of B1..Bk's
        Letter((FAMILY_A, FAMILY_B)[pos % 2], pos // 2 + 1) for pos in range(len(chain))]
    blocks = dict(zip(letters, [b0, *chain]))
    return ev_polynomial(NCPolynomial.from_word(letters), a_model, b_state, blocks=blocks)
