"""The one dense evaluator: words, polynomials and square grids of polynomials
multiplied out over numeric matrices bound to their generators.

Every walk reads a generator through one letter interface, ``lookup(base) ->
(matrix, released)``: the matrix of the unstarred letter ``base`` (2-D, a
1-D diagonal, or ``None`` if unbound), and whether no later letter or caller
reads it, so that it may be written over.

These are matrix-product primitives only, shared by predictions
(:mod:`cyclospec.linred`) and trials (:mod:`cyclospec.rmtlab`).  The oracle
(:mod:`cyclospec.cmcalc`) never calls them, and they import nothing from the
oracle, the reduction or the trials (``tests/test_independence.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError
from .ncalg import Letter, Word

# Rows or columns per block of a product written over one of its operands, and
# the side of a tile of a full-matrix Hermitian pass.  A multiple of 32: with
# OpenBLAS 0.3.31, products blocked in 128 rows or columns equal the one-shot
# product byte for byte (dims 199-1000 checked, odd ones included), while
# 150-column blocks differ at every dim tried.
BLOCK_WIDTH = 128


def _word_product(w: Word, lookup, dim: int) -> np.ndarray:
    """Product of the letters of ``w`` over ``lookup``, left to right; an
    adjoint letter reads its matrix's conjugate transpose.

    The product starts from the first letter's matrix, bitwise the loop
    ``I @ M1 @ M2 @ ...`` one product cheaper.  A diagonal letter scales
    columns (or, first, rows) instead: a real one as the matmul by
    ``np.diag(d)`` up to the sign of zeros, a complex one up to rounding.  A
    word of diagonal letters only (the empty word: ``dim`` ones) gives its
    1-D diagonal, and a one-letter word the bound matrix itself or a new
    adjoint.  A product formed here is written over by the next step: scaled
    in place, or overwritten block by block (:func:`_matmul_over`); one whose
    left operand is bound is written over its right one if that is released
    and shares no memory with the left.  Each step equals the out-of-place
    one bitwise.  ``DimensionMismatchError`` for an unbound letter.
    """
    if not w:
        return np.ones(dim, dtype=complex)
    prod = None
    mine = False  # whether prod may be written over
    for letter in w:
        mat, released = lookup(letter.base())
        if mat is None:
            raise DimensionMismatchError(f"no matrix bound to {letter.label()}")
        if letter.star:
            mat, released = mat.conj().T, True
        if prod is None:
            prod, mine = mat, released
        elif mat.ndim == 1:
            if mine:
                prod *= mat
            else:
                prod, mine = prod * mat, True
        elif prod.ndim == 1:
            prod, mine = prod[:, np.newaxis] * mat, True
        else:
            over = prod if mine else (
                mat if released and not np.may_share_memory(prod, mat) else None)
            prod, mine = _matmul_over(prod, mat, over), True
    return prod


def _matmul_over(left: np.ndarray, right: np.ndarray, over: np.ndarray | None) -> np.ndarray:
    """``left @ right`` of square matrices written over ``over``: over
    ``left`` ``BLOCK_WIDTH`` rows at a time, over ``right`` ``BLOCK_WIDTH``
    columns at a time, or into a new array for ``None``.  Only a block-sized
    temporary is added; each block is the one-shot product's, byte for byte
    (see ``BLOCK_WIDTH``).  ``over`` must share no memory with the other
    operand."""
    if over is None:
        return left @ right
    if over is left:
        for start in range(0, len(left), BLOCK_WIDTH):
            rows = left[start:start + BLOCK_WIDTH]
            rows[...] = rows @ right
    else:
        for start in range(0, right.shape[1], BLOCK_WIDTH):
            cols = right[:, start:start + BLOCK_WIDTH]
            cols[...] = left @ cols
    return over


def _gram(t: np.ndarray) -> np.ndarray:
    """``t @ t.conj().T``, formed ``BLOCK_WIDTH`` rows at a time from ``t*``
    alone: ``t`` is conjugated in place, and row block ``i`` is
    ``conj(t*[:, i]).T @ t*``.  The bytes are the one-shot product's for
    ``t`` of either memory order."""
    adjoint = np.conj(t, out=t).T
    out = np.empty(t.shape, dtype=complex)
    for start in range(0, len(t), BLOCK_WIDTH):
        rows = slice(start, start + BLOCK_WIDTH)
        np.matmul(np.conj(adjoint[:, rows]).T, adjoint, out=out[rows])
    return out


def dense_polynomial(poly, mats: Mapping, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix of ``poly`` over ``mats``, which maps base
    letters to 2-D matrices or 1-D diagonals, each read as complex (so real
    input gives the bytes of its complex cast): :func:`_consume_polynomial`
    over read-only views, so neither ``mats`` nor a matrix is modified."""
    views = {}
    for base, mat in mats.items():
        views[base] = view = np.asarray(mat, dtype=complex).view()
        view.flags.writeable = False
    return _consume_polynomial(poly, views, dim)


def _consume_polynomial(poly, mats: dict, dim: int) -> np.ndarray:
    """The matrix of ``poly`` over ``mats``, emptied as it goes: each matrix
    is removed after the last letter that reads it, in ``sorted_terms``
    order.  A matrix the caller holds nowhere else is then freed as soon as
    the product that reads it last exists, or written over by that product
    (:func:`_word_product`) if it is writeable and no other entry of
    ``mats`` shares its memory (a ``copy_of`` B is read by two letters).
    Read-only matrices are never written."""
    uses = Counter(letter.base() for word in poly.terms for letter in word)

    def take(base):
        uses[base] -= 1
        if uses[base]:
            return mats.get(base), False
        mat = mats.pop(base, None)
        released = (mat is not None and mat.flags.writeable
                    and not any(np.may_share_memory(mat, other) for other in mats.values()))
        return mat, released

    return _polynomial_sum(poly, take, dim)


def _polynomial_sum(poly, lookup, dim: int) -> np.ndarray:
    """The terms of ``poly``, each :func:`_word_product` over ``lookup``,
    summed in ``sorted_terms`` order.

    A term is scaled in place, except a bound matrix itself (a word of one
    unstarred letter): a 2-D one is scaled by copy, a diagonal copied and
    then scaled in place (numpy may round ``c * x`` and ``x *= c`` apart in
    the last bit for a complex ``c``).  Diagonal words stay 1-D, summed as
    one diagonal before the first dense term and added to the sum's diagonal
    after it.  The first dense term becomes the sum, so while it is formed
    only its product so far and a block are alive beside the bound matrices.
    The values equal the scaled terms summed into zeros bitwise: the order
    changes only the sign of zeros, which the closing ``+= 0.0`` clears.
    """
    out = diag = None  # the sum once a term is dense; until then, its diagonal
    for word, coeff in poly.sorted_terms():
        term = _word_product(word, lookup, dim)
        itself = len(word) == 1 and not word[0].star  # the bound matrix itself
        if itself and term.ndim == 2:
            term = coeff * term
        else:
            if itself:
                term = term.copy()
            term *= coeff
        if term.ndim == 2 and out is None:
            out = np.ascontiguousarray(term)  # C order, as a sum from zeros
            if diag is not None:
                out[np.diag_indices(dim)] += diag
        elif term.ndim == 2:
            out += term
        elif out is not None:
            out[np.diag_indices(dim)] += term
        elif diag is None:
            diag = term
        else:
            diag += term
        del term  # freed before the next product is formed
    if out is None:
        out = np.zeros((dim, dim), dtype=complex) if diag is None else np.diag(diag)
    out += 0.0
    return out


def _generators(cells) -> list[Letter]:
    """The sorted base letters of the rows of polynomials ``cells``."""
    return sorted({letter.base() for row in cells for poly in row for word in poly.terms
                   for letter in word})


def dense_block_matrix(cells, draw, size: int) -> np.ndarray:
    """The block matrix of the square grid of polynomials ``cells``, each
    block its cell's :func:`dense_polynomial` at ``size``.  ``draw(letter)``
    (a mapping's ``get`` will do) gives each generator's matrix (``None``
    if unbound), read as complex and never written, once per generator in
    sorted order.

    Each distinct cell is formed once, as soon as its last generator is
    drawn (a constant cell first), and written into all its blocks; each
    generator is let go after its last cell.  So a grid of one-generator
    cells holds one generator at a time beside the output.
    """
    gens = _generators(cells)
    rank = {letter: pos for pos, letter in enumerate(gens)}
    places: dict[tuple, tuple] = {}
    for i, row in enumerate(cells):
        for j, poly in enumerate(row):
            places.setdefault(tuple(poly.sorted_terms()), (poly, []))[1].append((i, j))
    due: dict[int, list] = {}  # the cells formed once gens[pos] is drawn, by pos
    last_cell: dict[Letter, int] = {}  # each generator's last cell, by its due pos
    for poly, blocks in places.values():
        letters = {letter.base() for word in poly.terms for letter in word}
        pos = max((rank[letter] for letter in letters), default=-1)
        due.setdefault(pos, []).append((poly, blocks))
        for letter in letters:
            last_cell[letter] = max(last_cell.get(letter, pos), pos)
    out = np.empty((len(cells) * size, len(cells) * size), dtype=complex)
    bound: dict[Letter, tuple] = {}  # each drawn generator's (matrix, released) pair
    for pos in range(-1, len(gens)):
        if pos >= 0:
            mat = draw(gens[pos])
            bound[gens[pos]] = (None if mat is None else np.asarray(mat, dtype=complex), False)
            del mat  # bound holds it alone, so it is freed after its last cell
        for poly, blocks in due.get(pos, ()):
            _cell_into(out, blocks, poly, bound.__getitem__, size)
        for letter in [letter for letter in bound if last_cell[letter] == pos]:
            del bound[letter]
    return out


def _cell_into(out: np.ndarray, blocks, poly, lookup, size: int) -> None:
    """Write the ``size x size`` matrix of ``poly`` over ``lookup`` into the
    ``(i, j)`` ``blocks`` of ``out``.

    A cell of one product of two or more dense letters is multiplied
    straight into its first block and scaled there as
    :func:`_polynomial_sum` scales a product; any other cell is that sum,
    copied in.  A matmul into a block view equals the contiguous product
    byte for byte."""
    def block(i, j):
        return out[i * size:(i + 1) * size, j * size:(j + 1) * size]

    first = block(*blocks[0])
    terms = poly.sorted_terms()
    word = terms[0][0] if len(terms) == 1 else ()
    if len(word) > 1 and all(getattr(lookup(letter.base())[0], "ndim", 0) == 2
                             for letter in word):
        np.matmul(_word_product(word[:-1], lookup, size),
                  _word_product(word[-1:], lookup, size), out=first)
        first *= terms[0][1]
        first += 0.0
    else:
        first[...] = _polynomial_sum(poly, lookup, size)
    for i, j in blocks[1:]:
        block(i, j)[...] = first
