"""Eigenvalue multisets: canonical ordering, algebra and comparison metrics.

The canonical order is descending absolute value, ties broken by descending
signed value; this is the order in which truncated spectra are displayed and
compared.  Every Hermitian eigensolve is :func:`_solve_hermitian`: a check
and a symmetrization, which walk a matrix tile by tile, ``BLOCK_WIDTH`` on
a side, then ``eigvalsh``.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable

import numpy as np

from .dense import BLOCK_WIDTH
from .errors import InsufficientEntriesError, NotSelfadjointError

HERMITICITY_TOL = 1e-9
REL_FLOOR = 1e-12
ROUNDING_REL_TOL = 64 * np.finfo(float).eps


def rounding_tolerance(floor: float, magnitude: float) -> float:
    """Tolerance ``max(floor, 64*eps*magnitude)`` of a check on data of that magnitude.

    Rounding grows with the entries a check judges, so a fixed absolute
    tolerance rejects rescaled inputs; the floor keeps unit-scale checks as
    strict as an absolute tolerance would.
    """
    return max(floor, ROUNDING_REL_TOL * magnitude)


def _canonical(values: Iterable[float]) -> np.ndarray:
    vals = [float(v) for v in values]
    vals.sort(key=lambda v: (-abs(v), -v))
    return np.asarray(vals, dtype=float)


class EVMultiset:
    """Finite real eigenvalue multiset stored in canonical order."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        self.values = _canonical(values)

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EVMultiset):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.6g}" for v in self.values[:6])
        tail = ", ..." if len(self) > 6 else ""
        return f"EVMultiset([{head}{tail}], n={len(self)})"

    def to_list(self) -> list[float]:
        return [float(v) for v in self.values]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for v in self.values:
                fh.write(f"{float(v)!r}\n")


@functools.cache
def _tile_pairs(k: int) -> list[tuple[slice, slice]]:
    """The ``(rows, cols)`` of the ``BLOCK_WIDTH`` tiles of a k x k matrix on
    and above the diagonal; tile ``(cols, rows)`` mirrors each."""
    starts = range(0, k, BLOCK_WIDTH)
    return [(slice(i, i + BLOCK_WIDTH), slice(j, j + BLOCK_WIDTH))
            for i in starts for j in starts if i <= j]


def _adjoint(tile: np.ndarray) -> np.ndarray:
    """A C-ordered copy of ``conj(tile.T)`` over the last two axes.  numpy
    copies the operand of an in-place sum into a strided tile, so
    :func:`_add_adjoint` sums into this copy instead and copies the result
    in."""
    out = np.swapaxes(tile, -1, -2).copy()
    return np.conj(out, out=out)


def hermiticity_gap(m: np.ndarray, floor: float = HERMITICITY_TOL) -> tuple[float, float]:
    """``max|m - m*|`` and its tolerance ``rounding_tolerance(floor, max|m|)``, of a matrix or
    stack; a non-finite entry, which passes no comparison, raises ``NotSelfadjointError``.

    The last two axes are walked tile pair by tile pair, so no temporary is
    larger than a tile; ``|m_ij - conj(m_ji)|`` is the same number in either
    tile of a pair.
    """
    m = np.asarray(m)
    magnitude = residual = 0.0
    for rows, cols in _tile_pairs(m.shape[-1]):
        upper, lower = m[..., rows, cols], m[..., cols, rows]
        tops = [float(np.abs(tile).max(initial=0.0))
                for tile in ((upper, lower) if rows != cols else (upper,))]
        if not all(map(math.isfinite, tops)):
            raise NotSelfadjointError("matrix has a non-finite entry")
        magnitude = max(magnitude, *tops)
        gap = _adjoint(lower)
        residual = max(residual, float(np.abs(np.subtract(upper, gap, out=gap)).max(initial=0.0)))
    return residual, rounding_tolerance(floor, magnitude)


def _add_adjoint(m: np.ndarray) -> np.ndarray:
    """``m += m*`` in place, tile pair by tile pair: each tile's new values
    are summed from its old values and its mirror's before either is
    written, so every entry is the out-of-place ``m_ij + conj(m_ji)``,
    signed zeros included."""
    for rows, cols in _tile_pairs(m.shape[-1]):
        upper, lower = m[..., rows, cols], m[..., cols, rows]
        new_upper = _adjoint(lower)
        np.add(upper, new_upper, out=new_upper)
        if rows != cols:
            new_lower = _adjoint(upper)
            lower[...] = np.add(lower, new_lower, out=new_lower)
        upper[...] = new_upper
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """``m = (m + m*) / 2`` in place, which removes the asymmetry a check accepted."""
    return np.divide(_add_adjoint(m), 2.0, out=m)


def relative_error(x, ref):
    """``|x - ref| / max(|ref|, REL_FLOOR)``, entrywise."""
    return np.abs(np.subtract(x, ref)) / np.maximum(np.abs(ref), REL_FLOOR)


def _solve_hermitian(m: np.ndarray, floor: float) -> tuple[EVMultiset, float]:
    """The spectrum and residual of a matrix or stack ``m`` that passes
    ``hermiticity_gap(m, floor)``, symmetrized and solved in place; otherwise
    ``NotSelfadjointError``, with ``m`` unwritten."""
    residual, tol = hermiticity_gap(m, floor)
    if residual > tol:
        raise NotSelfadjointError(f"matrix is not Hermitian: max entry deviation "
                                  f"{residual:.3e} above {tol:.3e}")
    return EVMultiset(np.linalg.eigvalsh(symmetrize(m)).ravel()), residual


def hermitian_spectrum(matrix: np.ndarray) -> EVMultiset:
    """All eigenvalues (with multiplicity) of a Hermitian matrix.

    A stack of square matrices, shape ``(..., k, k)``, stands for their direct
    sum.  A copy goes through :func:`_solve_hermitian` at ``HERMITICITY_TOL``.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSelfadjointError("spectrum needs a square matrix")
    return _solve_hermitian(m, HERMITICITY_TOL)[0]


def scale(c: float, s: EVMultiset) -> EVMultiset:
    return EVMultiset(float(c) * s.values)


def disjoint_union(s: EVMultiset, t: EVMultiset) -> EVMultiset:
    return EVMultiset(np.concatenate([s.values, t.values]))


def multiset_moment(s: EVMultiset, k: int) -> float:
    """Sum of the k-th powers of the entries."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    return float(np.sum(s.values**k))


def match_distance(s: EVMultiset, t: EVMultiset, m: int) -> dict:
    """Compare the first ``m >= 1`` canonical entries of ``s`` against ``t``.

    ``t`` plays the reference role of ``relative_error``.
    """
    if m < 1:  # no entry compared would pass any tolerance
        raise ValueError("comparison length must be >= 1")
    if len(s) < m or len(t) < m:
        raise InsufficientEntriesError(
            f"need {m} entries but have {len(s)} and {len(t)}"
        )
    x, ref = s.values[:m], t.values[:m]
    return {"max_abs": float(np.max(np.abs(x - ref))),
            "max_rel": float(np.max(relative_error(x, ref)))}
