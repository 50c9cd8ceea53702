"""Eigenvalue multisets: canonical ordering, algebra and comparison metrics.

The canonical order is descending absolute value, ties broken by descending
signed value; this is the order in which truncated spectra are displayed and
compared (:func:`match_distance`, which also pairs the same values by signed
order).

Every eigensolve of the package, and every refusal of a spectrum, is here.
One gate, :func:`_hermitian_gate`, checks a matrix, a stack or a diagonal
and symmetrizes it in place, walking a matrix tile by tile, ``BLOCK_WIDTH``
on a side; it serves :func:`_solve_hermitian` (``eigvalsh``),
:func:`sqrtm_psd` (``eigh``) and :func:`_diagonal_spectrum`.
:func:`_real_spectrum` solves a matrix that must have a real spectrum:
the Hermitian solve, or ``eigvals`` when the gate refuses.  Each caller
passes its own floor.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable

import numpy as np

from .dense import BLOCK_WIDTH
from .errors import (
    ComplexEigenvaluesError,
    DimensionMismatchError,
    InsufficientEntriesError,
    NotPositiveError,
    NotSelfadjointError,
)

HERMITICITY_TOL = 1e-9
GRAM_PSD_TOL = 1e-10
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
    """``m = m/2 + m*/2`` in place, which removes the asymmetry a check
    accepted.  Halving first keeps a finite ``m`` finite up to the largest
    float; it is exact for every entry but a subnormal one, so the sum
    equals ``(m + m*) / 2`` wherever that does not overflow."""
    return _add_adjoint(np.divide(m, 2.0, out=m))


def relative_error(x, ref):
    """``|x - ref| / |ref|`` entrywise, with ``REL_FLOOR`` for a zero ``ref``:
    up to rounding, one rescaling of both leaves it unchanged.  A value past
    the float range is ``inf``, without numpy's overflow warning."""
    size = np.abs(ref)
    with np.errstate(over="ignore"):
        return np.abs(np.subtract(x, ref)) / np.where(size == 0, REL_FLOOR, size)


def _hermitian_gate(m: np.ndarray, floor: float) -> tuple[float, float]:
    """``hermiticity_gap(m, floor)`` of a matrix or stack ``m`` that passes
    it, with ``m`` symmetrized in place; otherwise ``NotSelfadjointError``,
    with ``m`` unwritten.  A 1-D ``m`` is a diagonal, checked as its
    ``np.diag`` is: its gap ``|d - conj(d)|`` is ``2 max|Im d|`` exactly, at
    the magnitude ``max|d|``.  It is not written, as its spectrum is its
    real part."""
    if m.ndim == 1:
        magnitude = float(np.abs(m).max(initial=0.0))
        if not math.isfinite(magnitude):
            raise NotSelfadjointError("matrix has a non-finite entry")
        residual = 2.0 * float(np.abs(m.imag).max(initial=0.0))
        tol = rounding_tolerance(floor, magnitude)
    else:
        residual, tol = hermiticity_gap(m, floor)
    if residual > tol:
        raise NotSelfadjointError(f"matrix is not Hermitian: max entry deviation "
                                  f"{residual:.3e} above {tol:.3e}")
    if m.ndim > 1:
        symmetrize(m)
    return residual, tol


def _solve_hermitian(m: np.ndarray, floor: float) -> tuple[EVMultiset, float]:
    """The spectrum and residual of a matrix or stack ``m`` that passes
    :func:`_hermitian_gate` at ``floor``, solved in place."""
    residual = _hermitian_gate(m, floor)[0]
    return EVMultiset(np.linalg.eigvalsh(m).ravel()), residual


def hermitian_spectrum(matrix: np.ndarray) -> EVMultiset:
    """All eigenvalues (with multiplicity) of a Hermitian matrix.

    A stack of square matrices, shape ``(..., k, k)``, stands for their direct
    sum.  A copy goes through :func:`_solve_hermitian` at ``HERMITICITY_TOL``.
    """
    m = np.array(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSelfadjointError("spectrum needs a square matrix")
    return _solve_hermitian(m, HERMITICITY_TOL)[0]


def _diagonal_spectrum(d: np.ndarray) -> EVMultiset:
    """The spectrum of ``np.diag(d)``, its real part, accepted or refused as
    :func:`hermitian_spectrum` would accept or refuse that matrix."""
    _hermitian_gate(d, HERMITICITY_TOL)
    return EVMultiset(d.real)


def _real_spectrum(m: np.ndarray, floor: float, imag_tol: Callable[[float], float]) -> EVMultiset:
    """The spectrum of a matrix or stack ``m``, which must be real: that of
    :func:`_solve_hermitian` at ``floor``, in place, or, if its gate refuses
    the asymmetry of ``m``, that of ``eigvals``.  An imaginary part above
    ``imag_tol(radius)``, ``radius`` the largest modulus, raises
    ``ComplexEigenvaluesError``; a non-finite ``m`` the gate's
    ``NotSelfadjointError``."""
    try:
        return _solve_hermitian(m, floor)[0]
    except NotSelfadjointError:
        if not np.isfinite(m).all():
            raise
    lams = np.linalg.eigvals(m).ravel()
    imag = float(np.max(np.abs(lams.imag), initial=0.0))
    tol = imag_tol(float(np.max(np.abs(lams), initial=0.0)))
    if imag > tol:
        raise ComplexEigenvaluesError(f"max imaginary part {imag:.3e} above {tol:.3e}: eigenvalues "
                                      "with large imaginary parts; prediction refused")
    return EVMultiset(lams.real)


def sqrtm_psd(gram: np.ndarray) -> np.ndarray:
    """Spectral square root of a Hermitian PSD matrix.

    The gate and the PSD check use the tolerance ``tol = max(GRAM_PSD_TOL,
    64*eps*max|G|)``, so rounding scales with the entries.  Eigenvalues in
    ``[-tol, 0]`` are clamped to zero (rounding from sampled Gram matrices);
    anything below ``-tol`` raises ``NotPositiveError``.
    """
    g = np.array(gram, dtype=complex)
    if g.ndim != 2 or g.shape[0] != g.shape[1] or not g.size:
        raise DimensionMismatchError("Gram matrix must be square and nonempty")
    tol = _hermitian_gate(g, GRAM_PSD_TOL)[1]
    vals, vecs = np.linalg.eigh(g)
    if float(np.min(vals)) < -tol:
        raise NotPositiveError(f"Gram matrix has eigenvalue {float(np.min(vals)):.3e} "
                               f"below -{tol:.3e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


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

    ``max_abs`` and ``max_rel`` pair the entries by canonical rank.
    ``signed_max_rel`` pairs the first ``m`` canonical entries of ``t`` by
    signed order: the non-negative ones, descending, with the largest entries
    of ``s``, and the negative ones, ascending, with the smallest.  That is
    the optimal matching on the line, so it does not depend on which value of
    a tied ``+/-`` pair canonical order puts first, and it equals ``max_rel``
    when both top-``m`` lists have one sign pattern.  ``t`` plays the
    reference role of ``relative_error``.
    """
    if m < 1:  # no entry compared would pass any tolerance
        raise ValueError("comparison length must be >= 1")
    if len(s) < m or len(t) < m:
        raise InsufficientEntriesError(f"need {m} entries but have {len(s)} and {len(t)}")
    x, ref = s.values[:m], t.values[:m]
    signed_ref = np.sort(ref)[::-1]
    emp, nonnegative = np.sort(s.values), int(np.count_nonzero(signed_ref >= 0))
    signed_x = np.concatenate([emp[::-1][:nonnegative], emp[:m - nonnegative][::-1]])
    return {"max_abs": float(np.max(np.abs(x - ref))),
            "max_rel": float(np.max(relative_error(x, ref))),
            "signed_max_rel": float(np.max(relative_error(signed_x, signed_ref)))}
