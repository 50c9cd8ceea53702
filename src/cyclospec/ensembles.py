"""Random-matrix samplers.

GUE normalization is fixed so that the normalized trace of ``G**2`` tends to
1 (semicircle law on ``[-2, 2]``): off-diagonal entries are complex Gaussian
with variance ``1/n`` and diagonal entries are real Gaussian with variance
``1/n``.
"""

from __future__ import annotations

import numpy as np

from .dense import BLOCK_WIDTH
from .spectra import _add_adjoint


def _ginibre(n: int, rng: np.random.Generator, order: str = "C") -> np.ndarray:
    """Complex Ginibre matrix ``(a + 1j*b) * sqrt(0.5)`` of two ``(n, n)``
    standard normal draws, ``a`` first, written into one array of memory
    ``order`` ("C" or "F").

    Each draw is taken ``BLOCK_WIDTH`` rows at a time, which yields the
    numbers of the one-shot draw in the same order.  Bitwise the out-of-place
    sum: its imaginary term's real part is +-0.0, and ``a + (+-0.0) == a``.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = np.empty((n, n), dtype=complex, order=order)
    for part in (z.real, z.imag):
        for start in range(0, n, BLOCK_WIDTH):
            rows = part[start:start + BLOCK_WIDTH]
            rows[...] = rng.standard_normal(rows.shape)
    z *= np.sqrt(0.5)
    return z


def sample_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian GUE sample of dimension ``n`` with ``E tr(G^2) = 1``."""
    z = _add_adjoint(_ginibre(n, rng))
    z /= np.sqrt(2.0 * n)
    return z


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase correction makes the factorization unique, which is
    what produces the Haar measure rather than a QR artifact.

    The Ginibre draw is factored in place: Q overwrites it, so the returned
    array is Fortran-ordered.  Its values are bitwise those of
    ``np.linalg.qr``'s Q times ``d / |d|``, without that call's copy of the
    input and its R.
    """
    # loaded on first use: its code pages would count in every run's memory
    from numpy.linalg import lapack_lite

    q = _ginibre(n, rng, order="F")
    a = q.T  # C-contiguous, as lapack_lite asks; LAPACK reads its memory as q
    tau = np.empty(n, dtype=complex)
    _lapack(lapack_lite.zgeqrf, n, n, a, n, tau)
    d = q.diagonal().copy()  # R's diagonal, before Q overwrites it
    _lapack(lapack_lite.zungqr, n, n, n, a, n, tau)
    q *= d / np.abs(d)
    return q


def _lapack(routine, *args) -> None:
    """Call a ``lapack_lite`` routine whose last arguments are ``work, lwork,
    info``: first with ``lwork = -1``, which asks for the optimal workspace
    size (as ``np.linalg.qr`` does), then with that workspace.
    ``LinAlgError`` if either call returns a nonzero ``info``."""
    def call(work: np.ndarray, lwork: int) -> None:
        info = routine(*args, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"{routine.__name__} returned info {info}")

    query = np.empty(1, dtype=complex)
    call(query, -1)
    work = np.empty(max(1, int(query[0].real)), dtype=complex)
    call(work, len(work))
