"""Random-matrix samplers.

GUE normalization is fixed so that the normalized trace of ``G**2`` tends to
1 (semicircle law on ``[-2, 2]``): off-diagonal entries are complex Gaussian
with variance ``1/n`` and diagonal entries are real Gaussian with variance
``1/n``.
"""

from __future__ import annotations

import numpy as np


def _ginibre(n: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Ginibre matrix ``(a + 1j*b) * sqrt(0.5)`` of two ``(n, n)``
    standard normal draws, ``a`` first, written into one array.

    Bitwise the out-of-place sum: its imaginary term's real part is +-0.0,
    and ``a + (+-0.0) == a``.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z = np.empty((n, n), dtype=complex)
    z.real = rng.standard_normal((n, n))
    z.imag = rng.standard_normal((n, n))
    z *= np.sqrt(0.5)
    return z


def sample_gue(n: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian GUE sample of dimension ``n`` with ``E tr(G^2) = 1``."""
    z = _ginibre(n, rng)
    z += z.conj().T  # the right side is a copy, so z is read before it is written
    z /= np.sqrt(2.0 * n)
    return z


def sample_haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase correction makes the factorization unique, which is
    what produces the Haar measure rather than a QR artifact.
    """
    q, r = np.linalg.qr(_ginibre(n, rng))
    d = np.diagonal(r)
    q *= d / np.abs(d)
    return q
