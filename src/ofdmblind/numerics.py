"""Dense complex linear algebra used by the transmitter and the estimator.

Everything here is a thin, contract-checked layer over NumPy: the DFT
matrix, the unitary IDFT (by FFT), Hermitian eigenvalue extraction, and
numerical rank via singular values. Inputs and results are plain ndarrays;
indexing is 0-based throughout the code even where the surrounding maths
is conventionally written 1-based.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Relative tolerance used when deciding a matrix is Hermitian.
HERMITIAN_TOL = 1e-8

# Eigenvalues below this are clamped before any logarithm is taken.
EIG_FLOOR = 1e-30

# Default relative threshold for numerical rank.
RANK_REL_TOL = 1e-9


def dft_matrix(n: int) -> np.ndarray:
    """Return the n x n DFT matrix with entry (p, q) = exp(-2j*pi*p*q/n).

    The matrix satisfies Q @ Q^H = n*I; the unitary transform is Q/sqrt(n).
    """
    if n < 1:
        raise ConfigError(f"DFT matrix order must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


def idft_apply(freq_block: np.ndarray) -> np.ndarray:
    """Apply the unitary inverse DFT to each column of an N x M block.

    Returns (1/sqrt(N)) * Q^H @ freq_block, so per-column energy is
    preserved and a unit-power constellation stays unit power in time.
    It is computed by FFT, without forming Q.
    """
    block = np.asarray(freq_block, dtype=complex)
    if block.ndim != 2:
        raise ConfigError(f"expected a 2-D block, got shape {block.shape}")
    return np.fft.ifft(block, axis=0, norm="ortho")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, as a descending float array.

    A matrix that is not square, or whose largest asymmetry exceeds
    HERMITIAN_TOL * max(1, largest |entry|), raises ConfigError. The
    spectrum is returned as computed, so the eigenvalue sum matches the
    trace; consumers that take logarithms or quotients (the MDL criterion,
    the floor ratio) clamp at their floor themselves. Roundoff on PSD
    inputs can leave tiny negative values here.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    scale = np.max(np.abs(a)) if a.size else 0.0
    asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if asym > HERMITIAN_TOL * max(scale, 1.0):
        raise ConfigError(
            f"matrix is not Hermitian: max asymmetry {asym:.3e} at scale {scale:.3e}"
        )
    return np.linalg.eigvalsh(a)[::-1]


def numerical_rank(m: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Number of singular values above rel_tol times the largest one."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        raise ConfigError("rank of an empty matrix is undefined")
    if not 0.0 < rel_tol < 1.0:
        raise ConfigError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > rel_tol * sv[0]))
