"""Dense complex linear algebra used by the transmitter and the estimator.

Everything here is a thin, contract-checked layer over NumPy: the unitary
IDFT (by FFT), Hermitian eigenvalue extraction, and numerical rank via
singular values. Inputs and results are plain ndarrays; indexing is
0-based throughout the code even where the surrounding maths is
conventionally written 1-based.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Relative threshold for numerical rank.
RANK_REL_TOL = 1e-9


def idft_apply(freq_block: np.ndarray) -> np.ndarray:
    """Apply the unitary inverse DFT to each column of an N x M block.

    Returns (1/sqrt(N)) * Q^H @ freq_block, Q the DFT matrix with entry
    (p, q) = exp(-2j*pi*p*q/N), so per-column energy is preserved and a
    unit-power constellation stays unit power in time. It is computed by
    FFT, without forming Q.
    """
    block = np.asarray(freq_block, dtype=complex)
    if block.ndim != 2:
        raise ConfigError(f"expected a 2-D block, got shape {block.shape}")
    return np.fft.ifft(block, axis=0, norm="ortho")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, as a descending float array.

    A matrix that is not square raises ConfigError. Hermitian symmetry is
    the caller's guarantee and is not checked: only the lower triangle is
    read. The estimator passes covariance's output, which is exactly
    Hermitian by construction. The spectrum is returned as computed, so
    the eigenvalue sum matches the trace; consumers that take logarithms
    or quotients (the MDL criterion, the floor ratio) clamp at their floor
    themselves. Roundoff on PSD inputs can leave tiny negative values here.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    return np.linalg.eigvalsh(a)[::-1]


def numerical_rank(m: np.ndarray) -> int:
    """Number of singular values above RANK_REL_TOL times the largest one."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        raise ConfigError("rank of an empty matrix is undefined")
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > RANK_REL_TOL * sv[0]))
