"""Tests for the numpy steps the benchmark traces as `numerics.*` layers.

The unitary IDFT lives in the transmitter; Hermitian eigenvalues and the
numerical rank of the rank oracle live in the estimator.
"""
import numpy as np
import pytest

from ofdmblind.errors import ConfigError
from ofdmblind.estimator import hermitian_eigenvalues, rank_oracle_noise_free
from ofdmblind.transmitter import idft_apply


def dft_matrix(n: int) -> np.ndarray:
    """The n x n DFT matrix, entry (p, q) = exp(-2j*pi*p*q/n); the IDFT oracle.

    The matrix satisfies Q @ Q^H = n*I; the unitary transform is Q/sqrt(n).
    """
    if n < 1:
        raise ConfigError(f"DFT matrix order must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)


class TestDftMatrix:
    def test_order_one(self):
        q = dft_matrix(1)
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(1.0)

    def test_order_two(self):
        q = dft_matrix(2)
        expected = np.array([[1, 1], [1, -1]], dtype=complex)
        assert np.max(np.abs(q - expected)) < 1e-12

    def test_order_four_inner_entry(self):
        # exponent -2*pi*1*1/4 gives exp(-j*pi/2) = -j
        q = dft_matrix(4)
        assert q[1, 1] == pytest.approx(-1j)

    def test_zero_order_rejected(self):
        with pytest.raises(ConfigError):
            dft_matrix(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_unitarity(self, n):
        q = dft_matrix(n)
        gram = q @ q.conj().T
        assert np.max(np.abs(gram - n * np.eye(n))) < 1e-10 * n


class TestIdftApply:
    def test_single_point(self):
        block = np.array([[3.0 + 1j]])
        out = idft_apply(block)
        assert out[0, 0] == pytest.approx(3.0 + 1j)

    def test_two_point_column(self):
        # (1/sqrt(2)) * Q^H @ [1, 1] = [sqrt(2), 0]
        out = idft_apply(np.array([[1.0], [1.0]]))
        assert out[:, 0] == pytest.approx([np.sqrt(2), 0])

    def test_zero_block(self):
        out = idft_apply(np.zeros((4, 3)))
        assert np.all(out == 0)

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        block = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        time = idft_apply(block)
        back = (dft_matrix(8) @ time) / np.sqrt(8)
        assert np.max(np.abs(back - block)) < 1e-10 * np.max(np.abs(block))

    @pytest.mark.parametrize("n", [1, 2, 8, 48, 64])
    def test_matches_dense_dft_oracle(self, n):
        rng = np.random.default_rng(n)
        block = rng.standard_normal((n, 6)) + 1j * rng.standard_normal((n, 6))
        want = (dft_matrix(n).conj().T @ block) / np.sqrt(n)
        assert np.max(np.abs(idft_apply(block) - want)) < 1e-12


class TestHermitianEigenvalues:
    def test_identity(self):
        spec = hermitian_eigenvalues(np.eye(3))
        assert spec == pytest.approx([1.0, 1.0, 1.0])
        assert spec.shape == (3,)

    def test_diagonal_sorted_descending(self):
        spec = hermitian_eigenvalues(np.diag([5.0, 2.0, 9.0]))
        assert spec == pytest.approx([9.0, 5.0, 2.0])

    def test_rank_one_outer_product(self):
        # v v^H with v = [1, j]: trace 2, determinant 0
        v = np.array([1.0, 1j])
        spec = hermitian_eigenvalues(np.outer(v, v.conj()))
        assert spec[0] == pytest.approx(2.0)
        assert spec[1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_eigenvalue_sum_matches_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 129))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        spec = hermitian_eigenvalues(h)
        trace = float(np.trace(h).real)
        assert np.sum(spec) == pytest.approx(trace, rel=1e-8)

    def test_positive_scaling_scales_spectrum(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = a @ a.conj().T
        base = hermitian_eigenvalues(h)
        scaled = hermitian_eigenvalues(2.5 * h)
        assert scaled == pytest.approx(2.5 * base, rel=1e-10)

    def test_psd_negatives_stay_at_roundoff_scale(self):
        # the spectrum is not clamped here, so PSD inputs may show tiny
        # negatives, but never beyond roundoff of the top eigenvalue
        rng = np.random.default_rng(8)
        a = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
        spec = hermitian_eigenvalues(a @ a.conj().T / 40)
        assert np.min(spec) > -1e-12 * spec[0]


class TestNumericalRank:
    """rank_oracle_noise_free on streams whose segment matrix is given."""

    def test_zero_matrix(self):
        assert rank_oracle_noise_free(np.zeros(16), 4) == 0

    def test_identity(self):
        assert rank_oracle_noise_free(np.eye(5).ravel(order="F"), 5) == 5

    def test_rank_deficient(self):
        # columns (1, 2), (2, 4), (3, 6)
        assert rank_oracle_noise_free(np.array([1.0, 2.0, 2.0, 4.0, 3.0, 6.0]), 2) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        m[3] = m[0] + m[1]  # force a dependency
        x = m.ravel(order="F")
        scale = complex(rng.standard_normal(), rng.standard_normal())
        assert rank_oracle_noise_free(x, 6) == rank_oracle_noise_free(scale * x, 6) == 5
