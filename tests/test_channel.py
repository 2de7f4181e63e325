"""Tests for the quasi-block-fading channel against explicit matrix forms."""
import math
import tracemalloc

import numpy as np
import pytest

from ofdmblind.channel import (
    ChannelConfig,
    ChannelRealization,
    apply_block_channel,
    calibrate_noise,
    draw_realization,
)
from ofdmblind.errors import ConfigError, DataError
from ofdmblind.transmitter import IqSequence, OfdmConfig, generate_stream


def toeplitz_pair(taps, t):
    """Build the T x T in-block matrix H and inter-block matrix B.

    H[i, j] = h[i-j] for 0 <= i-j <= L-1; B[i, j] = h[T+i-j] for
    T+i-j <= L-1, so B only touches the first L-1 rows via the last
    L-1 columns. These are the direct dense forms the streaming
    convolution must reproduce sample for sample.
    """
    l = len(taps)
    h_mat = np.zeros((t, t), dtype=complex)
    b_mat = np.zeros((t, t), dtype=complex)
    for i in range(t):
        for j in range(t):
            if 0 <= i - j < l:
                h_mat[i, j] = taps[i - j]
            if t + i - j < l:
                b_mat[i, j] = taps[t + i - j]
    return h_mat, b_mat


def convolve_blocks(x, taps):
    """Per-block np.convolve form of the noise-free block channel: each
    block is convolved with its own taps after being extended by the last
    L-1 samples of its predecessor, block 0 by L-1 zeros."""
    k, l = taps.shape
    t = len(x) // k
    out = np.empty(len(x), dtype=complex)
    tail = np.zeros(l - 1, dtype=complex)
    for blk in range(k):
        seg = x[blk * t:(blk + 1) * t]
        conv = np.convolve(np.concatenate([tail, seg]), taps[blk])
        out[blk * t:(blk + 1) * t] = conv[l - 1:l - 1 + t]
        tail = seg[t - (l - 1):]
    return out


def seeded_noise(seed, n, noise_var):
    """sigma * (a + 1j*b) with a, then b, drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(noise_var / 2.0)
    return sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestChannelConfig:
    def test_default_tap_variance_is_one_over_taps(self):
        cfg = ChannelConfig(num_taps=4, snr_db=10.0)
        taps = draw_realization(cfg, 4000, seed=5).taps
        assert np.mean(np.abs(taps) ** 2, axis=0) == pytest.approx([0.25] * 4, rel=0.05)

    @pytest.mark.parametrize("kwargs", [
        dict(num_taps=0, snr_db=0.0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelConfig(**kwargs)

    def test_nan_snr_rejected(self):
        # a NaN SNR would calibrate to NaN noise power and pass as noise-free
        with pytest.raises(ConfigError, match="nan"):
            ChannelConfig(num_taps=2, snr_db=float("nan"))

    @pytest.mark.parametrize("snr_db", [-np.inf, -1e308, -3100.0, -3083.0])
    def test_snr_without_finite_noise_power_rejected(self, snr_db):
        with pytest.raises(ConfigError, match="finite noise power"):
            ChannelConfig(num_taps=2, snr_db=snr_db)

    def test_lowest_snr_with_finite_noise_power_accepted(self):
        assert ChannelConfig(num_taps=2, snr_db=-3082.0).snr_db == -3082.0
        assert calibrate_noise(-3082.0) < np.inf


class TestCalibrateNoise:
    @pytest.mark.parametrize("snr_db,expected", [
        (0.0, 1.0),
        (10.0, 0.1),
        (20.0, 0.01),
        (-10.0, 10.0),
    ])
    def test_decades(self, snr_db, expected):
        assert calibrate_noise(snr_db) == pytest.approx(expected, rel=1e-12)

    def test_infinite_snr_is_noise_free(self):
        assert calibrate_noise(float("inf")) == 0.0


class TestDrawRealization:
    def test_shape_and_noise_var(self):
        cfg = ChannelConfig(num_taps=3, snr_db=20.0)
        real = draw_realization(cfg, num_blocks=4, seed=0)
        assert real.taps.shape == (4, 3)
        assert real.num_blocks == 4
        assert real.noise_var == pytest.approx(0.01)

    def test_deterministic(self):
        cfg = ChannelConfig(num_taps=2, snr_db=0.0)
        a = draw_realization(cfg, 3, seed=42)
        b = draw_realization(cfg, 3, seed=42)
        assert np.array_equal(a.taps, b.taps)

    def test_blocks_differ(self):
        cfg = ChannelConfig(num_taps=2, snr_db=0.0)
        real = draw_realization(cfg, 2, seed=1)
        assert not np.array_equal(real.taps[0], real.taps[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_unit_mean_channel_energy(self, seed):
        # E||h_k||^2 = L * (1/L) = 1 under the default tap variance
        cfg = ChannelConfig(num_taps=4, snr_db=0.0)
        real = draw_realization(cfg, 2000, seed=seed)
        energies = np.sum(np.abs(real.taps) ** 2, axis=1)
        assert np.mean(energies) == pytest.approx(1.0, abs=0.05)

    def test_zero_blocks_rejected(self):
        cfg = ChannelConfig(num_taps=2, snr_db=0.0)
        with pytest.raises(ConfigError):
            draw_realization(cfg, 0, seed=0)

    def test_negative_noise_var_rejected(self):
        # and a NaN one, which would pass as noise-free, and an infinite one
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError, match="noise_var"):
                ChannelRealization(taps=np.zeros((1, 2)), noise_var=bad)

    @pytest.mark.parametrize("shape", [(2, 0), (0, 3)], ids=str)
    def test_empty_taps_rejected(self, shape):
        # (2, 0) used to die in apply_block_channel's np.zeros(l - 1),
        # (0, 3) in its division into zero blocks
        with pytest.raises(ConfigError, match=rf"K, L >= 1, got shape \({shape[0]}, {shape[1]}\)"):
            apply_block_channel(np.ones(8, dtype=complex),
                                ChannelRealization(taps=np.ones(shape), noise_var=0.0))

    def test_callers_taps_stay_writeable(self):
        taps = np.ones((2, 3), dtype=complex)
        real = ChannelRealization(taps=taps, noise_var=0.0)
        taps[0, 0] = 2.0
        assert not real.taps.flags.writeable
        with pytest.raises(ValueError):
            real.taps[0, 0] = 3.0


class TestApplyBlockChannel:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_matrix_form(self, seed):
        # r_k = H_k s_k + B_k s_{k-1}, s_0 = 0, against the dense matrices
        k, t, l = 3, 8, 3
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(k * t) + 1j * rng.standard_normal(k * t)
        taps = rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
        real = ChannelRealization(taps=taps, noise_var=0.0)
        got = apply_block_channel(x, real).samples

        prev = np.zeros(t, dtype=complex)
        for blk in range(k):
            seg = x[blk * t:(blk + 1) * t]
            h_mat, b_mat = toeplitz_pair(taps[blk], t)
            want = h_mat @ seg + b_mat @ prev
            assert got[blk * t:(blk + 1) * t] == pytest.approx(want, abs=1e-12)
            prev = seg

    def test_first_block_has_no_predecessor(self):
        # block 1 must match a plain zero-state convolution
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        taps = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        real = ChannelRealization(taps=taps, noise_var=0.0)
        got = apply_block_channel(x, real).samples
        assert got[:10] == pytest.approx(np.convolve(x[:10], taps[0])[:10])

    def test_identity_channel(self):
        x = np.arange(12, dtype=complex)
        real = ChannelRealization(taps=np.ones((3, 1)), noise_var=0.0)
        assert np.array_equal(apply_block_channel(x, real).samples, x)

    def test_pure_delay_spills_across_blocks(self):
        # taps [0, 1] delay by one; block 2 starts with block 1's last sample
        x = np.arange(1, 9, dtype=complex)
        real = ChannelRealization(taps=np.array([[0, 1], [0, 1]]), noise_var=0.0)
        got = apply_block_channel(x, real).samples
        assert got == pytest.approx([0, 1, 2, 3, 4, 5, 6, 7])

    def test_noise_variance_calibration(self):
        cfg = OfdmConfig(n_subcarriers=32, cp_len=7, symbols_per_block=100, num_blocks=4)
        s = generate_stream(cfg, 0)
        taps = np.ones((4, 1))
        clean = apply_block_channel(s, ChannelRealization(taps=taps, noise_var=0.0))
        noisy = apply_block_channel(s, ChannelRealization(taps=taps, noise_var=1.0),
                                    noise_seed=1)
        w = noisy.samples - clean.samples
        assert np.mean(np.abs(w) ** 2) == pytest.approx(1.0, abs=0.05)

    def test_noise_deterministic_per_seed(self):
        x = np.ones(10, dtype=complex)
        real = ChannelRealization(taps=np.ones((1, 1)), noise_var=0.5)
        a = apply_block_channel(x, real, noise_seed=3).samples
        b = apply_block_channel(x, real, noise_seed=3).samples
        c = apply_block_channel(x, real, noise_seed=4).samples
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_noise_seed_required_when_noisy(self):
        x = np.ones(10, dtype=complex)
        real = ChannelRealization(taps=np.ones((1, 1)), noise_var=0.5)
        with pytest.raises(ConfigError):
            apply_block_channel(x, real)

    def test_returns_iq_sequence(self):
        cfg = OfdmConfig(n_subcarriers=2, cp_len=2, symbols_per_block=2, num_blocks=2)
        s = generate_stream(cfg, 0)
        real = ChannelRealization(taps=np.ones((2, 1)), noise_var=0.0)
        out = apply_block_channel(s, real)
        assert isinstance(out, IqSequence)
        assert np.array_equal(out.samples, s.samples)

    def test_indivisible_stream_rejected(self):
        real = ChannelRealization(taps=np.ones((3, 1)), noise_var=0.0)
        with pytest.raises(ConfigError):
            apply_block_channel(np.ones(10, dtype=complex), real)

    def test_channel_longer_than_block_rejected(self):
        real = ChannelRealization(taps=np.ones((2, 6)), noise_var=0.0)
        with pytest.raises(ConfigError):
            apply_block_channel(np.ones(10, dtype=complex), real)

    @pytest.mark.parametrize("taps", [1, 3])
    @pytest.mark.parametrize("shape", [(40, 1), (20, 2)], ids=str)
    def test_stream_not_1d_rejected(self, shape, taps):
        # numpy's "same number of dimensions" ValueError used to escape
        real = ChannelRealization(taps=np.ones((2, taps)), noise_var=0.0)
        with pytest.raises(DataError, match=rf"1-D, got shape \({shape[0]}, {shape[1]}\)"):
            apply_block_channel(np.ones(shape, dtype=complex), real)


class TestChannelAgainstConvolution:
    """The block-wise product and in-place noise against per-block np.convolve
    plus sigma * (a + 1j*b), which fixes every seeded noise stream."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 4202, (4202, 3, 17)], ids=str)
    def test_zero_stream_gets_the_seeded_noise_bitwise(self, seed):
        k, t = 3, 40
        real = ChannelRealization(taps=np.ones((k, 1)), noise_var=0.3)
        got = apply_block_channel(np.zeros(k * t, dtype=complex), real, noise_seed=seed)
        assert np.array_equal(got.samples, seeded_noise(seed, k * t, 0.3))

    # one tap, the desk presets' CP length P = 7, and a whole block
    @pytest.mark.parametrize("l", [1, 7, 20], ids=["L=1", "L=P", "L=T"])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_per_block_convolution_plus_noise(self, l, seed):
        k, t = 4, 20
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(k * t) + 1j * rng.standard_normal(k * t)
        taps = rng.standard_normal((k, l)) + 1j * rng.standard_normal((k, l))
        real = ChannelRealization(taps=taps, noise_var=0.5)
        got = apply_block_channel(x, real, noise_seed=seed + 100).samples
        want = convolve_blocks(x, taps) + seeded_noise(seed + 100, k * t, 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_window_view_is_not_copied(self):
        # a (K, T, L) copy of the windows would take L streams and a padded
        # copy of the stream one more; the output and the one block-sized
        # window buffer, which the noise is drawn into, take 1 + 1/K
        k, t, l = 4, 5000, 16
        x = np.ones(k * t, dtype=complex)
        real = ChannelRealization(taps=np.ones((k, l)), noise_var=0.5)
        tracemalloc.start()
        try:
            apply_block_channel(x, real, noise_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.nbytes
