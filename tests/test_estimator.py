"""Tests for segmentation, MDL model-order selection, and the N estimator.

MDL values are checked against a literal re-evaluation of the formula,
rank claims against an SVD oracle, duplicate rows against brute-force
row comparison on noise-free faded streams, and the shortlisted scan
against a plain serial scan of the shortlist and of the whole range.
"""
import math
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ofdmblind.channel import ChannelConfig, apply_block_channel, draw_realization
from ofdmblind import estimator
from ofdmblind.errors import ConfigError, DataError
from ofdmblind.estimator import (
    EstimatorConfig,
    covariance,
    duplicate_row_pairs,
    estimate_n,
    floor_ratio,
    hermitian_eigenvalues,
    lag_statistic,
    mdl,
    rank_oracle_noise_free,
    segment,
)
from ofdmblind.harness import load_preset, point_configs, simulate
from ofdmblind.transmitter import IqSequence, OfdmConfig, generate_stream


def faded_stream(n, p, l, m, k, seed, mod=4):
    """Noise-free transmit stream pushed through a random L-tap channel."""
    cfg = OfdmConfig(n_subcarriers=n, cp_len=p, symbols_per_block=m,
                     num_blocks=k, mod_order=mod)
    seq = generate_stream(cfg, seed)
    chan = ChannelConfig(num_taps=l, snr_db=float("inf"))
    real = draw_realization(chan, k, seed + 1000)
    return apply_block_channel(seq, real)


def noisy_stream(n, p, l, m, k, seed, snr_db):
    """CP-OFDM stream through a random L-tap channel plus calibrated noise."""
    cfg = OfdmConfig(n_subcarriers=n, cp_len=p, symbols_per_block=m, num_blocks=k)
    chan = ChannelConfig(num_taps=l, snr_db=snr_db)
    real = draw_realization(chan, k, seed + 1000)
    return apply_block_channel(generate_stream(cfg, seed), real, noise_seed=seed + 2000)


def mdl_direct(lam, m_prime):
    """Plain per-split evaluation of the description length, no shortcuts."""
    lam = np.asarray(lam, dtype=float)
    n = len(lam)
    out = np.empty(n)
    for zeta in range(1, n):
        resid = lam[zeta:]
        log_gm = np.mean(np.log(resid))
        log_am = math.log(np.mean(resid))
        out[zeta - 1] = (-(n - zeta) * m_prime * (log_gm - log_am)
                         + 0.5 * zeta * (2 * n - zeta) * math.log(m_prime))
    out[n - 1] = 0.5 * n * n * math.log(m_prime)
    return out


def per_lag_statistic(x, lags):
    """Unchunked lag statistic, the oracle for lag_statistic: one np.vdot
    per lag over the whole stream."""
    energy = np.vdot(x, x).real
    s = np.array([abs(np.vdot(x[k:], x[:len(x) - k])) for k in lags])
    return s / energy if energy else s


def shortlisting(*picked):
    """A stand-in lag statistic under which the lags `picked` top the range."""
    return lambda x, lags: np.array([1.0 if k in picked else 0.0 for k in lags])


def reference_scan(x, cfg, shortlisted=True):
    """Plain serial scan, the oracle for estimate_n: (n_hat, lag scores,
    floor ratios, spectra). Scans the SHORTLIST lags of largest s, ties to
    the smaller lag, or with `shortlisted` false every candidate of the
    range."""
    x = np.asarray(x, dtype=complex)
    e = math.frexp(np.max(np.abs(x.view(np.float64))))[1]
    x = np.ldexp(x.view(np.float64), -e).view(complex)
    lags = range(cfg.n_min, cfg.n_max + 1)
    s = lag_statistic(x, lags)
    missing = cfg.cp_len - cfg.num_taps + 1
    candidates = cfg.candidates
    if shortlisted:
        top = sorted(lags, key=lambda k: -s[k - cfg.n_min])[:estimator.SHORTLIST]
        candidates = [k + cfg.cp_len for k in sorted(top)]
    ratios, spectra = {}, {}
    for n_prime in candidates:
        seg = segment(x, n_prime)
        lam = hermitian_eigenvalues(covariance(seg))
        ratios[n_prime] = floor_ratio(lam, seg.shape[1], missing)
        spectra[n_prime] = np.ldexp(lam, 2 * e)
    best = min(ratios, key=ratios.get)
    return best - cfg.cp_len, dict(zip(lags, s.tolist())), ratios, spectra


class TestEstimatorConfig:
    def test_candidate_range(self):
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=16)
        assert list(cfg.candidates) == list(range(7, 20))
        # d = P - L + 1 at L < P and L = P
        assert [replace(cfg, num_taps=taps).missing for taps in (2, 3)] == [2, 1]

    @pytest.mark.parametrize("kwargs", [
        dict(cp_len=0, num_taps=1, n_min=2, n_max=4),
        dict(cp_len=3, num_taps=0, n_min=2, n_max=4),
        dict(cp_len=3, num_taps=2, n_min=1, n_max=4),
        dict(cp_len=3, num_taps=2, n_min=8, n_max=4),
        # a channel longer than the cyclic prefix leaves no rank missing
        dict(cp_len=7, num_taps=9, n_min=16, n_max=48),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            EstimatorConfig(**kwargs)


class TestSegment:
    def test_columns_are_consecutive_runs(self):
        seg = segment(np.arange(1, 21, dtype=complex), 4)
        assert seg.shape[1] == 5
        assert seg[:, 0] == pytest.approx([1, 2, 3, 4])
        assert seg[:, 1] == pytest.approx([5, 6, 7, 8])

    def test_trailing_samples_discarded(self):
        seg = segment(np.arange(16, dtype=complex), 3)
        assert seg.shape == (3, 5)
        # sample 16 never appears
        assert seg.ravel(order="F") == pytest.approx(np.arange(15))

    def test_iq_sequence_accepted(self):
        cfg = OfdmConfig(n_subcarriers=2, cp_len=2, symbols_per_block=2, num_blocks=2)
        seg = segment(generate_stream(cfg, 0), 4)
        assert seg.shape == (4, 4)


class TestCovariance:
    def test_repeated_column_gives_outer_product(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        seg = segment(np.tile(v, 5), 4)
        assert covariance(seg) == pytest.approx(np.outer(v, v.conj()))

    def test_zero_input(self):
        seg = segment(np.zeros(20, dtype=complex), 4)
        assert np.all(covariance(seg) == 0)

    def test_trace_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        seg = segment(x, 6)
        c = covariance(seg)
        want = np.sum(np.abs(seg) ** 2) / seg.shape[1]
        assert np.trace(c).real == pytest.approx(want)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        c = covariance(segment(x, 8))
        assert np.max(np.abs(c - c.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(c)) > -1e-12

    @pytest.mark.parametrize("kind", [
        "complex", "real", "float32", "strided", "iq_sequence", "c_ordered_segment",
    ])
    def test_matches_dense_oracle_and_is_exactly_hermitian(self, kind):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(2 * 900) + 1j * rng.standard_normal(2 * 900)
        n_prime = 13
        if kind == "complex":
            seg = segment(x, n_prime)
        elif kind == "real":
            seg = segment(x.real, n_prime)
        elif kind == "float32":
            seg = segment(x.astype(np.complex64), n_prime)
        elif kind == "strided":
            seg = segment(x[::2], n_prime)
        elif kind == "iq_sequence":
            seg = segment(IqSequence(samples=x), n_prime)
        else:
            seg = np.ascontiguousarray(x[:n_prime * 70].reshape(n_prime, 70, order="F"))
            assert seg.flags.c_contiguous
        d = np.asarray(seg, dtype=complex)
        want = d @ d.conj().T / seg.shape[1]
        c = covariance(seg)
        assert c.dtype == np.complex128
        assert np.max(np.abs(c - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(c, c.conj().T)

    def test_segmented_stream_is_not_copied(self):
        # the M' x 2N' real view that feeds the Gram product shares memory
        # with the stream, so a candidate costs no copy of the samples
        x = np.random.default_rng(5).standard_normal(400).astype(complex)
        seg = segment(x, 8)
        assert np.shares_memory(seg, x)
        assert seg.T.flags.c_contiguous

    def test_white_noise_covariance_near_identity(self):
        rng = np.random.default_rng(3)
        n = 8 * 10_000
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        c = covariance(segment(x, 8))
        assert np.max(np.abs(np.diag(c).real - 1.0)) < 0.05
        off = c - np.diag(np.diag(c))
        assert np.max(np.abs(off)) < 0.05


class TestMdl:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        lam = np.sort(rng.uniform(0.1, 10.0, n))[::-1]
        m_prime = int(rng.integers(10, 5000))
        curve = mdl(lam, m_prime)
        want = mdl_direct(lam, m_prime)
        assert curve.values == pytest.approx(want, rel=1e-9)
        assert curve.zeta_hat == int(np.argmin(want)) + 1

    def test_flat_spectrum_is_penalty_only(self):
        curve = mdl(np.array([2.0, 2.0, 2.0, 2.0]), 100)
        log_m = math.log(100)
        penalties = [0.5 * z * (8 - z) * log_m for z in (1, 2, 3)] + [8 * log_m]
        assert curve.values == pytest.approx(penalties, rel=1e-12)
        assert curve.zeta_hat == 1

    def test_two_source_spectrum(self):
        curve = mdl(np.array([10.0, 10.0, 1.0, 1.0, 1.0, 1.0]), 10_000)
        assert curve.zeta_hat == 2

    def test_scaling_leaves_values_unchanged(self):
        rng = np.random.default_rng(4)
        lam = np.sort(rng.uniform(0.5, 5.0, 12))[::-1]
        base = mdl(lam, 300)
        scaled = mdl(7.3 * lam, 300)
        assert scaled.values == pytest.approx(base.values, abs=1e-9)
        assert scaled.zeta_hat == base.zeta_hat

    def test_final_split_is_pure_penalty(self):
        curve = mdl(np.array([5.0, 1.0, 0.5]), 50)
        assert curve.values[-1] == pytest.approx(0.5 * 9 * math.log(50))


class TestFloorRatio:
    def test_white_spectrum_sits_at_the_edge(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(16 * 400) + 1j * rng.standard_normal(16 * 400)
        lam = np.linalg.eigvalsh(covariance(segment(x, 16)))[::-1]
        assert 1.0 <= floor_ratio(lam, 400, 2) <= 1.3

    def test_missing_ranks_read_near_zero(self):
        lam = np.array([4.0, 3.0, 2.0, 1.0, 1e-4, 1e-4])
        assert floor_ratio(lam, 600, 2) < 1e-3
        assert floor_ratio(lam, 600, 1) == pytest.approx(floor_ratio(lam, 600, 2))

    def test_scale_invariant(self):
        lam = np.array([5.0, 2.0, 1.0, 0.5])
        assert floor_ratio(1e-3 * lam, 100, 2) == pytest.approx(floor_ratio(lam, 100, 2))

    def test_square_segmentation_is_uninformative(self):
        assert floor_ratio(np.array([2.0, 1.0, 0.5]), 3, 1) == math.inf


class TestLagStatistic:
    LAGS = range(4, 21)

    @pytest.mark.parametrize("taps", [1, 2, 3])
    def test_peaks_at_n_on_a_noise_free_stream(self, taps):
        # each prefix sample repeats the sample N later
        x = faded_stream(8, 3, taps, m=200, k=2, seed=11).samples
        s = lag_statistic(x, self.LAGS)
        assert self.LAGS[int(np.argmax(s))] == 8
        if taps == 1:
            # all P of every N + P samples repeat exactly, and the products
            # of independent samples nearly cancel
            assert s[8 - 4] == pytest.approx(3 / 11, abs=0.04)

    def test_scale_invariant(self):
        x = noisy_stream(8, 3, 2, m=60, k=2, seed=12, snr_db=5.0).samples
        s = lag_statistic(x, self.LAGS)
        for k in (-200, -30, 30, 200):
            assert np.array_equal(lag_statistic(np.ldexp(x.view(np.float64), k).view(complex),
                                                self.LAGS), s)
        assert lag_statistic(1e3 * x, self.LAGS) == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("kind", ["noisy", "white", "constant", "alternating"])
    def test_values_lie_in_unit_interval(self, kind):
        rng = np.random.default_rng(13)
        x = {
            "noisy": noisy_stream(8, 3, 2, m=60, k=2, seed=13, snr_db=-5.0).samples,
            "white": rng.standard_normal(700) + 1j * rng.standard_normal(700),
            "constant": np.full(700, 3 - 4j),
            "alternating": np.tile([1.0 + 0j, -1.0], 350),
        }[kind]
        s = lag_statistic(x, self.LAGS)
        assert s.shape == (len(self.LAGS),)
        assert np.all((0.0 <= s) & (s <= 1.0))

    def test_all_zero_stream_scores_zero(self):
        with np.errstate(all="raise"):
            s = lag_statistic(np.zeros(400, dtype=complex), self.LAGS)
        assert np.array_equal(s, np.zeros(len(self.LAGS)))

    PAPER_LAGS = range(32, 97)

    @staticmethod
    def paper_capture(n):
        # the first n samples of a fig2.paper-geometry capture at 0 dB
        x = noisy_stream(64, 7, 6, m=500, k=5, seed=14, snr_db=0.0).samples
        assert n <= len(x)
        return x[:n]

    @pytest.mark.parametrize("n", [400, 20000, estimator.LAG_CHUNK - 1])
    def test_stream_within_one_chunk_sums_as_one_dot_product(self, n):
        x = self.paper_capture(n)
        assert np.array_equal(lag_statistic(x, self.PAPER_LAGS),
                              per_lag_statistic(x, self.PAPER_LAGS))

    @pytest.mark.parametrize("n", [
        estimator.LAG_CHUNK,
        estimator.LAG_CHUNK + 1,
        estimator.LAG_CHUNK + 50,
        estimator.LAG_CHUNK + 95,
        2 * estimator.LAG_CHUNK + 96,
        2 * estimator.LAG_CHUNK + 12345,
        177500,
    ])
    def test_chunked_sum_matches_one_dot_product_per_lag(self, n):
        # one chunk, one chunk plus fewer samples than the largest lag (so
        # the last chunk holds no product for the larger lags), and several
        # chunks with a ragged tail, up to the whole paper capture
        x = self.paper_capture(n)
        got = lag_statistic(x, self.PAPER_LAGS)
        assert got == pytest.approx(per_lag_statistic(x, self.PAPER_LAGS), rel=1e-12)
        assert self.PAPER_LAGS[int(np.argmax(got))] == 64


class TestRankOracle:
    def test_sixteen_sample_example(self):
        # N=2, P=2, L=2: correct segmentation drops exactly one rank
        r = faded_stream(2, 2, 2, m=2, k=2, seed=0)
        assert rank_oracle_noise_free(r, 4) == 3
        assert rank_oracle_noise_free(r, 3) == 3

    def test_single_tap_keeps_cp_redundancy(self):
        # L=1: all P prefix rows stay exact duplicates, rank N+L-1 = N
        r = faded_stream(8, 3, 1, m=15, k=1, seed=1)
        assert rank_oracle_noise_free(r, 11) == 8

    def test_wrong_segmentations_full_rank(self):
        r = faded_stream(8, 3, 2, m=30, k=2, seed=2)
        assert rank_oracle_noise_free(r, 11) == 9
        assert rank_oracle_noise_free(r, 10) == 10
        assert rank_oracle_noise_free(r, 12) == 12


class TestEstimateN:
    def test_noise_free_scan(self):
        r = faded_stream(8, 3, 2, m=20, k=2, seed=0)
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=16)
        report = estimate_n(r, cfg)
        assert report.n_hat == 8
        # the winner's MDL split lands on N + L - 1, a miss of zero
        assert mdl(report.eigen_spectra[11], len(r) // 11).zeta_hat == 9

    def test_high_snr_mostly_correct(self):
        wins = 0
        trials = 100
        cfg = OfdmConfig(n_subcarriers=32, cp_len=7, symbols_per_block=100, num_blocks=2)
        chan = ChannelConfig(num_taps=6, snr_db=30.0)
        est = EstimatorConfig(cp_len=7, num_taps=6, n_min=24, n_max=40)
        for trial in range(trials):
            streams = np.random.SeedSequence((4242, trial)).spawn(3)
            s = generate_stream(cfg, streams[0])
            real = draw_realization(chan, cfg.num_blocks, streams[1])
            r = apply_block_channel(s, real, noise_seed=streams[2])
            wins += estimate_n(r, est).n_hat == 32
        assert wins >= 95

    def test_mdl_collapse_at_true_candidate_recovered(self):
        # Trial 8 of the fig2 desk preset at 20 dB, seeded as run_trial
        # seeds it. The MDL split at the true N'=39 collapses to zeta=1,
        # 36 below N+L-1, so the MDL curves of the whole range alone point
        # at N'=23; the shortlisted floor ratio still finds N'=39.
        ofdm, chan, est = point_configs(load_preset("fig2"), 20.0)
        r = simulate(ofdm, chan, (4202, 5, 8))
        report = estimate_n(r, est)
        _, _, _, spectra = reference_scan(r.samples, est, shortlisted=False)
        missing = est.cp_len - est.num_taps + 1
        misses = {
            n_prime: abs(mdl(lam, len(r) // n_prime).zeta_hat - (n_prime - missing))
            for n_prime, lam in spectra.items()
        }
        assert mdl(report.eigen_spectra[39], len(r) // 39).zeta_hat == 1
        assert min(misses, key=lambda n_prime: (misses[n_prime], n_prime)) == 23
        assert report.n_hat == 32

    def test_multiple_of_symbol_length_loses(self):
        # N'=22 and 33 hold whole symbols and lose 2 and 3 ranks each
        r = noisy_stream(8, 3, 2, m=200, k=2, seed=0, snr_db=20.0)
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=30)
        assert estimate_n(r, cfg).n_hat == 8

    def test_scale_invariant(self):
        r = noisy_stream(8, 3, 2, m=60, k=2, seed=1, snr_db=15.0)
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=16)
        a = estimate_n(r, cfg)
        b = estimate_n(1e3 * r.samples, cfg)
        assert a.n_hat == b.n_hat == 8
        assert list(b.floor_ratios) == list(a.floor_ratios)
        assert list(b.floor_ratios.values()) == pytest.approx(list(a.floor_ratios.values()))

    def test_pure_function_of_inputs(self):
        r = faded_stream(4, 2, 2, m=20, k=2, seed=4)
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=8)
        a = estimate_n(r, cfg)
        b = estimate_n(r, cfg)
        assert a.n_hat == b.n_hat
        assert a.floor_ratios == b.floor_ratios
        for n_prime, lam in a.eigen_spectra.items():
            assert np.array_equal(lam, b.eigen_spectra[n_prime])

    def test_candidates_reported_in_order(self):
        # every lag of the range is scored, and the shortlist is reported
        # in ascending order whatever the order of its lag scores
        r = faded_stream(4, 2, 2, m=20, k=2, seed=5)
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=8)
        report = estimate_n(r, cfg)
        assert list(report.lag_scores) == list(range(2, 9))
        by_score = sorted(report.lag_scores, key=report.lag_scores.get, reverse=True)
        shortlist = sorted(k + cfg.cp_len for k in by_score[:estimator.SHORTLIST])
        assert list(report.floor_ratios) == shortlist
        assert list(report.eigen_spectra) == shortlist
        assert report.n_hat == 4

    def test_shortlist_ties_go_to_smaller_lag(self, monkeypatch):
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=8)
        monkeypatch.setattr(estimator, "lag_statistic",
                            lambda x, lags: np.array([0.5 if k in (3, 5, 6, 8) else 0.1
                                                      for k in lags]))
        report = estimate_n(faded_stream(4, 2, 2, m=20, k=2, seed=5), cfg)
        assert list(report.floor_ratios) == [5, 7, 8]

    def test_insufficient_data_names_worst_candidate(self):
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=16)
        with pytest.raises(DataError, match=r"^candidate N'=19 needs 361 samples, the stream holds 100: "
                                            r"19 segments of 19 samples, one per row"):
            estimate_n(np.zeros(100, dtype=complex), cfg)

    @pytest.mark.parametrize("shape", [(2000, 2), (4000, 1), (1, 4000)], ids=str)
    def test_stream_not_1d_rejected(self, shape):
        # a (4000, 1) column used to pass, and (2000, 2) died in segment
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        with pytest.raises(DataError, match=rf"1-D, got shape \({shape[0]}, {shape[1]}\)"):
            estimate_n(np.ones(shape, dtype=complex), cfg)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_sample_rejected(self, bad):
        x = noisy_stream(8, 3, 2, m=30, k=2, seed=8, snr_db=20.0).samples.copy()
        x[17] = bad
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        with pytest.raises(DataError, match="NaN or infinite"):
            estimate_n(x, cfg)

    @staticmethod
    def fig2_capture(scale="desk"):
        # the 10 dB point of a fig2 preset, seeded as
        # `ofdmblind generate --seed 3` seeds it
        ofdm, chan, est = point_configs(load_preset("fig2", scale), 10.0)
        data_ss, chan_ss, noise_ss = np.random.SeedSequence(3).spawn(3)
        real = draw_realization(chan, ofdm.num_blocks, chan_ss)
        r = apply_block_channel(generate_stream(ofdm, data_ss), real, noise_ss)
        return r.samples, est

    def test_faint_capture_keeps_its_decision(self):
        # 1e-18 puts the stream power near 1e-36, far below any fixed
        # eigenvalue floor; complex64 is what an .iq file holds. At 1e-170
        # and below, the unscaled covariance would underflow.
        x, est = self.fig2_capture()
        assert estimate_n(x, est).n_hat == 32
        assert estimate_n((1e-18 * x).astype(np.complex64), est).n_hat == 32
        for scale in (1e-170, 1e-200):
            assert estimate_n(scale * x, est).n_hat == 32

    def test_huge_capture_keeps_its_decision(self):
        # every sample is finite, but the unscaled covariance would
        # overflow; the reported spectra do overflow to inf
        x, est = self.fig2_capture()
        with np.errstate(over="ignore"):
            for scale in (1e160, 1e300):
                assert estimate_n(scale * x, est).n_hat == 32

    def test_scale_window_edges_change_no_bit(self):
        # in place at 2^k for k = 0, +-1 and at either edge of the scale
        # window, rescaled one step past either edge: the same decision,
        # lag scores and floor ratios, and spectra 2^(2k) times those at
        # k = 0, all equal to the always-rescaling serial scan
        x, est = self.fig2_capture()
        e = math.frexp(np.max(np.abs(x.view(np.float64))))[1]
        w = estimator.SCALE_WINDOW
        base = estimate_n(x, est)
        for k in (0, 1, -1, w - e, -w - e, w + 1 - e, -w - 1 - e):
            xk = np.ldexp(x.view(np.float64), k).view(complex)
            report = estimate_n(xk, est)
            n_hat, _, _, spectra = reference_scan(xk, est)
            assert report.n_hat == base.n_hat == n_hat
            assert list(report.lag_scores.items()) == list(base.lag_scores.items())
            assert list(report.floor_ratios.items()) == list(base.floor_ratios.items())
            assert list(report.eigen_spectra) == list(spectra)
            for n_prime, lam in report.eigen_spectra.items():
                want = np.ldexp(base.eigen_spectra[n_prime], 2 * k)
                assert lam.tobytes() == want.tobytes() == spectra[n_prime].tobytes()

    def test_scans_the_callers_samples_in_place(self, monkeypatch):
        # inside the scale window nothing stream-sized is allocated: the
        # lag statistic and the segments read the caller's array. A
        # rescaled copy and an |x| temporary would take 1.13 streams; at
        # this 177500-sample capture the covariances take 0.13
        x, est = self.fig2_capture("paper")
        seen = []
        inner = estimator.lag_statistic
        monkeypatch.setattr(estimator, "lag_statistic",
                            lambda v, lags: seen.append(v) or inner(v, lags))
        tracemalloc.start()
        try:
            estimate_n(x, est)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(seen) == 1 and np.shares_memory(seen[0], x)
        assert peak < 0.5 * x.nbytes

    def test_all_zero_stream_reports_smallest_candidate(self):
        # s = 0 at every lag, not 0/0, so the shortlist is the three
        # smallest candidates, and their floor ratios tie
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        with np.errstate(all="raise"):
            report = estimate_n(np.zeros(400, dtype=complex), cfg)
        assert report.n_hat == 4
        assert set(report.lag_scores.values()) == {0.0}
        assert list(report.floor_ratios) == [7, 8, 9]

    def test_mdl_never_called(self, monkeypatch):
        # the floor ratio alone decides; MDL is only a diagnostic
        calls = []
        monkeypatch.setattr(estimator, "mdl", lambda *args: calls.append(args))
        r = noisy_stream(8, 3, 2, m=30, k=2, seed=9, snr_db=20.0)
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        estimate_n(r, cfg)
        assert calls == []

    def test_spectra_kept_on_request(self, monkeypatch):
        # only the shortlisted candidates are segmented, and each one's
        # spectrum is kept; the true N' = 6 is among them
        r = faded_stream(4, 2, 2, m=20, k=2, seed=6)
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=8)
        segmented = []
        inner = estimator.segment
        monkeypatch.setattr(estimator, "segment",
                            lambda x, n_prime: segmented.append(n_prime) or inner(x, n_prime))
        report = estimate_n(r, cfg)
        assert len(segmented) == estimator.SHORTLIST
        assert set(report.eigen_spectra) == set(segmented) == set(report.floor_ratios)
        assert 6 in report.eigen_spectra

    def test_report_reads_its_own_spectra(self):
        # every per-candidate statistic is a function of the reported
        # spectrum alone, so a reader can recompute the decision from it
        r = noisy_stream(8, 3, 2, m=30, k=2, seed=7, snr_db=10.0)
        x = r.samples
        cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
        missing = cfg.cp_len - cfg.num_taps + 1
        report = estimate_n(r, cfg)
        for n_prime, ratio in report.floor_ratios.items():
            lam = report.eigen_spectra[n_prime]
            assert lam.shape == (n_prime,)
            assert np.all(np.diff(lam) <= 0)
            assert floor_ratio(lam, len(x) // n_prime, missing) == ratio
        best = min(report.floor_ratios, key=report.floor_ratios.get)
        assert report.n_hat == best - cfg.cp_len

    def test_concurrent_callers(self):
        # more callers than cores, as run_sweep's threads call estimate_n,
        # switching threads every 10 us: every report equals the reference
        r = faded_stream(4, 2, 2, m=30, k=2, seed=4).samples
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=12)
        want = reference_scan(r, cfg)
        got = []

        def caller():
            for _ in range(20):
                report = estimate_n(r, cfg)
                got.append((report.n_hat, report.floor_ratios,
                            [lam.tobytes() for lam in report.eigen_spectra.values()]))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(got) == 80
        want_bytes = [lam.tobytes() for lam in want[3].values()]
        assert all(g == (want[0], want[2], want_bytes) for g in got)


class TestParallelScan:
    """Parallelism lives in run_sweep's threads: estimate_n scans in the
    thread that calls it. From one to eight callers at once, every report
    equals a plain serial loop over the same steps bitwise, and each
    candidate is segmented by the caller that asked for it."""

    @staticmethod
    def from_callers(monkeypatch, callers, *args):
        """Call estimate_n(*args) from `callers` threads at once; returns
        the reports, once no thread but the callers has segmented and
        none outlives the calls."""
        segmented_by = []
        inner = estimator.segment
        monkeypatch.setattr(estimator, "segment",
                            lambda x, n_prime: segmented_by.append(threading.get_ident())
                            or inner(x, n_prime))
        before = threading.active_count()
        start = threading.Barrier(callers)
        reports = {}

        def caller():
            start.wait(timeout=60)
            reports[threading.get_ident()] = estimate_n(*args)
        threads = [threading.Thread(target=caller) for _ in range(callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert threading.active_count() == before
        assert len(reports) == callers
        assert Counter(segmented_by) == {ident: len(report.eigen_spectra)
                                         for ident, report in reports.items()}
        return list(reports.values())

    @pytest.mark.parametrize("callers", [1, 2, 3, 8])
    @pytest.mark.parametrize("scale", ["desk", "paper"])
    def test_equals_serial_scan(self, monkeypatch, scale, callers):
        x, est = TestEstimateN.fig2_capture(scale)
        n_hat, lag_scores, ratios, spectra = reference_scan(x, est)
        for report in self.from_callers(monkeypatch, callers, x, est):
            assert report.n_hat == n_hat
            assert list(report.lag_scores.items()) == list(lag_scores.items())
            assert list(report.floor_ratios.items()) == list(ratios.items())
            assert list(report.eigen_spectra) == list(spectra)
            for n_prime, lam in spectra.items():
                assert report.eigen_spectra[n_prime].tobytes() == lam.tobytes()
        assert len(spectra) == estimator.SHORTLIST
        assert n_hat == 32 if scale == "desk" else n_hat == 64

    @pytest.mark.parametrize("callers", [1, 2, 3])
    def test_tie_goes_to_smaller_candidate(self, monkeypatch, callers):
        # N' = 10, 11 and 12 are shortlisted, and 11 and 12 tie
        r = faded_stream(4, 2, 2, m=30, k=2, seed=4)
        cfg = EstimatorConfig(cp_len=2, num_taps=2, n_min=2, n_max=12)
        monkeypatch.setattr(estimator, "lag_statistic", shortlisting(8, 9, 10))
        monkeypatch.setattr(estimator, "floor_ratio",
                            lambda lam, m_prime, missing: 0.5 if len(lam) in (11, 12) else 1.0)
        for report in self.from_callers(monkeypatch, callers, r, cfg):
            assert report.n_hat == 11 - cfg.cp_len
            assert list(report.floor_ratios) == [10, 11, 12]


class TestDuplicateRows:
    def test_sixteen_sample_pair(self):
        r = faded_stream(2, 2, 2, m=2, k=2, seed=0)
        assert duplicate_row_pairs(r, 2, 2, 2) == [(2, 4)]

    def test_l_equals_p_single_pair(self):
        r = faded_stream(8, 3, 3, m=15, k=1, seed=1)
        assert duplicate_row_pairs(r, 8, 3, 3) == [(3, 11)]

    def test_three_pairs(self):
        r = faded_stream(16, 4, 2, m=25, k=2, seed=2)
        assert duplicate_row_pairs(r, 16, 4, 2) == [(2, 18), (3, 19), (4, 20)]

    def test_wrong_n_has_no_pairs(self):
        r = faded_stream(8, 3, 2, m=30, k=2, seed=3)
        assert duplicate_row_pairs(r, 9, 3, 2) == []


class TestShortlistLosesNothing:
    """Wherever the full scan of the range is right, the shortlisted scan
    is right too: on every desk fig2 trial t < 20 of all six points, and
    on a few fig4 and fig5 trials, seeded as run_trial seeds them."""

    @pytest.mark.parametrize("preset, trials", [("fig2", 20), ("fig4", 2), ("fig5", 5)])
    def test_right_wherever_the_full_scan_is(self, preset, trials):
        spec = load_preset(preset)
        checked = 0
        for i, value in enumerate(spec.axis_values):
            ofdm, chan, est = point_configs(spec, value)
            for t in range(trials):
                r = simulate(ofdm, chan, (spec.master_seed, i, t))
                if reference_scan(r.samples, est, shortlisted=False)[0] == ofdm.n_subcarriers:
                    checked += 1
                    assert estimate_n(r, est).n_hat == ofdm.n_subcarriers, (value, t)
        # the full scan is right on most of these trials
        assert checked >= 0.7 * trials * len(spec.axis_values)
