"""Acceptance suite: one test per shipping criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete. Structural criteria (rank signatures, duplicate rows,
scale invariance) are exact; the Monte Carlo criteria check trend and
threshold behavior at desk scale with frozen master seeds.
"""
import time
from dataclasses import replace

import numpy as np

from ofdmblind.channel import ChannelConfig, apply_block_channel, draw_realization
from ofdmblind.estimator import covariance, mdl, rank_oracle_noise_free, segment
from ofdmblind.harness import (
    SweepSpec,
    emit_csv,
    load_preset,
    run_sweep,
)
from ofdmblind.estimator import hermitian_eigenvalues
from ofdmblind.transmitter import OfdmConfig, generate_stream

WORKERS = 4

THEOREM_GRID = [
    (n, p, l)
    for n in (4, 8, 12, 16)
    for p in (2, 3, 4)
    for l in range(1, p + 1)
]


def verdict(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")


def noise_free(n, p, l, m, k, data_seed, chan_seed):
    cfg = OfdmConfig(n_subcarriers=n, cp_len=p, symbols_per_block=m, num_blocks=k)
    s = generate_stream(cfg, data_seed)
    chan = ChannelConfig(num_taps=l, snr_db=float("inf"))
    return apply_block_channel(s, draw_realization(chan, k, chan_seed))


def desk_profile(**overrides):
    base = dict(
        ofdm=OfdmConfig(n_subcarriers=32, cp_len=7, symbols_per_block=100,
                        num_blocks=2),
        num_taps=6,
        snr_db=10.0,
        n_min=16,
        n_max=48,
        trials=200,
    )
    base.update(overrides)
    return base


def test_c01_sixteen_sample_rank_and_rows():
    start = time.perf_counter()
    bad = []
    for seed in range(50):
        r = noise_free(2, 2, 2, m=2, k=2, data_seed=(10, seed), chan_seed=(11, seed))
        seg = segment(r, 4)
        rank = rank_oracle_noise_free(r, 4)
        gap = np.max(np.abs(seg[1, :] - seg[3, :]))
        if rank != 3 or gap > 1e-10:
            bad.append((seed, rank, gap))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    verdict(1, ok, f"rank 3 + equal rows 2/4 in 50/50 seeds, {elapsed:.2f}s")
    assert not bad, f"failing seeds: {bad[:5]}"
    assert elapsed < 1.0


def test_c02_rank_signature_grid():
    start = time.perf_counter()
    bad = []
    for n, p, l in THEOREM_GRID:
        n_star = n + p
        for seed in range(5):
            r = noise_free(n, p, l, m=2 * n_star, k=1,
                           data_seed=(20, n, p, l, seed),
                           chan_seed=(21, n, p, l, seed))
            if rank_oracle_noise_free(r, n_star) != n + l - 1:
                bad.append((n, p, l, seed, n_star))
            for off in (-2, -1, 1, 2):
                if rank_oracle_noise_free(r, n_star + off) != n_star + off:
                    bad.append((n, p, l, seed, n_star + off))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    verdict(2, ok, f"{len(THEOREM_GRID)} cells x 5 seeds x 5 offsets, {elapsed:.1f}s")
    assert not bad, f"rank mismatches: {bad[:5]}"
    assert elapsed < 30.0


def test_c03_duplicate_row_count_grid():
    from ofdmblind.estimator import duplicate_row_pairs

    bad = []
    for n, p, l in THEOREM_GRID:
        for seed in range(5):
            r = noise_free(n, p, l, m=2 * (n + p), k=1,
                           data_seed=(20, n, p, l, seed),
                           chan_seed=(21, n, p, l, seed))
            pairs = duplicate_row_pairs(r, n, p, l)
            if pairs != [(i, i + n) for i in range(l, p + 1)]:
                bad.append((n, p, l, seed, pairs))
    ok = not bad
    verdict(3, ok, "exactly P-L+1 pairs (i, i+N) in every grid cell")
    assert not bad, f"pair mismatches: {bad[:5]}"


def test_c04_noise_floor_convergence():
    start = time.perf_counter()
    sigma2 = 0.1
    means = {200: [], 2000: []}
    for m, acc in means.items():
        cfg = OfdmConfig(n_subcarriers=16, cp_len=4, symbols_per_block=m, num_blocks=2)
        chan = ChannelConfig(num_taps=2, snr_db=10.0)
        for seed in range(20):
            s = generate_stream(cfg, (40, m, seed))
            real = draw_realization(chan, 2, (41, m, seed))
            r = apply_block_channel(s, real, noise_seed=(42, m, seed))
            lam = hermitian_eigenvalues(covariance(segment(r, 20)))
            acc.append(np.mean(lam[-3:]))
    err = {m: abs(np.mean(acc) - sigma2) / sigma2 for m, acc in means.items()}
    elapsed = time.perf_counter() - start
    ok = err[2000] < 0.10 and err[2000] < err[200] and elapsed < 60.0
    verdict(4, ok, f"floor error {err[2000]:.1%} at M=2000 vs {err[200]:.1%} "
                   f"at M=200, {elapsed:.1f}s")
    assert err[2000] < 0.10
    assert err[2000] < err[200]
    assert elapsed < 60.0


def test_c05_mdl_scale_invariance():
    rng = np.random.default_rng(50)
    worst = 0.0
    bad = []
    for i in range(100):
        size = int(rng.integers(6, 64))
        lam = np.sort(rng.uniform(1e-3, 10.0, size))[::-1]
        m_prime = int(rng.integers(20, 2000))
        base = mdl(lam, m_prime)
        for c in (1e-3, 1e3):
            scaled = mdl(c * lam, m_prime)
            diff = float(np.max(np.abs(scaled.values - base.values)))
            worst = max(worst, diff)
            if diff > 1e-9 or scaled.zeta_hat != base.zeta_hat:
                bad.append((i, c, diff))
    ok = not bad
    verdict(5, ok, f"100 spectra x scales 1e-3/1e3, worst drift {worst:.1e}")
    assert not bad, f"drifting spectra: {bad[:5]}"


def test_c06_pd_snr_trend():
    start = time.perf_counter()
    result = run_sweep(load_preset("fig2"), workers=WORKERS)
    elapsed = time.perf_counter() - start
    pts = result.points
    trend_ok = all(
        b.pd >= a.pd - max(a.ci_halfwidth, b.ci_halfwidth)
        for a, b in zip(pts, pts[1:])
    )
    pd20 = pts[-1].pd
    ok = trend_ok and pd20 >= 0.9 and elapsed < 600.0
    curve = " ".join(f"{pt.pd:.2f}" for pt in pts)
    verdict(6, ok, f"pd over SNR = [{curve}], pd(20dB) = {pd20:.2f} "
                   f"(need >= 0.90), {elapsed:.0f}s")
    assert trend_ok, f"pd not non-decreasing within slack: {curve}"
    assert pd20 >= 0.9, (
        f"pd(20dB) = {pd20:.2f} < 0.90 at desk scale: the scan no longer finds "
        f"the P-L+1 missing ranks at the true N'=39 (curve: {curve})"
    )
    assert elapsed < 600.0


def test_c07_long_channel_failure():
    start = time.perf_counter()
    spec = SweepSpec(
        axis="num_taps",
        axis_values=(2, 3, 4, 5, 6, 8, 9, 10),
        master_seed=4203,
        **desk_profile(snr_db=15.0),
    )
    result = run_sweep(spec, workers=WORKERS)
    elapsed = time.perf_counter() - start
    by_l = {int(pt.axis_value): pt.pd for pt in result.points}
    over_cp = {l: by_l[l] for l in (8, 9, 10)}
    under_cp = {l: by_l[l] for l in (2, 3, 4, 5, 6)}
    ok = (all(pd <= 0.05 for pd in over_cp.values())
          and max(under_cp.values()) >= 0.7
          and elapsed < 600.0)
    verdict(7, ok, f"pd(L>P) = {sorted(over_cp.values())} all <= 0.05, "
                   f"best pd(L<=P) = {max(under_cp.values()):.2f}, {elapsed:.0f}s")
    for l, pd in over_cp.items():
        assert pd <= 0.05, f"L={l} still detected with pd={pd:.2f}"
    assert max(under_cp.values()) >= 0.7
    assert elapsed < 600.0


def test_c08_non_power_of_two_n():
    spec = SweepSpec(
        axis="snr_db",
        axis_values=(15.0,),
        ofdm=OfdmConfig(n_subcarriers=48, cp_len=7, symbols_per_block=200,
                        num_blocks=5),
        num_taps=4,
        snr_db=15.0,
        n_min=32,
        n_max=64,
        trials=100,
        master_seed=4208,
    )
    pd = run_sweep(spec, workers=WORKERS).points[0].pd
    ok = pd >= 0.8
    verdict(8, ok, f"pd = {pd:.2f} at N=48 (need >= 0.80)")
    assert pd >= 0.8


def test_c09_modulation_independence():
    spec = SweepSpec(
        axis="mod_order",
        axis_values=(4, 64),
        master_seed=4209,
        **desk_profile(num_taps=4),
    )
    p4, p64 = run_sweep(spec, workers=WORKERS).points
    gap = abs(p4.pd - p64.pd)
    bound = 0.05 + p4.ci_halfwidth + p64.ci_halfwidth
    ok = gap <= bound
    verdict(9, ok, f"|pd(4-QAM) - pd(64-QAM)| = {gap:.3f} <= {bound:.3f}")
    assert gap <= bound


def test_c10_reproducible_csv(tmp_path):
    spec = replace(load_preset("fig5"), trials=5)
    paths = []
    for name, workers in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / f"{name}.csv"
        emit_csv(run_sweep(spec, workers=workers), out)
        paths.append(out.read_bytes())
    ok = paths[0] == paths[1] == paths[2]
    verdict(10, ok, "identical CSV bytes across reruns and 1 vs 4 workers")
    assert paths[0] == paths[1] == paths[2]
