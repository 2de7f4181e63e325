"""Property tests of the rank theorem and of the scan's scale invariance.

Random noise-free layouts with 1 <= L <= P <= N: segmented at N' = N+P
the received stream loses exactly P-L+1 ranks, at 2(N+P) twice that, and
at N+P-1 or N+P+1 none. A carrier frequency offset e^{j eps n} scales row
i+N of the correct segmentation by e^{j eps N} against row i, so the
deficiency stays exact. The fixed grids of C01-C03 stay the reference;
these explore the layouts between them.
"""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ofdmblind.channel import ChannelConfig, apply_block_channel, draw_realization  # noqa: E402
from ofdmblind.estimator import EstimatorConfig, estimate_n, rank_oracle_noise_free  # noqa: E402
from ofdmblind.transmitter import OfdmConfig, generate_stream  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None)


@st.composite
def layouts(draw):
    n = draw(st.integers(2, 12))
    p = draw(st.integers(1, n))
    l = draw(st.integers(1, p))
    return n, p, l, draw(st.integers(0, 2**32 - 1))


def received(n, p, l, seed, snr_db=float("inf")):
    """Two fading blocks, each long enough for 2(N+P) segments of 2(N+P)."""
    cfg = OfdmConfig(n_subcarriers=n, cp_len=p, symbols_per_block=4 * (n + p),
                     num_blocks=2)
    chan = ChannelConfig(num_taps=l, snr_db=snr_db)
    data_ss, chan_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    real = draw_realization(chan, cfg.num_blocks, chan_ss)
    noise = noise_ss if real.noise_var > 0 else None
    return apply_block_channel(generate_stream(cfg, data_ss), real, noise).samples


def assert_rank_signature(x, n, p, l):
    n_star = n + p
    assert rank_oracle_noise_free(x, n_star) == n + l - 1
    assert rank_oracle_noise_free(x, 2 * n_star) == 2 * (n + l - 1)
    for off in (-1, 1):
        assert rank_oracle_noise_free(x, n_star + off) == n_star + off


@SETTINGS
@given(layout=layouts())
def test_rank_theorem(layout):
    n, p, l, seed = layout
    assert_rank_signature(received(n, p, l, seed), n, p, l)


@SETTINGS
@given(layout=layouts(), eps=st.floats(-0.5, 0.5))
def test_rank_theorem_under_cfo(layout, eps):
    n, p, l, seed = layout
    x = received(n, p, l, seed)
    assert_rank_signature(x * np.exp(1j * eps * np.arange(len(x))), n, p, l)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(-300, 300))
def test_decision_scale_invariant(seed, k):
    x = received(8, 3, 2, seed, snr_db=10.0)
    cfg = EstimatorConfig(cp_len=3, num_taps=2, n_min=4, n_max=12)
    with np.errstate(over="ignore"):  # spectra of the largest scales overflow
        assert estimate_n(10.0 ** k * x, cfg).n_hat == estimate_n(x, cfg).n_hat
