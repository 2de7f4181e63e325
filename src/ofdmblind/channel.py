"""Quasi-block-fading multipath channel with AWGN.

Each transmit block of T samples sees its own L-tap impulse response,
drawn independently per block and held constant within it. Because the
convolution tail of block k-1 spills into the first L-1 samples of
block k, the channel is applied as one streaming convolution whose taps
switch at block boundaries, not as K isolated convolutions.

Each tap is circular complex Gaussian with variance 1/L, so the expected
channel energy E||h_k||^2 is one and the received signal power matches
the unit transmit power on average; that is what makes an SNR comparable
across L, and why the noise power calibrates against a signal power of 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .transmitter import IqSequence


@dataclass(frozen=True)
class ChannelConfig:
    """Channel parameters for one experiment."""
    num_taps: int
    snr_db: float

    def __post_init__(self):
        if self.num_taps < 1:
            raise ConfigError(f"num_taps must be >= 1, got {self.num_taps}")
        try:
            noise_var = calibrate_noise(self.snr_db)
        except OverflowError:
            noise_var = math.inf
        if not noise_var < math.inf:
            raise ConfigError(f"snr_db {self.snr_db} gives no finite noise power 10^(-snr_db/10)")


@dataclass(frozen=True)
class ChannelRealization:
    """Per-block impulse responses (K x L) plus the calibrated noise power."""
    taps: np.ndarray
    noise_var: float

    def __post_init__(self):
        # freeze a view, so the caller's own array stays writeable
        arr = np.asarray(self.taps, dtype=complex).view()
        arr.flags.writeable = False
        object.__setattr__(self, "taps", arr)
        if arr.ndim != 2 or 0 in arr.shape:
            raise ConfigError(f"taps must be K x L with K, L >= 1, got shape {arr.shape}")
        if not 0.0 <= self.noise_var < math.inf:
            raise ConfigError(f"noise_var must be finite and >= 0, got {self.noise_var}")

    @property
    def num_blocks(self) -> int:
        return self.taps.shape[0]


def calibrate_noise(snr_db: float) -> float:
    """Noise power for a target SNR against unit signal power.

    snr_db = +inf is allowed and yields exactly zero noise.
    """
    return 10.0 ** (-snr_db / 10.0)


def draw_realization(cfg: ChannelConfig, num_blocks: int, seed) -> ChannelRealization:
    """Draw K independent L-tap circular complex Gaussian impulse responses."""
    if num_blocks < 1:
        raise ConfigError(f"num_blocks must be >= 1, got {num_blocks}")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(1.0 / cfg.num_taps / 2.0)
    shape = (num_blocks, cfg.num_taps)
    taps = sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelRealization(taps=taps, noise_var=calibrate_noise(cfg.snr_db))


def apply_block_channel(s: IqSequence, real: ChannelRealization, noise_seed=None) -> IqSequence:
    """Push a stream through the block-fading channel and add noise.

    Per block k the received samples satisfy r_k = H_k s_k + B_k s_{k-1} + w_k,
    where H_k is the T x T lower-triangular Toeplitz matrix of the block's
    taps and B_k carries the convolution tail of the previous block into
    the first L-1 samples of this one (B_1 is identically zero). Rather
    than forming those matrices, the stream is padded once with L-1 zeros
    and each output sample is the product of its window of the last L
    transmit samples, which reaches into the previous block, with its
    own block's reversed taps: one batched product over a (K, T, L)
    window view. The two formulations agree to rounding, which the test
    suite checks against explicitly built H and B.

    Noise is i.i.d. circular complex Gaussian with variance real.noise_var,
    drawn from noise_seed. The seed may be omitted only for the noiseless
    case, so silent noise reuse across trials is impossible.
    """
    x = s.samples if isinstance(s, IqSequence) else np.asarray(s, dtype=complex)
    if x.ndim != 1:
        raise DataError(f"the stream must be 1-D, got shape {x.shape}")
    k = real.num_blocks
    if len(x) % k != 0:
        raise ConfigError(f"stream length {len(x)} is not divisible into {k} blocks")
    t = len(x) // k
    l = real.taps.shape[1]
    if l > t:
        raise ConfigError(f"channel ({l} taps) longer than one block ({t} samples)")

    # Row i of the window view holds x[i-L+1] .. x[i] of the padded
    # stream, so its product with block k's reversed taps is the
    # convolution sample r[i]. numpy runs the product over the strided
    # view itself; the (K, T, L) windows are never copied.
    padded = np.concatenate([np.zeros(l - 1, dtype=complex), x])
    windows = sliding_window_view(padded, l).reshape(k, t, l)
    out = (windows @ real.taps[:, ::-1, None]).reshape(-1)

    if real.noise_var > 0:
        if noise_seed is None:
            raise ConfigError("noise_seed is required when noise_var > 0")
        rng = np.random.default_rng(noise_seed)
        sigma = math.sqrt(real.noise_var / 2.0)
        # the real parts' draw, then the imaginary parts', each scaled and
        # added in place: bitwise sigma * (a + 1j * b) without its temporaries
        w = np.empty(len(x))
        for part in (out.real, out.imag):
            rng.standard_normal(out=w)
            w *= sigma
            part += w

    return IqSequence(samples=out)
