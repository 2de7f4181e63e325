"""Quasi-block-fading multipath channel with AWGN.

Each transmit block of T samples sees its own L-tap impulse response,
drawn independently per block and held constant within it. Because the
convolution tail of block k-1 spills into the first L-1 samples of
block k, the channel is applied as one streaming convolution whose taps
switch at block boundaries, not as K isolated convolutions. It runs
block by block through one buffer of L-1+T samples: the last L-1 samples
of the previous block (zeros before block 0) followed by this block, so
the only stream-sized array written is the received stream itself. The
noise is then drawn block by block into that same buffer, in the order
of one whole-stream draw.

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
    than forming those matrices, each block is copied into one buffer
    behind the L-1 samples that precede it, zeros before the first block,
    and each output sample is the product of its window of the last L
    transmit samples in that buffer with its block's reversed taps: one
    (T, L) by (L,) product per block over a window view of the buffer,
    written straight into the block's slice of the output. The buffer's
    last L-1 samples then carry over to the next block. The two
    formulations agree to rounding, which the test suite checks against
    explicitly built H and B.

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

    # Row i of the window view holds buf[i] .. buf[i+L-1], transmit
    # samples i-L+1 .. i of the block, so its product with the block's
    # reversed taps is the convolution sample r[i]. numpy runs the product
    # over the strided view itself; the (T, L) windows are never copied.
    out = np.empty(len(x), dtype=complex)
    buf = np.zeros(l - 1 + t, dtype=complex)
    windows = sliding_window_view(buf, l)
    for taps, block, r in zip(real.taps, x.reshape(k, t), out.reshape(k, t)):
        buf[l - 1:] = block
        np.matmul(windows, taps[::-1], out=r)
        buf[:l - 1] = buf[t:]

    if real.noise_var > 0:
        if noise_seed is None:
            raise ConfigError("noise_seed is required when noise_var > 0")
        rng = np.random.default_rng(noise_seed)
        sigma = math.sqrt(real.noise_var / 2.0)
        # the real parts' draw, then the imaginary parts', block by block
        # into the window buffer's first T floats, each scaled and added in
        # place: the same values in the same order as one whole-stream
        # draw, bitwise sigma * (a + 1j * b) without its temporaries
        w = buf.view(np.float64)[:t]
        for part in (out.real, out.imag):
            for r in part.reshape(k, t):
                rng.standard_normal(out=w)
                w *= sigma
                r += w

    return IqSequence(samples=out)
