"""CP-OFDM transmit stream synthesis.

The chain is the textbook one: symbols are drawn uniformly from a
Gray-ordered square-QAM table, each block of M symbol vectors passes
through a unitary IDFT, and every time-domain symbol of N samples is
preceded by a cyclic prefix, a copy of its last P samples. The stream
is one K x M x (N+P) array, block by block and symbol by symbol, so
read flat it is the baseband stream of K*T samples, T = M*(N+P).

Also houses the raw IQ file format used at the process boundary:
little-endian complex64 samples, that is interleaved float32 (re, im)
pairs, with no header.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_count

SUPPORTED_MOD_ORDERS = (4, 16, 64, 256)


@dataclass(frozen=True)
class OfdmConfig:
    """Transmitter parameters; all counts are per the usual CP-OFDM layout."""
    n_subcarriers: int
    cp_len: int
    symbols_per_block: int
    num_blocks: int
    mod_order: int = 4

    def __post_init__(self):
        n, p = self.n_subcarriers, self.cp_len
        check_count("n_subcarriers", n, 2)
        check_count("cp_len", p, 1)
        if p > n:
            # The CP copies rows of an N-row matrix; more rows do not exist.
            raise ConfigError(f"cp_len {p} exceeds n_subcarriers {n}")
        check_count("symbols_per_block", self.symbols_per_block, 1)
        check_count("num_blocks", self.num_blocks, 1)
        if self.mod_order not in SUPPORTED_MOD_ORDERS:
            raise ConfigError(
                f"mod_order must be one of {SUPPORTED_MOD_ORDERS}, got {self.mod_order}"
            )
        # 16.0 is in the table too; only the integer test can fire here
        check_count("mod_order", self.mod_order, SUPPORTED_MOD_ORDERS[0])

    @property
    def symbol_len(self) -> int:
        return self.n_subcarriers + self.cp_len

    @property
    def block_len(self) -> int:
        """T = M*(N+P), samples per block."""
        return self.symbols_per_block * self.symbol_len

    @property
    def stream_len(self) -> int:
        return self.num_blocks * self.block_len


@dataclass(frozen=True)
class IqSequence:
    """A complex baseband stream; `samples` is a read-only complex view.

    Only the view is frozen: an array the caller passes in stays writeable.
    """
    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=complex).view()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.samples, dtype=dtype, copy=copy)


def qam_constellation(mod_order: int) -> np.ndarray:
    """All mod_order points of unit-power square QAM, Gray-ordered per axis.

    The high half of index i's bits picks the in-phase level, the low half
    the quadrature level. Adjacent levels on an axis differ in one bit, and
    index 0 sits on the most positive level of both, so 4-QAM puts
    (1+1j)/sqrt(2) at index 0 and (-1-1j)/sqrt(2) at index 3.
    """
    half = int(np.log2(mod_order)) // 2
    side = 1 << half
    b = np.arange(side)
    level = np.empty(side, dtype=int)
    # the level b steps below the top carries the Gray code of b
    level[b ^ (b >> 1)] = side - 1 - 2 * b
    i = np.arange(mod_order)
    return (level[i >> half] + 1j * level[i & (side - 1)]) / np.sqrt(2.0 * (mod_order - 1) / 3.0)


def idft_apply(freq_block: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply the unitary inverse DFT to each column of an N x M block.

    Returns (1/sqrt(N)) * Q^H @ freq_block, Q the DFT matrix with entry
    (p, q) = exp(-2j*pi*p*q/N), so per-column energy is preserved and a
    unit-power constellation stays unit power in time. It is computed by
    FFT, without forming Q. `out`, an N x M complex array that may be a
    strided view, receives the result in place of a new array and is
    returned.
    """
    return np.fft.ifft(freq_block, axis=0, norm="ortho", out=out)


def generate_stream(cfg: OfdmConfig, seed) -> IqSequence:
    """Generate the full K-block transmit stream from a seeded RNG.

    `seed` is anything numpy's default_rng accepts (int, SeedSequence,
    Generator). Each symbol is a uniform draw of an index into
    qam_constellation, the same as Gray-mapping i.i.d. uniform bits.
    Row j of a block is symbol j: its N IDFT samples, column j of the
    block's IDFT, are written straight into the stream after a P-sample
    slot that then receives their last P samples, so each symbol is
    written into the stream once and no block-sized result is copied.
    """
    rng = np.random.default_rng(seed)
    points = qam_constellation(cfg.mod_order)
    n, p, m = cfg.n_subcarriers, cfg.cp_len, cfg.symbols_per_block
    stream = np.empty((cfg.num_blocks, m, cfg.symbol_len), dtype=complex)
    for block in stream:
        idft_apply(points[rng.integers(0, cfg.mod_order, size=(n, m))], out=block[:, p:].T)
        block[:, :p] = block[:, n:]
    return IqSequence(samples=stream.reshape(-1))


# --- raw IQ file format -------------------------------------------------

def write_iq_file(path, samples: np.ndarray) -> int:
    """Write samples as little-endian complex64; returns the sample count.

    A finite part beyond complex64's range raises DataError, writing nothing."""
    arr = np.ascontiguousarray(samples, dtype=complex)
    with np.errstate(over="ignore"):
        raw = arr.astype("<c8")
    if np.any(np.isfinite(arr.view(np.float64)) & ~np.isfinite(raw.view("<f4"))):
        raise DataError(f"{path}: a sample part exceeds the complex64 range")
    raw.tofile(path)
    return arr.size


def read_iq_file(path) -> np.ndarray:
    """Read an IQ file written by write_iq_file back as its complex64
    samples, without widening them; estimate_n scans them in that
    precision."""
    raw = np.fromfile(path, dtype="<f4")
    if len(raw) % 2 != 0:
        raise DataError(f"{path}: odd float count {len(raw)}, not an IQ pair stream")
    return raw.view("<c8")
