"""Blind subcarrier-count estimation from segment covariance spectra.

The receiver knows the CP length P and the channel order L but not the
number of subcarriers N. The whole stream of K*T received samples is cut
into consecutive non-overlapping segments of a candidate length N' and
laid out as the columns of an N' x M' matrix, M' = floor(K*T / N').

The cyclic prefix makes this matrix rank deficient exactly when the
segmentation is the correct one, N' = N + P. Within one received symbol
window, sample i is a convolution of transmitted samples i, i-1, ...,
i-L+1, and the CP guarantees the transmitted samples at positions i and
i+N agree for i = 1..P. Once i >= L the convolution reaches back only
into CP territory, so received rows i and i+N of the correctly segmented
matrix coincide for i = L..P: that is P-L+1 duplicate rows, leaving rank
N+L-1 out of N+P. A multiple k(N+P) holds k whole symbols per column
and loses k(P-L+1) ranks; any other segmentation scrambles symbol
boundaries across columns and the matrix stays full rank. With noise,
the duplicate rows turn into P-L+1 covariance eigenvalues at the noise
floor instead of exact zeros. Their number is known; which candidate holds them is not.

The missing ranks are read off each candidate's eigenvalue spectrum
lambda_1 >= ... >= lambda_{N'} by the energy left in its d = P-L+1
smallest eigenvalues:

    floor_ratio(N') = mean(lambda_{N'-d+1} .. lambda_{N'}) / mean(lambda)
                      / (1 - sqrt(N'/M'))^2

The first quotient is small where d eigenvalues sit at the noise floor.
The second divides out the Marchenko-Pastur lower edge, the fraction of
the mean eigenvalue that the smallest eigenvalues of white data reach
with N'/M' rows per column. Without it a longer candidate, whose
covariance is averaged over fewer columns, wins by spread alone: on a
range holding a multiple of N+P, which loses 2d or more ranks, the
unnormalized quotient picks the multiple. The candidate with the smallest
floor_ratio wins, and the estimate is N = N' - P. Every quotient is
scale invariant, and scaled_stream keeps it so over the whole
floating-point range. For L > P no rank goes missing at any candidate,
so EstimatorConfig refuses such a channel.

estimate_n is three steps. (a) scaled_stream checks the stream and
brings it to a scale where nothing underflows or overflows. (b)
shortlist ranks the lags k = n_min..n_max by the cyclic-prefix lag
correlation

    s(k) = |sum_n x[n] conj(x[n+k])| / sum_n |x[n]|^2

(van de Beek, Sandell and Boerjesson, IEEE TSP 1997) and keeps the
candidates k + P of the best few. (c) score_candidates segments,
eigendecomposes and scores only these. Each prefix sample repeats the
sample N later, so s peaks at k = N; at any other lag the samples are
independent and s is small. The lag statistic needs no P, no L and no
alignment, costs one pass over the stream per lag, and has no peak at a
multiple of N+P.

The floor ratio is the only statistic the scan computes. The MDL curve
of a spectrum,

    MDL(zeta; N') = -(N' - zeta) * M' * ln(GM/AM) + 0.5 * zeta * (2N' - zeta) * ln(M')

with GM and AM the geometric and arithmetic means of the residual
lambda_{zeta+1} .. lambda_{N'}, is kept as a diagnostic for the
per-candidate table of `ofdmblind estimate --report`. It does not
decide: with few segments its penalty outweighs the likelihood gap that
d noise eigenvalues among N' leave, and its argmin collapses far below
the signal-subspace dimension N+L-1 even at the true N'.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_count

# Eigenvalues are floored at this fraction of the largest one before any
# logarithm or quotient. A purely absolute floor would let the
# numerically-zero eigenvalues of a noise-free covariance (around 1e-16 of
# the top, spread over decades) masquerade as structure and drag the MDL
# argmin away from the true split; a relative floor flattens them and
# keeps the criterion exactly scale invariant.
MDL_REL_FLOOR = 1e-12

# Absolute floor under the relative one, so an all-zero spectrum still
# has a logarithm. The smallest normal float: any larger value would take
# over from the relative floor on faint but otherwise valid captures.
EIG_FLOOR = np.finfo(float).tiny

DUPLICATE_ROW_TOL = 1e-10

# Relative threshold for the numerical rank of the rank oracle.
RANK_REL_TOL = 1e-9

# Lags of largest s(k) whose candidates k + P the scan segments. On every
# desk preset, 200 trials per point, the top 3 held the true N whenever
# the full scan of the range found it.
SHORTLIST = 3

# Samples per chunk of the lag statistic's sums: 1 MiB of complex128,
# which with its tail of up to n_max samples stays in cache while every
# lag's dot product runs over it.
LAG_CHUNK = 1 << 16

# The window of stream scales that scaled_stream leaves as they are.
# Inside it, as they are or scaled by 2^-e, every product of two nonzero
# parts of a complex64 capture (each at least 2^-149) lies in
# [2^-556, 2^257], so every square, sum and covariance entry is normal and
# finite, and the largest entry lies inside [2^-485, 2^485], where
# LAPACK's eigensolver takes its input without scaling it. Scaling by a
# power of two is then exact, and both scans round alike.
SCALE_WINDOW = 128


@dataclass(frozen=True)
class EstimatorConfig:
    """Known side information and the search range for N.

    Candidate segment lengths run over [n_min + cp_len, n_max + cp_len].
    The channel must fit in the cyclic prefix, num_taps <= cp_len: a
    longer one leaves no missing rank to read.
    """
    cp_len: int
    num_taps: int
    n_min: int
    n_max: int

    def __post_init__(self):
        check_count("cp_len", self.cp_len, 1)
        check_count("num_taps", self.num_taps, 1)
        if self.num_taps > self.cp_len:
            raise ConfigError(f"num_taps must be <= cp_len, got num_taps={self.num_taps} "
                              f"cp_len={self.cp_len}")
        check_count("n_min", self.n_min, 2)
        if self.n_max < self.n_min:
            raise ConfigError(f"n_max {self.n_max} below n_min {self.n_min}")
        # the bound holds by now; only the integer test can fire here
        check_count("n_max", self.n_max, self.n_min)

    @property
    def candidates(self) -> range:
        return range(self.n_min + self.cp_len, self.n_max + self.cp_len + 1)

    @property
    def missing(self) -> int:
        """d = P - L + 1, the ranks lost at N' = N + P."""
        return self.cp_len - self.num_taps + 1

    def too_short(self, n: int) -> str:
        """Why n samples fall short of N' segments of N' for the largest N'; "" if not."""
        worst = self.candidates[-1]
        if n >= worst * worst:
            return ""
        return (f"candidate N'={worst} needs {worst * worst} samples, the stream holds {n}: "
                f"{worst} segments of {worst} samples, one per row of its covariance")


@dataclass(frozen=True)
class MdlCurve:
    """MDL values over zeta = 1..N' of one spectrum, and their argmin zeta_hat."""
    values: np.ndarray
    zeta_hat: int


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of the candidate scan.

    `n_hat` is the winning N' minus P. `lag_scores` maps every lag
    k = n_min..n_max, in order, to its lag statistic s(k). `floor_ratios`
    maps each shortlisted candidate N', in ascending order, to the
    floor_ratio that ranked it. `eigen_spectra` maps each shortlisted
    candidate N' to the descending eigenvalues of its covariance, so any
    per-candidate statistic, the MDL curve included, can be recomputed
    with M' = len(stream) // N'.
    The spectra are in the stream's units, so for samples above about
    1e154 they overflow to inf (numpy warns); n_hat, lag_scores and
    floor_ratios, computed on the rescaled stream, still hold.
    """
    n_hat: int
    lag_scores: dict
    floor_ratios: dict
    eigen_spectra: dict


def segment(r, n_prime: int) -> np.ndarray:
    """Reshape the stream into its N' x M' segment matrix.

    Column m holds samples m*N' .. (m+1)*N' - 1, so the result is an
    F-ordered view of the stream, M' = floor(len / N') = its shape[1].
    Trailing samples short of a full segment are discarded. The caller
    guarantees N' >= 1 and N'^2 samples, so M' >= N', as too_short checks.
    """
    x = np.ascontiguousarray(r, dtype=complex)
    m_prime = len(x) // n_prime
    return x[:n_prime * m_prime].reshape(n_prime, m_prime, order="F")


def covariance(seg: np.ndarray) -> np.ndarray:
    """Sample covariance (1/M') R R^H of an N' x M' segment matrix R.

    R is the 2-D array segment returns. Computed from the real Gram matrix
    G = Y^T Y of the M' x 2N' float64 view Y of R^T, whose row m
    interleaves the real and imaginary parts of column m of R. With
    R = A + jB, the entries of G are the sums A A^T, B B^T, B A^T and
    A B^T, interleaved, so R R^H = (A A^T + B B^T) + j(B A^T - A B^T).
    This takes half the flops of the complex product and needs no
    conjugated copy. The result is exactly Hermitian, since G is exactly
    symmetric.
    """
    n_prime, m_prime = seg.shape
    # R^T is already C-contiguous for a segmented stream, so neither the
    # conversion nor the view copies. numpy hands y.T @ y to the BLAS
    # symmetric rank-k update (syrk) only when both operands are views of
    # one buffer; a copied operand would fall back to a general product
    # at twice the cost, and would not guarantee an exactly symmetric G.
    y = np.ascontiguousarray(seg.T, dtype=complex).view(np.float64)
    g = y.T @ y
    g /= m_prime
    c = np.empty((n_prime, n_prime), dtype=complex)
    np.add(g[0::2, 0::2], g[1::2, 1::2], out=c.real)
    np.subtract(g[1::2, 0::2], g[0::2, 1::2], out=c.imag)
    return c


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square Hermitian matrix, as a descending float array.

    A square Hermitian array is the caller's guarantee and is not checked:
    only the lower triangle is read; covariance's output is exactly
    Hermitian. The spectrum is returned as computed, so the eigenvalue sum
    matches the trace; the MDL criterion and the floor ratio clamp at their
    floor themselves. Roundoff on PSD inputs can leave tiny negative values.
    """
    return np.linalg.eigvalsh(m)[::-1]


def _floored(lam: np.ndarray) -> np.ndarray:
    return np.maximum(lam, max(EIG_FLOOR, MDL_REL_FLOOR * lam[0]))


def floor_ratio(lam: np.ndarray, m_prime: int, missing: int) -> float:
    """Energy in the `missing` smallest of descending eigenvalues `lam`.

    Their mean over the mean eigenvalue, divided by the Marchenko-Pastur
    lower edge (1 - sqrt(N'/M'))^2 for N' = len(lam); about 1 or more for
    a full-rank white spectrum, near 0 where `missing` ranks are lost.
    With M' = N' the edge is 0 and the ratio is infinite.
    """
    edge = (1.0 - math.sqrt(len(lam) / m_prime)) ** 2
    if edge == 0.0:
        return math.inf
    lam = _floored(lam)
    return float(np.mean(lam[-missing:]) / np.mean(lam) / edge)


def mdl(spectrum, m_prime: int) -> MdlCurve:
    """Evaluate the MDL curve over all split points of one descending spectrum.

    Ties in the argmin resolve to the smallest zeta. The caller passes a
    non-empty descending spectrum, as hermitian_eigenvalues returns it,
    and M' >= 1.
    """
    lam = _floored(np.asarray(spectrum, dtype=float))
    n = len(lam)
    log_m = math.log(m_prime)
    zeta = np.arange(1, n, dtype=float)
    # Residual tail sums for each split, largest eigenvalues excluded.
    tail_sum = np.cumsum(lam[::-1])[::-1]
    tail_logsum = np.cumsum(np.log(lam[::-1]))[::-1]
    count = n - zeta
    log_gm = tail_logsum[1:] / count
    log_am = np.log(tail_sum[1:] / count)
    values = np.empty(n)
    values[:-1] = -count * m_prime * (log_gm - log_am) + 0.5 * zeta * (2 * n - zeta) * log_m
    # zeta = N' leaves no residual; only the penalty remains.
    values[-1] = 0.5 * n * n * log_m
    return MdlCurve(values=values, zeta_hat=int(np.argmin(values)) + 1)


def lag_statistic(x: np.ndarray, lags) -> np.ndarray:
    """s(k) = |sum_n x[n] conj(x[n+k])| / sum_n |x[n]|^2 for each lag k.

    x is a 1-D complex array and every lag lies in [1, len(x)). The sum
    runs over chunks of LAG_CHUNK values of n, every lag's dot product
    on one chunk before the next, so the chunk and the samples up to
    the largest lag past it stay in cache across the lags. The dot
    products run on views of x, so nothing is copied, and a stream of at
    most LAG_CHUNK samples is summed in one dot product per lag. The
    values lie in [0, 1]; an all-zero stream gives 0 at every lag.
    """
    n = len(x)
    energy = np.vdot(x, x).real
    acc = np.zeros(len(lags), dtype=complex)
    for c in range(0, n, LAG_CHUNK):
        acc += [np.vdot(x[c + k:min(c + LAG_CHUNK + k, n)], x[c:min(c + LAG_CHUNK, n - k)])
                for k in lags]
    # np.hypot rounds as abs() of a complex scalar does; np.abs of a
    # complex array may differ in the last bit
    s = np.hypot(acc.real, acc.imag)
    return s / energy if energy else s


def scaled_stream(r, cfg: EstimatorConfig) -> tuple:
    """Step (a): the stream as a 1-D complex array x = r * 2^-e, and e.

    A stream that is not 1-D, too short for the largest candidate of the
    range or holding a NaN or infinite sample raises DataError. Let
    2^(e-1) <= peak < 2^e bound its largest real or imaginary part. With
    |e| <= SCALE_WINDOW, x is the caller's samples, with no stream-sized
    copy, and e is returned as 0. Outside the window a square or covariance
    entry could underflow or overflow, so x is the stream scaled by 2^-e,
    its peak in [0.5, 1). Either way no statistic of x depends on the
    stream's scale over the whole float range.
    """
    x = np.ascontiguousarray(r, dtype=complex)
    if x.ndim != 1:
        raise DataError(f"the stream must be 1-D, got shape {x.shape}")
    if short := cfg.too_short(len(x)):
        raise DataError(short)
    v = x.view(np.float64)
    # the largest |part| without an |x| temporary; a NaN propagates through both
    peak = max(v.max(), -v.min())
    if not np.isfinite(peak):
        raise DataError("the stream holds NaN or infinite samples")
    e = math.frexp(peak)[1]
    if abs(e) <= SCALE_WINDOW:
        return x, 0
    return np.ldexp(v, -e).view(complex), e


def shortlist(x: np.ndarray, cfg: EstimatorConfig) -> tuple:
    """Step (b): the lag scores {k: s(k)} of every lag of the range, and
    the candidates k + P, ascending, of the SHORTLIST lags of largest s,
    ties going to the smaller lag."""
    lags = range(cfg.n_min, cfg.n_max + 1)
    s = lag_statistic(x, lags)
    top = np.argsort(-s, kind="stable")[:SHORTLIST]
    return dict(zip(lags, s.tolist())), [lags[i] + cfg.cp_len for i in sorted(top)]


def score_candidates(x: np.ndarray, candidates, missing: int) -> tuple:
    """Step (c): the floor ratios {N': ratio} and descending spectra
    {N': lambda} of the candidates, in their order. Each is segmented and
    eigendecomposed once, M' = len(x) // N', and `missing` is d."""
    spectra = {n: hermitian_eigenvalues(covariance(segment(x, n))) for n in candidates}
    ratios = {n: floor_ratio(lam, len(x) // n, missing) for n, lam in spectra.items()}
    return ratios, spectra


def estimate_n(r, cfg: EstimatorConfig) -> EstimateReport:
    """Steps (a), (b) and (c) on the stream r; of equal floor ratios the
    smallest N' wins, and the spectra are scaled back to r's units."""
    x, e = scaled_stream(r, cfg)
    lag_scores, candidates = shortlist(x, cfg)
    ratios, spectra = score_candidates(x, candidates, cfg.missing)
    best = min(ratios, key=ratios.get)
    return EstimateReport(n_hat=best - cfg.cp_len, lag_scores=lag_scores, floor_ratios=ratios,
                          eigen_spectra={n: np.ldexp(lam, 2 * e) for n, lam in spectra.items()})


def rank_oracle_noise_free(r, n_prime: int) -> int:
    """Noise-free test oracle: the number of singular values of the
    segmentation matrix above RANK_REL_TOL times the largest one."""
    sv = np.linalg.svd(segment(r, n_prime), compute_uv=False)
    return int(np.count_nonzero(sv > RANK_REL_TOL * sv[0]))


def duplicate_row_pairs(r, n: int, p: int, l: int) -> list:
    """The 1-based row pairs (i, i+N) expected to coincide at N' = N+P.

    Returns the pairs that actually coincide within DUPLICATE_ROW_TOL
    across all columns but the first; the stream's very first segment has
    no predecessor, and its low rows are not covered by the derivation.
    The caller guarantees 1 <= L <= P and (N+P)^2 samples.
    """
    seg = segment(r, n + p)
    pairs = []
    for i in range(l, p + 1):
        a = seg[i - 1, 1:]
        b = seg[i - 1 + n, 1:]
        if np.max(np.abs(a - b)) <= DUPLICATE_ROW_TOL * max(1.0, np.max(np.abs(a))):
            pairs.append((i, i + n))
    return pairs
