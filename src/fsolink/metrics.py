"""Receiver-side quality metrics for shaped QAM: prior-aware bitwise LLRs,
Monte-Carlo GMI, NGMI, and EVM-based SNR estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _noise_variance, awgn_transmit
from .shaping import ShapedDistribution

__all__ = [
    "MetricReport",
    "bitwise_llrs",
    "gmi_from_samples",
    "ngmi",
    "evm_percent",
    "snr_from_evm",
    "score_batch",
    "awgn_link_metrics",
]

_LN2 = math.log(2.0)
_TINY = 1e-300  # floor of the priors before their log
_LLR_MAX = 600.0  # LLR saturation, below -_LOG_MASS_FLOOR
# Floor of the max-shifted log-masses: exp of anything lower only adds
# masses that change no LLR (see _posterior_llrs), and exp below about -708
# returns subnormals at 100-200 times the cost of a normal result.
_LOG_MASS_FLOOR = -700.0


@dataclass(frozen=True)
class MetricReport:
    """One batch worth of link metrics; snr_db is the EVM-derived estimate."""

    gmi_bits: float
    ngmi: float
    snr_db: float


def _posterior_llrs(d2: np.ndarray, logp: np.ndarray, bits: np.ndarray,
                    noise_var: float) -> np.ndarray:
    """Bit LLRs, shape (..., b, n), of n samples from their squared
    distances d2 (..., K, n) to K candidate points with log-priors
    logp (..., K, 1) and 0/1 label bits (..., b, K).

    The posterior masses of {x : bit i of label(x) is 0} and {... is 1}
    are summed directly (not one from the other, which cancels) with a
    shared per-sample rescaling that drops out of their ratio: the most
    likely candidate gets mass 1. Candidates run along axis -2 so that the
    reductions over them are elementwise over contiguous samples. d2 is
    overwritten, so that a block's (..., K, n) work is one array.

    The shifted log-masses are floored at _LOG_MASS_FLOOR before exp. Each
    bit is 0 on some candidate and 1 on another, so both sums are then at
    least e^-700 and every LLR is finite. No LLR changes. The floor raises
    masses below e^-700 to e^-700, so it moves a sum of K masses by less
    than K e^-700. The side with the most likely candidate sums to at least
    1 and cannot move. The other side's sum is either below e^-600 of it,
    where the LLR saturates at +-_LLR_MAX with the floor or without, or
    larger than the change by a factor of e^100 / K, so that the change is
    lost when the sum is rounded.
    """
    a = np.divide(d2, -noise_var, out=d2)
    a += logp
    a -= a.max(axis=-2, keepdims=True)
    np.maximum(a, _LOG_MASS_FLOOR, out=a)
    e = np.exp(a, out=a)
    s = np.concatenate([1.0 - bits, bits], axis=-2) @ e
    b = bits.shape[-2]
    r = np.divide(s[..., :b, :], s[..., b:, :])
    np.log(r, out=r)
    return np.clip(r, -_LLR_MAX, _LLR_MAX, out=r)


# Symbols scored per block. The largest scoring temporary, (2, 8, block)
# float64 for 64QAM, is then 128 KiB: it fits in L2, and the allocator
# reuses it from its free lists instead of mapping and faulting in fresh
# pages for every batch. Blocks of 2048 brought the page faults back.
BLOCK_SYMBOLS = 1024


def _llr_chunks(rx: np.ndarray, dist: ShapedDistribution, noise_var: float,
                chunk: int = BLOCK_SYMBOLS):
    """Yield (sl, llr) per chunk of rx: the prior-aware LLRs of rx[sl],
    shape (len, m), label MSB in column 0.

    The prior is a product over the I and Q axes (see
    ShapedDistribution.axis_factors), so each symbol is demapped as two
    per-axis posteriors over sqrt(M) levels each: in-phase bits, then
    quadrature. The complex noise variance nv reads per axis as
    exp(-(y_axis - level)^2 / nv), not nv/2, because |y - x|^2 splits into
    the two axis terms. rx must be a contiguous 1-D complex128 array of
    samples, and noise_var positive.

    Each block's squared distances, shape (2, L, len), are written into
    one buffer per call, from a float view of rx's I/Q rails; a short last
    block takes the buffer's contiguous head, so every block has the
    layout of a fresh array.
    """
    if rx.size == 0:
        raise ValueError("no received samples")
    if not noise_var > 0:
        raise ValueError("noise variance must be positive")
    levels, p_axis, bits = dist.axis_factors
    levels = levels[:, None]
    logp = np.log(np.maximum(p_axis, _TINY))[:, None]
    rails = rx.view(np.float64).reshape(-1, 2).T[:, None, :]  # (2, 1, N)
    buf = np.empty(2 * levels.size * min(chunk, rx.size))
    for lo in range(0, rx.size, chunk):
        y = rails[..., lo:lo + chunk]
        n = y.shape[-1]
        d2 = np.subtract(y, levels, out=buf[:2 * levels.size * n].reshape(2, -1, n))
        d2 *= d2
        llr = _posterior_llrs(d2, logp, bits, noise_var).reshape(-1, n).T
        yield slice(lo, lo + n), llr


def bitwise_llrs(rx: np.ndarray, dist: ShapedDistribution, noise_var: float) -> np.ndarray:
    """Prior-aware LLRs, shape (N, m): the in-phase level's Gray bits MSB
    first, then the quadrature level's (ConstellationTemplate.axis_labels).

    Sign convention: positive means bit 0 is more likely, i.e.
    llr = log P(b=0 | y) - log P(b=1 | y) including the shaped prior.
    Magnitudes saturate at 600.
    """
    rx = np.ascontiguousarray(rx, dtype=complex).ravel()
    out = np.empty((rx.size, dist.template.bits_per_symbol))
    for sl, llr in _llr_chunks(rx, dist, noise_var):
        out[sl] = llr
    return out


def gmi_from_samples(tx_idx: np.ndarray, rx: np.ndarray, dist: ShapedDistribution,
                     noise_var: float) -> float:
    """Monte-Carlo GMI in bits per symbol for a bit-metric decoder with
    shaped priors, clamped to be non-negative.

    tx_idx holds constellation point indices (positions in the template,
    not bit labels); it and rx may have any shapes of one size.
    """
    tx_idx = np.asarray(tx_idx).ravel()
    rx = np.ascontiguousarray(rx, dtype=complex).ravel()
    if tx_idx.size != rx.size:
        raise ValueError("tx indices and rx samples differ in length")

    # (M, m), +1 where point i*L + q's bit is 1: level i's bits, then q's
    _, _, bits = dist.axis_factors
    L = bits.shape[1]
    bits = bits.T
    flip_rows = 2.0 * np.concatenate(
        [np.repeat(bits, L, axis=0), np.tile(bits, (L, 1))], axis=1) - 1.0
    loss_bits = 0.0
    for sl, llr in _llr_chunks(rx, dist, noise_var):
        # (len, m), each symbol's bits adjacent: the loss is summed in this
        # memory order, and an (m, len) product would move the GMI's last bit
        x = flip_rows[tx_idx[sl]]
        x *= llr  # minus the LLR of each sent bit
        # log(1 + e^x) directly: LLRs saturate at _LLR_MAX, so e^x is finite
        loss_bits += np.log1p(np.exp(x, out=x), out=x).sum() / _LN2
    gmi = dist.entropy_bits - loss_bits / rx.size
    return max(gmi, 0.0)


def ngmi(gmi_bits: float, entropy_bits: float, bits_per_symbol: int) -> float:
    """Normalized GMI: 1 - (H - GMI) / m. Equals 1 when GMI reaches the
    source entropy and falls as the bit-level loss grows."""
    if bits_per_symbol <= 0:
        raise ValueError("bits per symbol must be positive")
    return 1.0 - (entropy_bits - gmi_bits) / bits_per_symbol


def evm_percent(rx: np.ndarray, ref: np.ndarray) -> float:
    """Error vector magnitude in percent, normalized by reference power."""
    rx = np.asarray(rx, dtype=complex).ravel()
    ref = np.asarray(ref, dtype=complex).ravel()
    if rx.shape != ref.shape:
        raise ValueError("received and reference lengths differ")
    if rx.size == 0:
        raise ValueError("no samples")
    p_ref = np.sum(np.abs(ref) ** 2)
    if p_ref == 0:
        raise ValueError("reference power is zero")
    p_err = np.sum(np.abs(rx - ref) ** 2)
    return 100.0 * math.sqrt(p_err / p_ref)


def snr_from_evm(evm_pct: float) -> float:
    """SNR estimate in dB from EVM in percent; 100% maps to exactly 0 dB."""
    if not evm_pct > 0:
        raise ValueError("EVM must be positive")
    return -20.0 * math.log10(evm_pct / 100.0)


def score_batch(point_idx: np.ndarray, rx: np.ndarray, tx: np.ndarray,
                dist: ShapedDistribution, noise_var: float) -> MetricReport:
    """Score a batch of received samples rx, of any shape, against the sent
    symbols tx and their point indices under dist's prior: the GMI per
    symbol at noise_var, its NGMI, and the SNR from the EVM."""
    g = gmi_from_samples(point_idx, rx, dist, noise_var)
    return MetricReport(
        gmi_bits=g,
        ngmi=ngmi(g, dist.entropy_bits, dist.template.bits_per_symbol),
        snr_db=snr_from_evm(evm_percent(rx, tx)))


def awgn_link_metrics(dist: ShapedDistribution, snr_db: float, n_symbols: int,
                      seed) -> MetricReport:
    """Draw shaped symbols, add white Gaussian noise at the given SNR, and
    score the batch with the true noise variance.

    This is the analytic (symbol-level, DSP-free) path used for rate
    adaptation studies; `seed` may be an int, a key sequence of ints, a
    SeedSequence, or a Generator.
    """
    if n_symbols <= 0:
        raise ValueError("need at least one symbol")
    rng = np.random.default_rng(seed)
    idx, tx = dist.sample(rng, n_symbols)
    rx = awgn_transmit(tx, snr_db, rng)
    return score_batch(idx, rx, tx, dist, _noise_variance(snr_db))
