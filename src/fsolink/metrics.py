"""Receiver-side quality metrics for shaped QAM: prior-aware bitwise LLRs,
Monte-Carlo GMI, NGMI, and EVM-based SNR estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shaping import ShapedDistribution

__all__ = [
    "MetricReport",
    "bitwise_llrs",
    "gmi_from_samples",
    "ngmi",
    "evm_percent",
    "snr_from_evm",
    "awgn_link_metrics",
]

_LN2 = math.log(2.0)
_TINY = 1e-300  # floor for posterior mass sums; keeps LLRs finite


@dataclass(frozen=True)
class MetricReport:
    """One batch worth of link metrics; snr_db is the EVM-derived estimate."""

    n_symbols: int
    entropy_bits: float
    gmi_bits: float
    ngmi: float
    evm_percent: float
    snr_db: float

    @classmethod
    def from_gmi(cls, n_symbols: int, dist: ShapedDistribution, gmi_bits: float,
                 evm_pct: float) -> "MetricReport":
        """Report for n_symbols scored against dist: NGMI from the GMI and
        the SNR from the EVM."""
        h = dist.entropy_bits
        return cls(n_symbols=n_symbols, entropy_bits=h, gmi_bits=gmi_bits,
                   ngmi=ngmi(gmi_bits, h, dist.template.bits_per_symbol),
                   evm_percent=evm_pct, snr_db=snr_from_evm(evm_pct))

    def as_dict(self) -> dict:
        return {
            "n_symbols": self.n_symbols,
            "entropy_bits": self.entropy_bits,
            "gmi_bits": self.gmi_bits,
            "ngmi": self.ngmi,
            "evm_percent": self.evm_percent,
            "snr_db": self.snr_db,
        }


def _llr_chunks(rx: np.ndarray, dist: ShapedDistribution, noise_var: float,
                chunk: int = 32768):
    """Yield (sl, llr) per chunk of rx: the prior-aware LLRs of rx[sl],
    shape (len, m), label MSB in column 0.

    The posterior mass of {x : bit i of label(x) is 1} and of the whole
    alphabet are summed with a shared per-row rescaling, which cancels in
    their ratio; both are floored so every LLR stays finite.
    """
    pts = dist.tx_points()
    logp = np.log(np.maximum(dist.p, _TINY))
    masks = dist.template.bit_masks().T.astype(float)  # (M, m)
    for lo in range(0, rx.size, chunk):
        y = rx[lo:lo + chunk]
        d2 = np.abs(y[:, None] - pts[None, :]) ** 2
        a = logp[None, :] - d2 / noise_var
        a -= a.max(axis=1, keepdims=True)
        e = np.exp(a)
        s1 = e @ masks
        st = e.sum(axis=1)
        s0 = np.maximum(st[:, None] - s1, _TINY)
        s1 = np.maximum(s1, _TINY)
        yield slice(lo, lo + y.size), np.log(s0) - np.log(s1)


def bitwise_llrs(rx: np.ndarray, dist: ShapedDistribution, noise_var: float) -> np.ndarray:
    """Prior-aware LLRs, shape (N, m) with the label MSB in column 0.

    Sign convention: positive means bit 0 is more likely, i.e.
    llr = log P(b=0 | y) - log P(b=1 | y) including the shaped prior.
    """
    rx = np.ascontiguousarray(rx, dtype=complex).ravel()
    if rx.size == 0:
        raise ValueError("no received samples")
    if not noise_var > 0:
        raise ValueError("noise variance must be positive")
    out = np.empty((rx.size, dist.template.bits_per_symbol))
    for sl, llr in _llr_chunks(rx, dist, noise_var):
        out[sl] = llr
    return out


def gmi_from_samples(tx_idx: np.ndarray, rx: np.ndarray, dist: ShapedDistribution,
                     noise_var: float) -> float:
    """Monte-Carlo GMI in bits per symbol for a bit-metric decoder with
    shaped priors, clamped to be non-negative.

    tx_idx holds constellation point indices (positions in the template,
    not bit labels).
    """
    tx_idx = np.asarray(tx_idx)
    rx = np.ascontiguousarray(rx, dtype=complex).ravel()
    if tx_idx.shape != rx.shape:
        raise ValueError("tx indices and rx samples differ in length")
    if rx.size == 0:
        raise ValueError("no received samples")
    if not noise_var > 0:
        raise ValueError("noise variance must be positive")

    bits = dist.template.bit_masks().T[tx_idx]  # (N, m), True where bit is 1
    sgn = 1.0 - 2.0 * bits
    loss_bits = 0.0
    for sl, llr in _llr_chunks(rx, dist, noise_var):
        loss_bits += np.logaddexp(0.0, -sgn[sl] * llr).sum() / _LN2
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


def awgn_link_metrics(dist: ShapedDistribution, snr_db: float, n_symbols: int,
                      seed) -> MetricReport:
    """Draw shaped symbols, add white Gaussian noise at the given SNR, and
    score the batch with the true noise variance.

    This is the analytic (symbol-level, DSP-free) path used for rate
    adaptation studies; `seed` may be an int, a SeedSequence, or a Generator.
    """
    from .channel import awgn_transmit  # local import to avoid a cycle

    if n_symbols <= 0:
        raise ValueError("need at least one symbol")
    rng = np.random.default_rng(seed)
    idx = rng.choice(dist.template.M, size=n_symbols, p=dist.p)
    tx = dist.tx_points()[idx]
    rx = awgn_transmit(tx, snr_db, rng)
    noise_var = 10.0 ** (-snr_db / 10.0)

    g = gmi_from_samples(idx, rx, dist, noise_var)
    return MetricReport.from_gmi(n_symbols, dist, g, evm_percent(rx, tx))
