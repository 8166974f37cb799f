"""Gauss-Hermite GMI oracle for Maxwell-Boltzmann shaped, Gray-labelled
square 64QAM on AWGN, written without the library's demapper.

The 64QAM template is the product of two Gray 8-PAM axes, the MB prior
exp(-nu |x|^2) = exp(-nu a_I^2) exp(-nu a_Q^2) factorizes over them, and so
does circular Gaussian noise. The bit-metric decoder's per-symbol loss is
therefore the sum of two independent per-axis losses, each a smooth 1-D
Gaussian integral that Gauss-Hermite quadrature evaluates accurately. The
oracle returns the NGMI a Monte-Carlo batch estimates, and the standard
deviation of that estimate for a batch of n symbols.
"""

from __future__ import annotations

import math

import numpy as np

BITS_PER_SYMBOL = 6  # square 64QAM, per polarization
_AXIS_BITS = 3
_LEVELS = (2.0 * np.arange(8) - 7.0) / math.sqrt(42.0)  # unit-power 64QAM axis
_GRAY = np.arange(8) ^ (np.arange(8) >> 1)
_AXIS_LABEL_BITS = (_GRAY[:, None] >> np.arange(_AXIS_BITS - 1, -1, -1)[None, :]) & 1
_NODES, _WEIGHTS = np.polynomial.hermite.hermgauss(96)


def _axis_prior(nu: float) -> np.ndarray:
    w = np.exp(-nu * (_LEVELS ** 2 - np.min(_LEVELS ** 2)))
    return w / w.sum()


def _axis_entropy(p: np.ndarray) -> float:
    return float(-np.sum(p * np.log2(p)))


def nu_for_entropy(h_bits: float) -> float:
    """MB parameter whose 64QAM distribution has entropy h_bits (2..6),
    by bisection on the per-axis entropy h_bits / 2."""
    if not 2.0 <= h_bits <= 6.0:
        raise ValueError(f"entropy {h_bits} outside [2, 6]")
    target = h_bits / 2.0
    if target >= 3.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while _axis_entropy(_axis_prior(hi)) > target:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _axis_entropy(_axis_prior(mid)) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def ngmi_oracle(h_bits: float, snr_db: float, n_symbols: int) -> tuple[float, float]:
    """(NGMI, standard deviation of its n-symbol Monte-Carlo estimate) for
    MB-shaped 64QAM of entropy h_bits at snr_db, scored with the true noise
    variance. The estimate clamps GMI at 0; callers compare only where that
    clamp is far away."""
    p = _axis_prior(nu_for_entropy(h_bits))
    x = _LEVELS / math.sqrt(2.0 * float(p @ _LEVELS ** 2))  # unit 2-D power
    n0 = 10.0 ** (-snr_db / 10.0)  # complex noise variance
    y = x[:, None] + math.sqrt(n0) * _NODES[None, :]  # (tx level, node)
    logw = np.log(p)[None, None, :] - (y[:, :, None] - x[None, None, :]) ** 2 / n0
    top = logw.max(axis=2, keepdims=True)
    all_ = np.log(np.exp(logw - top).sum(axis=2))
    loss = np.zeros(y.shape)  # per-axis bit loss in bits, (tx level, node)
    for j in range(_AXIS_BITS):
        same = _AXIS_LABEL_BITS[:, j][:, None] == _AXIS_LABEL_BITS[:, j][None, :]
        masked = np.where(same[:, None, :], logw - top, -np.inf)
        loss += (all_ - np.log(np.exp(masked).sum(axis=2))) / math.log(2.0)
    w = p[:, None] * _WEIGHTS[None, :] / math.sqrt(math.pi)
    mean_axis = float(np.sum(w * loss))
    var_axis = float(np.sum(w * loss ** 2)) - mean_axis ** 2
    ngmi = 1.0 - 2.0 * mean_axis / BITS_PER_SYMBOL
    sd = math.sqrt(max(2.0 * var_axis, 0.0) / n_symbols) / BITS_PER_SYMBOL
    return ngmi, sd
