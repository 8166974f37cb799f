"""Shaped constellations: Gray-mapped QAM templates, Maxwell-Boltzmann
probability shaping, rate-to-distribution inversion, the entropy grid the
rate adaptation moves on, and the frame's rate plan and pilots."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "ConstellationTemplate",
    "ShapedDistribution",
    "RatePlan",
    "mb_distribution",
    "solve_nu_for_entropy",
    "grid_distribution",
    "pilot_mask",
    "insert_pilots",
]

ENTROPY_FLOOR_BITS = 2.0  # below this the shaped 64QAM degenerates to QPSK
ENTROPY_STEP_BITS = 0.01  # resolution of every transmitted entropy


def _gray(i: int) -> int:
    return i ^ (i >> 1)


@dataclass(frozen=True)
class ConstellationTemplate:
    """Square M-QAM template, unit average power under uniform probability.

    Bit labels are Gray-mapped per axis: the first half of the bits indexes
    the in-phase level, the second half the quadrature level, so neighboring
    points along either axis differ in exactly one bit.
    """

    points: np.ndarray  # complex, shape (M,)
    labels: np.ndarray  # int, shape (M,), each in [0, M)

    def __post_init__(self):
        M = len(self.points)
        if M < 4 or (M & (M - 1)) or int(math.log2(M)) % 2:
            raise ValueError(f"template size must be an even power of 2, got {M}")
        if len(set(self.labels.tolist())) != M:
            raise ValueError("bit labels must be unique")

    @property
    def M(self) -> int:
        return len(self.points)

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.M))

    def bit_masks(self) -> np.ndarray:
        """Boolean array (bits_per_symbol, M): entry [j, i] is bit j (MSB
        first) of point i's label."""
        m = self.bits_per_symbol
        shifts = np.arange(m - 1, -1, -1)
        return ((self.labels[None, :] >> shifts[:, None]) & 1).astype(bool)

    @classmethod
    def square_qam(cls, M: int = 64) -> "ConstellationTemplate":
        L = int(round(math.sqrt(M)))
        if L * L != M:
            raise ValueError(f"{M} is not a square QAM size")
        half = int(math.log2(L))
        levels = np.arange(-(L - 1), L, 2)
        norm = math.sqrt(2.0 * (L * L - 1) / 3.0)
        pts = np.empty(M, dtype=complex)
        lab = np.empty(M, dtype=np.int64)
        for ii in range(L):
            for qq in range(L):
                k = ii * L + qq
                pts[k] = (levels[ii] + 1j * levels[qq]) / norm
                lab[k] = (_gray(ii) << half) | _gray(qq)
        return cls(points=pts, labels=lab)


@dataclass(frozen=True)
class ShapedDistribution:
    """Probability mass over a QAM template together with its entropy.

    The entropy in bits/symbol/polarization is the tuning knob of the
    rate-adaptive scheme.
    """

    template: ConstellationTemplate
    p: np.ndarray
    entropy_bits: float = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.shape != (self.template.M,):
            raise ValueError("probability vector does not match template size")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entropy_bits", _entropy_bits(p))

    @property
    def avg_power(self) -> float:
        """Mean constellation power under this distribution."""
        return float(np.sum(self.p * np.abs(self.template.points) ** 2))

    def tx_points(self) -> np.ndarray:
        """Template points rescaled to unit average power under this
        distribution (the alphabet actually put on the channel)."""
        return self.template.points / math.sqrt(self.avg_power)

    @functools.cached_property
    def axis_factors(self):
        """Per-axis view of this distribution, or None when it does not
        factor; computed once per distribution.

        Returns (levels, p_axis, bits) of shapes (2, L), (2, L) and
        (2, m/2, L): index 0 is the in-phase axis, 1 the quadrature axis,
        and bits[a, j, l] is bit j (MSB first) of level l's half-label as a
        float. That needs points on an L x L grid indexed i*L + q, labels
        whose high half depends on i alone and low half on q alone, and a
        prior p[i*L + q] = pI[i] * pQ[q]: then the joint posterior of a
        label bit sums out the other axis, whose mass cancels in the LLR.
        """
        tpl = self.template
        L = math.isqrt(tpl.M)
        half = tpl.bits_per_symbol // 2
        pts = self.tx_points().reshape(L, L)
        lab = tpl.labels.reshape(L, L)
        p = self.p.reshape(L, L)
        levels = np.stack([pts.real[:, 0], pts.imag[0]])
        axis_lab = np.stack([lab[:, 0] >> half, lab[0] & (L - 1)])
        p_axis = np.stack([p.sum(axis=1), p.sum(axis=0)])
        outer = p_axis[0][:, None] * p_axis[1]
        if (not np.array_equal(pts, levels[0][:, None] + 1j * levels[1])
                or not np.array_equal(lab, axis_lab[0][:, None] << half | axis_lab[1])
                or np.any(np.abs(p - outer) > 1e-12 * outer)):
            return None
        shifts = np.arange(half - 1, -1, -1)[:, None]
        bits = ((axis_lab[:, None, :] >> shifts) & 1).astype(float)
        return levels, p_axis, bits


def _entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy in bits; zero-probability points contribute nothing."""
    p = np.asarray(p, dtype=float)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def mb_distribution(nu: float, template: ConstellationTemplate) -> ShapedDistribution:
    """Maxwell-Boltzmann distribution p_i proportional to exp(-nu |x_i|^2).

    nu = 0 gives the uniform distribution; increasing nu concentrates mass
    on the low-energy points and decreases entropy monotonically.
    """
    if nu < 0:
        raise ValueError(f"shaping parameter must be >= 0, got {nu}")
    e = np.abs(template.points) ** 2
    w = np.exp(-nu * (e - e.min()))  # shift keeps the largest weight at 1
    p = w / w.sum()
    return ShapedDistribution(template=template, p=p)


def solve_nu_for_entropy(h_target: float, template: ConstellationTemplate) -> float:
    """Invert the entropy(nu) map by bisection, to within 1e-9 bits.

    Valid targets lie in [ENTROPY_FLOOR_BITS, log2(M)]; entropy is strictly
    decreasing in nu, approaching log2 of the innermost-ring size from above.
    """
    h_max = math.log2(template.M)
    if not ENTROPY_FLOOR_BITS <= h_target <= h_max:
        raise ValueError(
            f"target entropy {h_target} outside [{ENTROPY_FLOOR_BITS}, {h_max}]"
        )
    if h_target == h_max:
        return 0.0

    def h(nu):
        return mb_distribution(nu, template).entropy_bits

    lo, hi = 0.0, 1.0
    while h(hi) > h_target and hi < 1e6:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        if abs(hm - h_target) <= 1e-9:
            return mid
        if hm > h_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GRID_TEMPLATE = ConstellationTemplate.square_qam(64)  # the link's constellation


@functools.lru_cache(maxsize=None)
def grid_distribution(steps: int) -> ShapedDistribution:
    """Maxwell-Boltzmann distribution over GRID_TEMPLATE whose entropy is
    steps * ENTROPY_STEP_BITS; cached for the life of the process."""
    return mb_distribution(solve_nu_for_entropy(steps * ENTROPY_STEP_BITS,
                                                GRID_TEMPLATE), GRID_TEMPLATE)


PILOT_SPACING = 16  # symbols per frame: one pilot, then the payload


def pilot_mask(n: int) -> np.ndarray:
    """True at the pilots of an n-symbol framed stream: the head of each
    frame of PILOT_SPACING symbols."""
    return np.arange(n) % PILOT_SPACING == 0


class RatePlan:
    """Static rate structure of the transmitted frame, turning AIR into net
    bit-rate."""

    __slots__ = ()  # the plan is fixed: instances carry no settable field
    gross_symbol_rate = 64_000_000_000  # symbols/s
    fec_rate = Fraction(5, 6)
    pilot_rate = Fraction(PILOT_SPACING - 1, PILOT_SPACING)
    max_air_bits = 12.0  # two polarizations of a 64-point template
    net_symbol_rate = gross_symbol_rate * fec_rate * pilot_rate  # payload, exact


_QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / math.sqrt(2)


def insert_pilots(payload: np.ndarray, seed: int = 0) -> np.ndarray:
    """Frame a payload stream, which must fill whole frames of
    PILOT_SPACING - 1 symbols: a seeded pseudo-random unit-power QPSK pilot
    heads each frame. A unit-power payload (such as
    `ShapedDistribution.tx_points`) keeps unit power after framing."""
    payload = np.asarray(payload)
    n_frames, rest = divmod(payload.size, PILOT_SPACING - 1)
    if n_frames == 0 or rest:
        raise ValueError(f"payload of {payload.size} symbols does not fill "
                         f"whole frames of {PILOT_SPACING - 1}")
    frames = np.empty((n_frames, PILOT_SPACING), dtype=complex)
    frames[:, 0] = _QPSK[np.random.default_rng(seed).integers(0, 4, n_frames)]
    frames[:, 1:] = payload.reshape(n_frames, -1)
    return frames.ravel()
