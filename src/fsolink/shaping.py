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
# Buckets of the sampler's guide table: a power of two, so that u * 2**12
# and every bucket edge are exact. A 64-point cdf has at most 63 steps, so
# at least 98% of the draws read the table and skip the search.
_GUIDE_BUCKETS = 1 << 12


@dataclass(frozen=True)
class ConstellationTemplate:
    """Square Gray-mapped M-QAM, unit average power under uniform
    probability.

    Point i*L + q sits at levels[i] + 1j*levels[q] (L = sqrt(M) levels per
    axis). axis_labels is the one bit labelling: the point's m bits are the
    Gray label of level i, MSB first, then that of level q, so neighboring
    points along either axis differ in exactly one bit. Every array is
    derived once per template.
    """

    M: int

    def __post_init__(self):  # a square QAM: an even power of 2 (4, 16, 64, ...)
        if self.M < 4 or (self.M & (self.M - 1)) or int(math.log2(self.M)) % 2:
            raise ValueError(f"template size must be an even power of 2, got {self.M}")

    @property
    def bits_per_symbol(self) -> int:
        return int(math.log2(self.M))

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """Per-axis amplitudes, shape (L,), ascending."""
        L = math.isqrt(self.M)
        return np.arange(-(L - 1), L, 2) / math.sqrt(2.0 * (self.M - 1) / 3.0)

    @functools.cached_property
    def axis_labels(self) -> np.ndarray:
        """Gray label of each axis level, shape (L,)."""
        i = np.arange(math.isqrt(self.M))
        return i ^ (i >> 1)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Complex points, shape (M,)."""
        return (self.levels[:, None] + 1j * self.levels).ravel()

    @classmethod
    def square_qam(cls, M: int) -> "ConstellationTemplate":
        return cls(M)


@dataclass(frozen=True)
class ShapedDistribution:
    """Probability mass over a QAM template: one PMF over the L axis levels,
    shared by the in-phase and quadrature axes, so that point i*L + q has
    probability p_axis[i] * p_axis[q].

    The entropy in bits/symbol/polarization is the tuning knob of the
    rate-adaptive scheme.
    """

    template: ConstellationTemplate
    p_axis: np.ndarray
    entropy_bits: float = field(init=False)

    def __post_init__(self):
        p_axis = np.asarray(self.p_axis, dtype=float)
        if p_axis.shape != self.template.levels.shape:
            raise ValueError("per-axis probabilities do not match the template's levels")
        if not np.all(np.isfinite(p_axis)):
            raise ValueError(f"probabilities must be finite, got {p_axis.tolist()}")
        if np.any(p_axis < 0):
            raise ValueError(f"probabilities must be non-negative, got {p_axis.tolist()}")
        if abs(p_axis.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p_axis.sum()!r}, not 1")
        object.__setattr__(self, "p_axis", p_axis)
        object.__setattr__(self, "entropy_bits", _entropy_bits(p_axis))

    @functools.cached_property
    def p(self) -> np.ndarray:
        """Probability of each template point, shape (M,)."""
        return np.outer(self.p_axis, self.p_axis).ravel()

    @property
    def avg_power(self) -> float:
        """Mean constellation power under this distribution."""
        return 2.0 * float(self.p_axis @ self.template.levels ** 2)

    def tx_points(self) -> np.ndarray:
        """Template points rescaled to unit average power under this
        distribution (the alphabet actually put on the channel)."""
        return self.template.points * (1.0 / math.sqrt(self.avg_power))

    def sample(self, rng: np.random.Generator, size):
        """Draw `size` points (an int or a shape): template indices, symbols.

        The indices are those of rng.choice(M, size, p=p): the same uniform
        draws, rng.random(size), mapped through the same cdf.
        """
        idx = self._lookup(rng.random(size))
        return idx, self.tx_points()[idx]

    @functools.cached_property
    def _guide(self):
        """(cdf, table): the cdf of p as numpy's Generator.choice builds it,
        and its guide table. Entry j is the index of every u in bucket
        [j, j + 1) / _GUIDE_BUCKETS, the count of cdf values below the
        bucket's upper edge, or -1 where a cdf value lies strictly inside
        the bucket. The table's dtype is the smallest that holds -1 and
        every index."""
        cdf = self.p.cumsum()
        cdf /= cdf[-1]
        s = cdf * _GUIDE_BUCKETS  # exact, so bucket edge j is s == j
        k = s.astype(np.intp)  # the bucket each cdf value falls in
        below = np.bincount(k, minlength=_GUIDE_BUCKETS + 1).cumsum()[:-1]
        inside = np.bincount(k[s != k], minlength=_GUIDE_BUCKETS)
        table = np.where(inside == 0, below, -1)
        return cdf, table.astype(np.min_scalar_type(-self.template.M))

    def _lookup(self, u: np.ndarray) -> np.ndarray:
        """cdf.searchsorted(u, side="right") as int64, for u in [0, 1):
        read off the guide table, searched only in buckets it marks -1."""
        cdf, table = self._guide
        # Bucket, then table entry, in the one int64 output: no float or
        # table-dtype copy of the batch stays live beside u, so a large draw
        # peaks at choice's memory. The cast truncates the exact u * 2**12.
        idx = np.empty(u.shape, np.int64)
        np.multiply(u, _GUIDE_BUCKETS, out=idx, casting="unsafe")
        idx[...] = table[idx]
        miss = idx < 0
        if miss.any():
            idx[miss] = cdf.searchsorted(u[miss], side="right")
        return idx

    @functools.cached_property
    def axis_factors(self):
        """Per-axis view of this distribution, computed once.

        Returns (levels, p_axis, bits) of shapes (L,), (L,) and (m/2, L):
        the axis levels of `tx_points`, their shared PMF, and bits[j, l],
        bit j (MSB first) of level l's axis label as a float. Because the
        prior is a product, the joint posterior of a label bit sums out the
        other axis, whose mass cancels in the LLR.
        """
        tpl = self.template
        shifts = np.arange(tpl.bits_per_symbol // 2 - 1, -1, -1)[:, None]
        bits = ((tpl.axis_labels >> shifts) & 1).astype(float)
        return tpl.levels * (1.0 / math.sqrt(self.avg_power)), self.p_axis, bits


def _entropy_bits(p_axis: np.ndarray) -> float:
    """Entropy of the product of p_axis with itself, 2·H(p_axis), in bits."""
    nz = p_axis[p_axis > 0]  # zero-probability levels contribute nothing
    return 2.0 * float(-np.sum(nz * np.log2(nz)))


def _mb_p_axis(nu: float, template: ConstellationTemplate) -> np.ndarray:
    """Per-axis PMF proportional to exp(-nu level^2)."""
    e = template.levels ** 2  # exp(-nu |x|^2) is the product of the axes' factors
    w = np.exp(-nu * (e - e.min()))  # shift keeps the largest weight at 1
    return w / w.sum()


def mb_distribution(nu: float, template: ConstellationTemplate) -> ShapedDistribution:
    """Maxwell-Boltzmann distribution p_i proportional to exp(-nu |x_i|^2).

    nu = 0 gives the uniform distribution; increasing nu concentrates mass
    on the low-energy points and decreases entropy monotonically.
    """
    if nu < 0:
        raise ValueError(f"shaping parameter must be >= 0, got {nu}")
    return ShapedDistribution(template=template, p_axis=_mb_p_axis(nu, template))


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

    def h(nu):  # mb_distribution(nu, template).entropy_bits, unvalidated
        return _entropy_bits(_mb_p_axis(nu, template))

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
    max_air_bits = 2.0 * GRID_TEMPLATE.bits_per_symbol  # both polarizations at the top
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
