"""SNR-to-AIR lookup table for shaped dual-pol 64QAM.

For each SNR grid point, a search over the 0.01-bit entropy grid finds the
largest shaped distribution that still clears the NGMI threshold; the table
then maps measured SNR to an achievable information rate (bits per dual-pol
symbol) and, through the frame overheads, to a net bit rate. The search is a
bracketing secant started where the previous grid points crossed the
threshold: NGMI is smooth in entropy, so it needs a few NGMI evaluations per
point where bisection over the 400 steps needed about nine.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .channel import _integer, _read_json, _real, _seed, _write_json
from .metrics import awgn_link_metrics
from .shaping import (
    ENTROPY_FLOOR_BITS,
    ENTROPY_STEP_BITS,
    GRID_TEMPLATE,
    RatePlan,
    grid_distribution,
)

__all__ = [
    "MCConfig",
    "AirTable",
    "build_air_table",
    "lookup_air",
    "net_bit_rate",
    "air_for_rate",
    "min_snr_for_air",
    "save_air_table",
    "load_air_table",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MCConfig:
    """Monte-Carlo budget for one NGMI evaluation; the default matches the
    per-iteration measurement batch."""

    mc_symbols: int = 200_000
    seed: int = 0

    def __post_init__(self):
        _seed(self.seed)
        if _integer(self.mc_symbols, "mc_symbols") <= 0:
            raise ValueError("Monte-Carlo symbol count must be positive")


def _check_grid(snr_db: np.ndarray, ngmi_th) -> None:
    """What build_air_table checks before its first grid point."""
    if snr_db.ndim != 1 or snr_db.size < 2:
        raise ValueError("need at least two grid points")
    if not np.all(np.isfinite(snr_db)):
        raise ValueError("SNR grid must be finite")
    if np.any(np.diff(snr_db) <= 0):
        raise ValueError("SNR grid must be strictly increasing")
    if not 0.0 < _real(ngmi_th, "AIR table NGMI threshold") < 1.0:
        raise ValueError(f"NGMI threshold must lie in (0, 1), got {ngmi_th}")


@dataclass(frozen=True)
class AirTable:
    """Monotone SNR -> AIR map plus the provenance needed to rebuild it.
    Fields are in lut.json's key order."""

    ngmi_th: float
    M: int
    snr_db: np.ndarray
    air: np.ndarray
    mc_symbols: int
    seed: int

    def __post_init__(self):
        for name in ("M", "mc_symbols"):
            _integer(getattr(self, name), f"AIR table {name}")
        _seed(self.seed, "AIR table seed")
        s = np.array([_real(v, "AIR table SNR") for v in self.snr_db], dtype=float)
        a = np.array([_real(v, "AIR table AIR") for v in self.air], dtype=float)
        _check_grid(s, self.ngmi_th)
        if s.shape != a.shape:
            raise ValueError("grid and AIR lengths differ")
        if np.any(np.diff(a) < 0):
            raise ValueError("AIR must be non-decreasing in SNR")
        if np.any(a < 0) or np.any(a > 2.0 * math.log2(self.M) + 1e-12):
            raise ValueError("AIR must lie in [0, 2 log2 M]")
        object.__setattr__(self, "snr_db", s)
        object.__setattr__(self, "air", a)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "AirTable":
        return cls(**d)


def net_bit_rate(air_bits: float) -> float:
    """Net information rate in bit/s: AIR (bits per dual-pol symbol) times
    the rate plan's net symbol rate, in exact rational arithmetic."""
    if not 0 <= air_bits <= RatePlan.max_air_bits:
        raise ValueError(f"AIR {air_bits} outside [0, {RatePlan.max_air_bits}]")
    return float(Fraction(air_bits) * RatePlan.net_symbol_rate)


def air_for_rate(rate_bps: float) -> float:
    """Exact inverse of net_bit_rate."""
    max_rate = Fraction(RatePlan.max_air_bits) * RatePlan.net_symbol_rate
    if not 0 <= rate_bps <= max_rate:
        raise ValueError(f"rate {rate_bps} outside [0, {float(max_rate)}]")
    return float(Fraction(rate_bps) / RatePlan.net_symbol_rate)


def _last_passing(f, lo: int, f_lo: float, hi: int, f_hi: float,
                  first: float) -> int:
    """The last passing step of a bracket. Given integer steps lo < hi with
    f(lo) = f_lo >= 0 > f_hi = f(hi), return a step s in [lo, hi) with
    f(s) >= 0 > f(s + 1), calling f only on steps strictly inside the bracket.

    Each probe is a real step x, taken when lo < x < hi: rounded to the
    nearest step, and moved one step inside when it rounds onto an end.
    Otherwise regula falsi on the bracket gives x. The first x is `first`
    (NaN for none); each later one is the secant through the two newest
    evaluated steps, lo and hi counting as evaluated in that order. Every
    probe narrows the bracket, so no step is evaluated twice and the search
    ends within hi - lo - 1 probes. Where f is non-increasing its passing
    steps form a prefix, so the answer is the one bisection finds.
    """
    x0, v0, x1, v1 = lo, f_lo, hi, f_hi
    x = first
    while hi - lo > 1:
        if not lo < x < hi:  # also when x is NaN
            x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        s = min(max(round(x), lo + 1), hi - 1)
        v = f(s)
        if v >= 0:
            lo, f_lo = s, v
        else:
            hi, f_hi = s, v
        x0, v0, x1, v1 = x1, v1, s, v
        x = x1 - v1 * (x1 - x0) / (v1 - v0) if v1 != v0 else math.nan
    return lo


def build_air_table(snr_grid_db, mc: MCConfig = MCConfig(),
                    ngmi_th: float = 0.9) -> AirTable:
    """Build the SNR -> AIR table by a per-point search over entropy steps.

    At each grid point, AIR is 0 when the entropy floor fails the NGMI
    threshold and 2 log2 M when the top step passes. Otherwise
    _last_passing finds a passing step whose next step fails, starting from
    the SNR-linear extrapolation of the two previous grid points' crossings
    (or at the one previous crossing). Where NGMI falls with entropy, that
    is the largest passing step, as bisection finds it. Every NGMI
    evaluation at a given grid point reuses the same derived seed, so the
    noise realizations are shared across candidate entropies (common random
    numbers); a final running-maximum pass makes the table monotone.
    Bit-identical for a fixed (grid, mc, ngmi_th) triple. Logs one line per
    grid point at INFO.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    _check_grid(grid, ngmi_th)

    h_hi_bits = math.log2(GRID_TEMPLATE.M)
    lo_steps = round(ENTROPY_FLOOR_BITS / ENTROPY_STEP_BITS)
    hi_steps = round(h_hi_bits / ENTROPY_STEP_BITS)
    air = np.zeros(grid.size)
    crossings = []  # (snr, step) of each earlier point found by the search

    for i, snr in enumerate(grid.tolist()):
        def margin(steps: int) -> float:
            return awgn_link_metrics(grid_distribution(steps), snr,
                                     mc.mc_symbols, [mc.seed, i]).ngmi - ngmi_th

        f_lo = margin(lo_steps)
        if f_lo < 0:
            air[i] = 0.0
        elif (f_hi := margin(hi_steps)) >= 0:
            air[i] = 2.0 * h_hi_bits
        else:
            first = math.nan
            if len(crossings) > 1:
                (x0, s0), (x1, s1) = crossings[-2:]
                first = s1 + (snr - x1) * (s1 - s0) / (x1 - x0)
            elif crossings:
                first = crossings[-1][1]
            steps = _last_passing(margin, lo_steps, f_lo, hi_steps, f_hi, first)
            crossings.append((snr, steps))
            air[i] = 2.0 * steps * ENTROPY_STEP_BITS
        _log.info("  %7.2f dB -> AIR %5.2f bits", snr, air[i])

    air = np.maximum.accumulate(air)
    return AirTable(snr_db=grid, air=air, ngmi_th=ngmi_th, M=GRID_TEMPLATE.M,
                    mc_symbols=mc.mc_symbols, seed=mc.seed)


def lookup_air(table: AirTable, snr_db: float):
    """Linear interpolation on the table, clamped at both grid ends."""
    return np.interp(snr_db, table.snr_db, table.air)


def min_snr_for_air(table: AirTable, air_target: float) -> float:
    """Smallest SNR (by linear interpolation) whose AIR reaches the target;
    inf when the table never gets there."""
    a = table.air
    if air_target > a[-1]:
        return math.inf
    j = int(np.searchsorted(a, air_target, side="left"))
    if j == 0 or a[j] == a[j - 1]:
        return float(table.snr_db[j])
    frac = (air_target - a[j - 1]) / (a[j] - a[j - 1])
    return float(table.snr_db[j - 1] + frac * (table.snr_db[j] - table.snr_db[j - 1]))


def save_air_table(table: AirTable, path) -> None:
    _write_json(path, table.to_dict())


def load_air_table(path) -> AirTable:
    return _read_json(path, AirTable)
