"""SNR-to-AIR lookup table for shaped dual-pol 64QAM.

For each SNR grid point, a search over the 0.01-bit entropy grid finds the
largest shaped distribution that still clears the NGMI threshold;
select_rate then maps a predicted SNR to the entropy the table allows,
min_snr_for_air inverts that, and the frame overheads turn an AIR into a net
bit rate. The search starts where the previous grid points' crossings
predict this one, gallops to a bracket and finishes it by regula falsi: NGMI
is smooth in entropy, so a point takes two or three NGMI evaluations where
bisection over the 400 steps took about nine, and the floor and top steps
are scored only when the search reaches them. Once the table reaches the
top step, the points above take it unscored.
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
    "select_rate",
    "net_bit_rate",
    "air_for_rate",
    "min_snr_for_air",
    "save_air_table",
    "load_air_table",
]

_log = logging.getLogger(__name__)

FLOOR_STEP = round(ENTROPY_FLOOR_BITS / ENTROPY_STEP_BITS)  # the shaping floor, in steps
TOP_STEP = round(RatePlan.max_air_bits / 2.0 / ENTROPY_STEP_BITS)  # the unshaped top, in steps
NGMI_TH = 0.9  # the default NGMI threshold: a grid point serves at or above it


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
        if _integer(self.M, "AIR table M") != GRID_TEMPLATE.M:
            raise ValueError(f"AIR table M must be {GRID_TEMPLATE.M}, got {self.M}")
        try:
            MCConfig(self.mc_symbols, self.seed)
        except ValueError as e:
            raise ValueError(f"AIR table {e}") from None
        s = np.array([_real(v, "AIR table SNR") for v in self.snr_db], dtype=float)
        a = np.array([_real(v, "AIR table AIR") for v in self.air], dtype=float)
        _check_grid(s, self.ngmi_th)
        if s.shape != a.shape:
            raise ValueError("grid and AIR lengths differ")
        if np.any(np.diff(a) < 0):
            raise ValueError("AIR must be non-decreasing in SNR")
        if np.any(a < 0) or np.any(a > RatePlan.max_air_bits):
            raise ValueError(f"AIR must lie in [0, {RatePlan.max_air_bits}]")
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


def _last_passing(f, lo: int, hi: int, guess: float) -> int | None:
    """The last passing step of lo..hi, searched outward from a guess: a
    step s in [lo, hi) with f(s) >= 0 > f(s + 1); hi when the search reaches
    hi and it passes; None when it reaches lo and it fails.

    The first probe is the guess, rounded and clamped into [lo, hi], and the
    search gallops from it toward the sign change in strides 1, 2, 4, ...
    until two probes bracket it, f(a) >= 0 > f(b). With no guess (NaN) it
    probes lo and then hi, as end checks would. Inside the bracket each
    probe is regula falsi, a + f(a) (b - a) / (f(a) - f(b)), rounded to a
    step and moved one step inside when it rounds onto an end. No step is
    evaluated twice. Where f is non-increasing its passing steps form a
    prefix, so a bracket means that lo passes and hi fails, and the answer
    is bisection's.
    """
    if math.isnan(guess):
        s, stride = lo, hi - lo
    else:
        s, stride = round(min(max(guess, lo), hi)), 1
    a = b = None
    while True:
        v = f(s)
        if v >= 0:
            a, f_a = s, v
            if b is not None or s == hi:
                break
            s = min(s + stride, hi)
        else:
            b, f_b = s, v
            if a is not None or s == lo:
                break
            s = max(s - stride, lo)
        stride *= 2
    if a is None or b is None:
        return a

    while b - a > 1:
        s = min(max(round(a + f_a * (b - a) / (f_a - f_b)), a + 1), b - 1)
        v = f(s)
        if v >= 0:
            a, f_a = s, v
        else:
            b, f_b = s, v
    return a


def build_air_table(snr_grid_db, mc: MCConfig = MCConfig(),
                    ngmi_th: float = NGMI_TH) -> AirTable:
    """Build the SNR -> AIR table by a per-point search over entropy steps.

    Each point takes the running maximum of the AIRs so far, so the table is
    monotone, and once it reaches the top step later points take that with
    no NGMI evaluation. Otherwise _last_passing searches from the
    SNR-linear extrapolation of the two previous points' crossings (from the
    one previous crossing, or with no guess before any). A failing floor
    gives AIR 0 and a passing top step the top step; where NGMI falls with
    entropy, a crossing is the largest passing step, as bisection finds it.
    Every NGMI evaluation at a grid point reuses the same derived seed
    (common random numbers across candidate entropies). Bit-identical for a
    fixed (grid, mc, ngmi_th) triple. Logs each point's table value at INFO.
    """
    grid = np.asarray(snr_grid_db, dtype=float)
    _check_grid(grid, ngmi_th)

    air = np.zeros(grid.size)
    best = 0  # the running maximum in entropy steps; 0 is AIR 0
    crossings = []  # (snr, last passing step) of each earlier point with one

    for i, snr in enumerate(grid.tolist()):
        if best < TOP_STEP:
            def margin(steps: int) -> float:
                return awgn_link_metrics(grid_distribution(steps), snr,
                                         mc.mc_symbols, [mc.seed, i]).ngmi - ngmi_th

            guess = math.nan
            if len(crossings) > 1:
                (x0, s0), (x1, s1) = crossings[-2:]
                guess = s1 + (snr - x1) * (s1 - s0) / (x1 - x0)
            elif crossings:
                guess = crossings[-1][1]
            steps = _last_passing(margin, FLOOR_STEP, TOP_STEP, guess)
            if steps is not None:
                crossings.append((snr, steps))
                best = max(best, steps)
        air[i] = 2.0 * best * ENTROPY_STEP_BITS
        _log.info("  %7.2f dB -> AIR %5.2f bits", snr, air[i])

    return AirTable(snr_db=grid, air=air, ngmi_th=ngmi_th, M=GRID_TEMPLATE.M,
                    mc_symbols=mc.mc_symbols, seed=mc.seed)


def select_rate(table: AirTable, snr_est_db: float) -> float:
    """Map a predicted SNR to the entropy (bits/pol) to transmit.

    The table's AIR/2, interpolated and clamped at both grid ends, is floored
    to the entropy grid the campaign transmits on, so the rate it carries
    never exceeds what the table allows. No valid distribution lies below
    FLOOR_STEP (interpolation across the table's service cliff can get
    there), so such a step is 0: out of service, transmit nothing. The cliff
    reads the floored step, so min_snr_for_air's threshold selects its AIR.
    """
    air = np.interp(snr_est_db, table.snr_db, table.air)
    # the tolerance keeps table values such as 9.3 on their own step
    steps = math.floor(air / 2.0 / ENTROPY_STEP_BITS + 1e-9)
    return steps * ENTROPY_STEP_BITS if steps >= FLOOR_STEP else 0.0


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
