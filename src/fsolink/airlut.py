"""SNR-to-AIR lookup table for shaped dual-pol 64QAM.

For each SNR grid point, a bisection over source entropy finds the largest
shaped distribution that still clears the NGMI threshold; the table then maps
measured SNR to an achievable information rate (bits per dual-pol symbol)
and, through the frame overheads, to a net bit rate.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import awgn_link_metrics
from .shaping import (
    ENTROPY_FLOOR_BITS,
    ENTROPY_STEP_BITS,
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
        if self.mc_symbols <= 0:
            raise ValueError("Monte-Carlo symbol count must be positive")


def _check_ngmi_th(ngmi_th: float) -> None:
    if not 0.0 < ngmi_th < 1.0:
        raise ValueError(f"NGMI threshold must lie in (0, 1), got {ngmi_th}")


@dataclass(frozen=True)
class AirTable:
    """Monotone SNR -> AIR map plus the provenance needed to rebuild it."""

    snr_db: np.ndarray
    air: np.ndarray
    ngmi_th: float
    M: int
    mc_symbols: int
    seed: int

    def __post_init__(self):
        s = np.asarray(self.snr_db, dtype=float)
        a = np.asarray(self.air, dtype=float)
        if s.ndim != 1 or s.size < 2:
            raise ValueError("need at least two grid points")
        if s.shape != a.shape:
            raise ValueError("grid and AIR lengths differ")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(a))):
            raise ValueError("SNR grid and AIR must be finite")
        if np.any(np.diff(s) <= 0):
            raise ValueError("SNR grid must be strictly increasing")
        if np.any(np.diff(a) < 0):
            raise ValueError("AIR must be non-decreasing in SNR")
        _check_ngmi_th(self.ngmi_th)
        if np.any(a < 0) or np.any(a > 2.0 * math.log2(self.M) + 1e-12):
            raise ValueError("AIR must lie in [0, 2 log2 M]")
        object.__setattr__(self, "snr_db", s)
        object.__setattr__(self, "air", a)

    def to_dict(self) -> dict:
        return {
            "ngmi_th": self.ngmi_th,
            "M": self.M,
            "snr_db": [float(v) for v in self.snr_db],
            "air": [float(v) for v in self.air],
            "mc_symbols": self.mc_symbols,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AirTable":
        try:
            return cls(
                snr_db=np.asarray(d["snr_db"], dtype=float),
                air=np.asarray(d["air"], dtype=float),
                ngmi_th=float(d["ngmi_th"]),
                M=int(d["M"]),
                mc_symbols=int(d["mc_symbols"]),
                seed=int(d["seed"]),
            )
        except KeyError as e:
            raise ValueError(f"AIR table is missing key {e.args[0]!r}") from None


_PLAN = RatePlan()  # the one rate plan the link runs


def net_bit_rate(air_bits: float) -> float:
    """Net information rate in bit/s: AIR (bits per dual-pol symbol) times
    the rate plan's net symbol rate, in exact rational arithmetic."""
    if not 0 <= air_bits <= _PLAN.max_air_bits:
        raise ValueError(f"AIR {air_bits} outside [0, {_PLAN.max_air_bits}]")
    return float(Fraction(air_bits) * _PLAN.net_symbol_rate)


def air_for_rate(rate_bps: float) -> float:
    """Exact inverse of net_bit_rate."""
    max_rate = Fraction(_PLAN.max_air_bits) * _PLAN.net_symbol_rate
    if not 0 <= rate_bps <= max_rate:
        raise ValueError(f"rate {rate_bps} outside [0, {float(max_rate)}]")
    return float(Fraction(rate_bps) / _PLAN.net_symbol_rate)


def build_air_table(snr_grid_db, mc: MCConfig = MCConfig(),
                    ngmi_th: float = 0.9) -> AirTable:
    """Build the SNR -> AIR table by per-point entropy bisection.

    Every NGMI evaluation at a given grid point reuses the same derived seed,
    so the noise realizations are shared across candidate entropies (common
    random numbers); a final running-maximum pass makes the table monotone.
    Bit-identical for a fixed (grid, mc, ngmi_th) triple. Logs one line per
    grid point at INFO.
    """
    M = 64  # square 64QAM, as the campaign transmits
    grid = np.asarray(snr_grid_db, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("need at least two grid points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("SNR grid must be strictly increasing")
    _check_ngmi_th(ngmi_th)

    h_hi_bits = math.log2(M)
    lo_steps = round(ENTROPY_FLOOR_BITS / ENTROPY_STEP_BITS)
    hi_steps = round(h_hi_bits / ENTROPY_STEP_BITS)
    air = np.zeros(grid.size)

    for i, snr in enumerate(grid):
        ss = np.random.SeedSequence([mc.seed, i])

        def ngmi_at(steps: int) -> float:
            dist = grid_distribution(steps, M)
            return awgn_link_metrics(dist, float(snr), mc.mc_symbols,
                                     np.random.default_rng(ss)).ngmi

        if ngmi_at(lo_steps) < ngmi_th:
            air[i] = 0.0
        elif ngmi_at(hi_steps) >= ngmi_th:
            air[i] = 2.0 * h_hi_bits
        else:
            lo, hi = lo_steps, hi_steps  # NGMI(lo) >= th > NGMI(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if ngmi_at(mid) >= ngmi_th:
                    lo = mid
                else:
                    hi = mid
            air[i] = 2.0 * lo * ENTROPY_STEP_BITS
        _log.info("  %7.2f dB -> AIR %5.2f bits", snr, air[i])

    air = np.maximum.accumulate(air)
    return AirTable(snr_db=grid, air=air, ngmi_th=ngmi_th, M=M,
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table.to_dict(), fh, indent=2)
        fh.write("\n")


def load_air_table(path) -> AirTable:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: AIR table must be a JSON object")
    return AirTable.from_dict(raw)
