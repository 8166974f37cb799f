"""Command-line front end: build the SNR->AIR table, synthesize SNR traces,
run rate-adaptation campaigns, and regenerate reports from stored records.

All subcommands exit 0 on success and nonzero with a one-line diagnostic on
stderr otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from .airlut import NGMI_TH, MCConfig, build_air_table, load_air_table, save_air_table
from .channel import (
    RAIN,
    RainModelConfig,
    _read_json,
    _real,
    default_rain_config,
    gen_trace,
    load_trace,
    save_trace,
)
from .control import (
    SCHEMES,
    PredictorState,
    emit_report,
    load_records,
    run_campaign,
)

__all__ = ["build_parser", "main"]


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:step' (stop inclusive) into a strictly increasing
    SNR grid in dB."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (_real(float(p), "grid value") for p in parts)
    except ValueError:
        raise ValueError(f"grid values must be finite numbers, got {spec!r}") from None
    if step <= 0 or stop <= start:
        raise ValueError(f"grid needs stop > start and step > 0, got {spec!r}")
    n = (stop - start) / step
    if not np.isfinite(n):
        raise ValueError(f"grid point count overflows a float, got {spec!r}")
    grid = start + step * np.arange(int(round(n)) + 1)
    return grid[grid <= stop + 1e-9]


def _cmd_build_lut(args) -> int:
    grid = _parse_grid(args.grid)
    table = build_air_table(grid, mc=MCConfig(mc_symbols=args.mc, seed=args.seed),
                            ngmi_th=args.ngmi_th)
    save_air_table(table, args.out)
    print(f"wrote {args.out}: {len(grid)} grid points, "
          f"NGMI threshold {args.ngmi_th}, {args.mc} MC symbols/point")
    return 0


def _cmd_gen_trace(args) -> int:
    cfg = (default_rain_config() if args.config is None
           else _read_json(args.config, RainModelConfig))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    trace = gen_trace(cfg, args.duration)
    save_trace(trace, args.out)
    rain = sum(1 for w in trace.weather if w == RAIN)
    print(f"wrote {args.out}: {len(trace)} samples at "
          f"{trace.sampling_period_s:g} s, {rain} rain samples")
    return 0


def _print_summary(report) -> None:
    """One line per scheme: mean effective rate, outage and delivered data."""
    for scheme, rate in report.mean_effective_rate_bps.items():
        out_pct = 100 * report.outage_fraction[scheme]
        tb = report.delivered_bytes[scheme] / 1e12
        print(f"{scheme:9s}: mean effective rate {rate / 1e9:7.2f} Gbps, "
              f"outage {out_pct:5.2f}%, delivered {tb:.3f} TB")


def _cmd_run(args) -> int:
    trace = load_trace(args.trace)
    table = load_air_table(args.lut)
    schemes = tuple(s.strip() for s in args.schemes.split(",") if s.strip())
    records = run_campaign(
        trace, schemes, table, mode=args.mode, seed=args.seed,
        n_window=args.window, snr_margin_db=args.margin,
        mc_symbols=args.mc_symbols)
    _print_summary(emit_report(records, args.out))
    print(f"wrote {args.out}/records.csv and report files")
    return 0


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    _print_summary(emit_report(load_records(in_dir / "records.csv"), in_dir))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fsolink",
        description="Rate-adaptive shaped-64QAM link simulator")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-lut", help="Monte-Carlo the SNR->AIR table")
    b.add_argument("--ngmi-th", type=float, default=NGMI_TH)
    b.add_argument("--grid", default="0:30:0.25", help="SNR grid start:stop:step in dB")
    b.add_argument("--mc", type=int, default=MCConfig.mc_symbols,
                   help="MC symbols per evaluation")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.add_argument("--quiet", action="store_true", help="do not log each grid point")
    b.set_defaults(fn=_cmd_build_lut)

    g = sub.add_parser("gen-trace", help="synthesize a rain/clear SNR trace")
    g.add_argument("--config", help="JSON with rain model fields (default: calibrated model)")
    g.add_argument("--duration", type=float, default=10800.0, help="trace length in seconds")
    g.add_argument("--seed", type=int, help="override the config's seed")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_gen_trace)

    r = sub.add_parser("run", help="run a rate-adaptation campaign over a trace")
    r.add_argument("--trace", required=True)
    r.add_argument("--lut", required=True)
    r.add_argument("--schemes", default=",".join(SCHEMES),
                   help="comma-separated subset of " + ",".join(SCHEMES))
    r.add_argument("--mode", choices=("analytic", "waveform"), default="analytic")
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--window", type=int, default=PredictorState.n_window,
                   help="predictor window length N")
    r.add_argument("--margin", type=float, default=PredictorState.snr_margin_db,
                   help="SNR margin in dB")
    r.add_argument("--mc-symbols", type=int, default=MCConfig.mc_symbols)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=_cmd_run)

    q = sub.add_parser("report", help="recompute report files from records.csv")
    q.add_argument("--in", dest="in_dir", required=True)
    q.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # fsolink's INFO records go to stderr as bare lines
    log = logging.getLogger("fsolink")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.WARNING if getattr(args, "quiet", False) else logging.INFO)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
