#!/usr/bin/env python3
"""Full default experiment: build the AIR table, synthesize the 3-hour
rain/clear trace, run all three schemes, and print the headline comparison.

Equivalent CLI:
    fsolink build-lut --grid 0:30:0.5 --mc 50000 --seed 7 --out lut.json
    fsolink gen-trace --duration 10800 --out trace.csv
    fsolink run --trace trace.csv --lut lut.json --mc-symbols 100000 --out results/
    fsolink report --in results/

With --quick the grid coarsens and the Monte-Carlo budgets shrink so the
whole thing finishes in about a minute; default budgets take several.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from fsolink.airlut import MCConfig, build_air_table, save_air_table
from fsolink.channel import RAIN, default_rain_config, gen_trace, save_trace
from fsolink.control import SCHEMES, emit_report, run_campaign


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results"),
                    help="output directory (default: results/)")
    ap.add_argument("--seed", type=int, default=0, help="campaign seed")
    ap.add_argument("--quick", action="store_true",
                    help="coarse grid and small MC budgets (~1 min)")
    args = ap.parse_args()

    grid_step = 1.0 if args.quick else 0.5
    table_mc = 20_000 if args.quick else 50_000
    campaign_mc = 20_000 if args.quick else 100_000

    t0 = time.monotonic()
    print(f"building AIR table (step {grid_step} dB, {table_mc} MC symbols)...")
    table = build_air_table(np.arange(0.0, 30.0 + 1e-9, grid_step),
                            MCConfig(mc_symbols=table_mc, seed=7), ngmi_th=0.9)

    print("synthesizing the 3-hour trace...")
    trace = gen_trace(default_rain_config(), 10800.0)
    rain_pct = 100.0 * sum(w == RAIN for w in trace.weather) / len(trace)
    print(f"  {len(trace)} samples, {rain_pct:.0f}% rain")

    print(f"running {len(SCHEMES)} schemes x {len(trace)} iterations...")
    records = run_campaign(trace, SCHEMES, table, seed=args.seed,
                           mc_symbols=campaign_mc)

    report = emit_report(records, args.out)  # creates args.out
    save_air_table(table, args.out / "lut.json")
    save_trace(trace, args.out / "trace.csv")

    print(f"\n{'scheme':10s} {'rate Gbps':>10s} {'outage':>8s} {'TB':>8s}")
    for s in SCHEMES:
        print(f"{s:10s} {report.mean_effective_rate_bps[s] / 1e9:10.1f} "
              f"{report.outage_fraction[s]:8.2%} "
              f"{report.delivered_bytes[s] / 1e12:8.2f}")
    for fixed, gain in report.gain_vs_fixed_bytes.items():
        print(f"adaptive vs {fixed}: +{gain[-1] / 1e12:.2f} TB accumulated")
    print(f"\nreport files in {args.out}/ ({time.monotonic() - t0:.0f} s)")


if __name__ == "__main__":
    main()
