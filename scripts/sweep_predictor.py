#!/usr/bin/env python3
"""Sweep the SNR predictor's window length and margin over the default trace
and print the mean effective adaptive rate for each combination.

The "best" cell is the one with the highest mean effective rate; outage is
neither reported nor weighed. Small margins and short windows raise the
rate and the outage together, so the top cell need not be the stock setting
(N=3, 2 dB): on the default 3-hour trace at 20k symbols, N=1 with a 1 dB
margin ranks above it at 1.62% outage, against 0.23% for the stock setting.
"""

import argparse

import numpy as np

from fsolink.airlut import MCConfig, build_air_table
from fsolink.channel import default_rain_config, gen_trace
from fsolink.control import sweep_predictor


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--windows", type=int, nargs="+", default=[1, 2, 3, 5, 8])
    ap.add_argument("--margins", type=float, nargs="+",
                    default=[0.5, 1.0, 2.0, 3.0])
    ap.add_argument("--duration", type=float, default=10800.0)
    ap.add_argument("--mc-symbols", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("building AIR table (1 dB grid)...")
    table = build_air_table(np.arange(0.0, 31.0, 1.0),
                            MCConfig(mc_symbols=20_000, seed=7), ngmi_th=0.9)
    trace = gen_trace(default_rain_config(), args.duration)
    print(f"sweeping {len(args.windows)}x{len(args.margins)} settings over "
          f"{len(trace)} iterations...\n")

    result = sweep_predictor(trace, table, args.windows, args.margins,
                             seed=args.seed, mc_symbols=args.mc_symbols)

    head = "N \\ margin" + "".join(f"{m:>10.1f}" for m in args.margins)
    print(head)
    for n in args.windows:
        row = f"{n:<10d}"
        for m in args.margins:
            row += f"{result[(n, float(m))] / 1e9:10.1f}"
        print(row)
    best = max(result, key=result.get)
    print(f"\nbest: N={best[0]}, margin={best[1]:g} dB "
          f"-> {result[best] / 1e9:.1f} Gbps mean effective rate")


if __name__ == "__main__":
    main()
