#!/usr/bin/env python3
"""Build (or load) an SNR->AIR table and print it together with the minimum
SNR each standard net bit-rate needs — the service thresholds that drive the
campaign's outage behavior.
"""

import argparse
from pathlib import Path

import numpy as np

from fsolink.airlut import (
    MCConfig,
    air_for_rate,
    build_air_table,
    load_air_table,
    min_snr_for_air,
    net_bit_rate,
    save_air_table,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lut", type=Path, help="load this table instead of building")
    ap.add_argument("--step", type=float, default=0.5, help="grid step in dB")
    ap.add_argument("--mc", type=int, default=50_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--save", type=Path, help="write the built table here")
    args = ap.parse_args()

    if args.lut:
        table = load_air_table(args.lut)
        print(f"loaded {args.lut}")
    else:
        print(f"building table (step {args.step} dB, {args.mc} MC symbols)...")
        table = build_air_table(np.arange(0.0, 30.0 + 1e-9, args.step),
                                MCConfig(mc_symbols=args.mc, seed=args.seed),
                                ngmi_th=0.9)
        if args.save:
            save_air_table(table, args.save)
            print(f"wrote {args.save}")

    print(f"\nNGMI threshold {table.ngmi_th}, M={table.M}, "
          f"{table.mc_symbols} MC symbols, seed {table.seed}")
    print(f"{'SNR dB':>8s} {'AIR bits':>9s} {'entropy':>8s} {'net Gbps':>9s}")
    for snr, air in zip(table.snr_db, table.air):
        rate = net_bit_rate(float(air)) / 1e9
        print(f"{snr:8.2f} {air:9.2f} {air / 2:8.2f} {rate:9.1f}")

    print("\nservice thresholds:")
    for rate in (400e9, 500e9, 600e9):
        air = air_for_rate(rate)
        snr = min_snr_for_air(table, air)
        print(f"  {rate / 1e9:.0f} Gbps needs AIR {air:.2f} "
              f"(entropy {air / 2:.2f} bits/pol) -> min SNR {snr:.2f} dB")


if __name__ == "__main__":
    main()
