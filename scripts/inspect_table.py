#!/usr/bin/env python3
"""Print an SNR->AIR table (a lut.json from `fsolink build-lut`) together
with the minimum SNR each standard net bit-rate needs — the service
thresholds that drive the campaign's outage behavior.
"""

import argparse
import sys
from pathlib import Path

from fsolink.airlut import air_for_rate, load_air_table, min_snr_for_air, net_bit_rate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lut", type=Path, required=True, help="the table to print")
    args = ap.parse_args()

    table = load_air_table(args.lut)
    print(f"loaded {args.lut}")
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
    try:
        main()
    except (ValueError, OSError) as e:
        sys.exit(f"error: {e}")
