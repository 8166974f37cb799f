#!/usr/bin/env python3
"""Receiver DSP budget: measure chain SNR against channel SNR with no
impairments, with the full impairment set, and with each stage's targeted
impairment alone, at a sweep of channel SNRs.

Prints one table; useful when retuning equalizer budgets.
"""

import argparse
import math
import time

from fsolink.channel import ImpairmentConfig, full_impairments
from fsolink.dsprx import EqualizerConfig, rx_chain, simulate_block
from fsolink.shaping import GRID_TEMPLATE, mb_distribution, solve_nu_for_entropy


def measure(dist, snr_db, impairments, cfg, seed):
    frame, rx = simulate_block(dist, snr_db, impairments, cfg, seed=seed)
    return rx_chain(rx, frame, cfg).report.snr_db


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--snrs", type=float, nargs="+", default=[10.0, 15.0, 20.0, 25.0])
    ap.add_argument("--entropy", type=float, default=4.5, help="bits/pol")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    dist = mb_distribution(solve_nu_for_entropy(args.entropy, GRID_TEMPLATE),
                           GRID_TEMPLATE)
    cfg = EqualizerConfig()

    cases = {
        "clean": ImpairmentConfig(),
        "phase noise": ImpairmentConfig(combined_linewidth_hz=200e3, seed=1),
        "pol rotation": ImpairmentConfig(pol_rotation_rad=math.radians(30.0)),
        "freq offset": ImpairmentConfig(freq_offset_hz=25e6),
        "IQ imbalance": ImpairmentConfig(iq_amplitude_imbalance=0.05),
        "IQ skew": ImpairmentConfig(iq_skew_samples=0.4),
        "all": full_impairments(seed=1),
    }

    t0 = time.monotonic()
    print(f"{'impairment':14s}" + "".join(f"{s:>9.1f}" for s in args.snrs)
          + "   (channel SNR, dB)")
    for name, imp in cases.items():
        row = f"{name:14s}"
        for snr in args.snrs:
            row += f"{measure(dist, snr, imp, cfg, args.seed):9.2f}"
        print(row)
    print(f"\n{len(cases) * len(args.snrs)} blocks of 2e5 samples in "
          f"{time.monotonic() - t0:.0f} s")


if __name__ == "__main__":
    main()
