#!/usr/bin/env python3
"""Full default experiment: build the AIR table, synthesize the 3-hour
rain/clear trace, run all three schemes, and print the headline comparison.

It runs these fsolink commands, all into the one directory OUT (--out):
    fsolink build-lut --grid 0:30:0.5 --mc 50000 --seed 7 --quiet --out OUT/lut.json
    fsolink gen-trace --duration 10800 --out OUT/trace.csv
    fsolink run --trace OUT/trace.csv --lut OUT/lut.json --seed SEED --mc-symbols 100000 --out OUT

--quick uses a 1 dB grid, --mc 20000 and --mc-symbols 20000 instead. On a
2-vCPU machine the quick run takes about 4 s and the full run about 20 s.
"""

import argparse
import json
import sys
from pathlib import Path

from fsolink.cli import main as fsolink


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("results"),
                    help="output directory (default: results/)")
    ap.add_argument("--seed", type=int, default=0, help="campaign seed")
    ap.add_argument("--quick", action="store_true",
                    help="1 dB grid and small MC budgets")
    args = ap.parse_args()

    step, table_mc, campaign_mc = (("1", "20000", "20000") if args.quick
                                   else ("0.5", "50000", "100000"))
    args.out.mkdir(parents=True, exist_ok=True)
    lut, trace = str(args.out / "lut.json"), str(args.out / "trace.csv")
    for argv in (["build-lut", "--grid", f"0:30:{step}", "--mc", table_mc,
                  "--seed", "7", "--quiet", "--out", lut],
                 ["gen-trace", "--duration", "10800", "--out", trace],
                 ["run", "--trace", trace, "--lut", lut, "--seed", str(args.seed),
                  "--mc-symbols", campaign_mc, "--out", str(args.out)]):
        rc = fsolink(argv)
        if rc:
            return rc

    summary = json.loads((args.out / "summary.json").read_text())
    for fixed, gain in summary["gain_vs_fixed_bytes"].items():
        print(f"adaptive vs {fixed}: +{gain[-1] / 1e12:.2f} TB accumulated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
