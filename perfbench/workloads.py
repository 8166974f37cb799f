"""The three workloads. Each one makes its inputs from the seed in `setup`,
runs one timed unit of work through fsolink's public API or CLI in `unit`,
and checks a unit's outputs against the oracle and the library's own
invariants in `check`, which returns a list of problems (empty when the
output is correct). Units with the same input index are identical work, so
their output digests must agree.

Why these three:
- lut-build: the table build, nearly all NGMI bisection in the demapper at
  a large batch (32768 symbols, one full demapper chunk).
- campaign-analytic: the paper's headline computation through the CLI; a
  small batch (2048 symbols) with many scorings, so per-call overhead in
  control, symbol sampling, the distribution cache and report I/O shows.
- waveform-block: one full-impairment block through the DSP chain; the only
  workload that runs the equalizers, and it never touches airlut or control.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

# Library functions are called through their modules, so that the spans
# the tracer installs on module attributes see these calls too.
from fsolink import airlut, channel, cli, control, dsprx, shaping

from oracle import ngmi_oracle

NGMI_TH = 0.9
Z_TOL = 6.0  # Monte-Carlo tolerance in standard deviations of the estimate
# Extra room below the oracle. At high SNR a batch holds only a few symbol
# errors, so the NGMI estimate has a Poisson-like low tail (seen at -5.9 sd,
# 0.0043, in 13k records of 2048 symbols); 0.005 NGMI is about 20 more
# symbol errors in such a batch. A shared bias is caught by the mean z-score.
LOW_TAIL = 0.005
NET_SYMBOL_RATE = Fraction(64_000_000_000) * Fraction(5, 6) * Fraction(15, 16)


def _seeds(seed: int, tag: str, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed, int.from_bytes(tag.encode(), "little")])
    return [int(v) for v in ss.generate_state(n)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reset_library_caches() -> None:
    """Empty every functools cache in fsolink's modules, so that each unit
    starts as a fresh CLI process would."""
    for name, mod in list(sys.modules.items()):
        if name == "fsolink" or name.startswith("fsolink."):
            for val in vars(mod).values():
                clear = getattr(val, "cache_clear", None)
                if callable(clear):
                    clear()


def _quantized_entropy(entropy: float) -> float:
    # the campaign transmits the distribution on the 0.01-bit grid
    return round(entropy * 100) / 100.0


class LutBuild:
    """build_air_table over the full 0-30 dB grid in 1 dB steps."""

    name = "lut-build"
    item = "grid points"
    n_inputs = 1
    mc_symbols = 32768
    grid = np.arange(0.0, 31.0, 1.0)

    def setup(self, seed: int, work: Path):
        (mc_seed,) = _seeds(seed, self.name, 1)
        return {"mc": airlut.MCConfig(mc_symbols=self.mc_symbols, seed=mc_seed)}

    def setup_digest(self, inputs) -> str:
        return ""

    def unit(self, inputs, i: int):
        return airlut.build_air_table(self.grid, inputs["mc"], ngmi_th=NGMI_TH)

    def items(self, inputs, i: int) -> int:
        return self.grid.size

    def digest(self, table) -> str:
        return _sha(np.asarray(table.air, dtype=float).tobytes())

    def check(self, inputs, i: int, table) -> list[str]:
        if not isinstance(table, airlut.AirTable):
            return [f"build_air_table returned {type(table).__name__}"]
        try:
            airlut.AirTable.from_dict(table.to_dict())
        except ValueError as e:
            return [f"table does not validate: {e}"]
        problems = []
        if not np.array_equal(table.snr_db, self.grid):
            problems.append("table grid differs from the requested grid")
        n = self.mc_symbols
        for snr, air in zip(table.snr_db, table.air):
            if not 0.0 < air < 12.0:
                continue
            h = air / 2.0
            ng, sd = ngmi_oracle(h, snr, n)
            if ng < NGMI_TH - Z_TOL * sd:
                problems.append(f"{snr:g} dB: H={h:.2f} has oracle NGMI "
                                f"{ng:.5f} below {NGMI_TH} - {Z_TOL:g} sd")
            if h + 0.1 <= 6.0:
                ng_up, sd_up = ngmi_oracle(h + 0.1, snr, n)
                if ng_up >= NGMI_TH + Z_TOL * sd_up + LOW_TAIL:
                    problems.append(f"{snr:g} dB: H+0.1={h + 0.1:.2f} still has "
                                    f"oracle NGMI {ng_up:.5f}")
        return problems


class CampaignAnalytic:
    """`fsolink run` then `fsolink report` over a 3-hour default-rain trace,
    all three schemes, analytic mode."""

    name = "campaign-analytic"
    item = "campaign records"
    n_inputs = 1
    mc_symbols = 2048
    duration_s = 10800.0
    lut_grid = np.arange(0.0, 31.0, 2.0)

    def setup(self, seed: int, work: Path):
        trace_seed, lut_seed, run_seed = _seeds(seed, self.name, 3)
        work.mkdir(parents=True, exist_ok=True)
        trace = channel.gen_trace(channel.default_rain_config(seed=trace_seed),
                                  self.duration_s)
        channel.save_trace(trace, work / "trace.csv")
        table = airlut.build_air_table(
            self.lut_grid, airlut.MCConfig(mc_symbols=self.mc_symbols, seed=lut_seed),
            ngmi_th=NGMI_TH)
        airlut.save_air_table(table, work / "lut.json")
        return {"work": work, "trace": trace, "table": table, "seed": run_seed}

    def setup_digest(self, inputs) -> str:
        return _sha(np.asarray(inputs["table"].air, dtype=float).tobytes())

    def _run_args(self, inputs, schemes, out: Path) -> list[str]:
        w = inputs["work"]
        return ["run", "--trace", str(w / "trace.csv"), "--lut", str(w / "lut.json"),
                "--schemes", ",".join(schemes), "--mode", "analytic",
                "--seed", str(inputs["seed"]), "--mc-symbols", str(self.mc_symbols),
                "--out", str(out)]

    def unit(self, inputs, i: int):
        out = inputs["work"] / "results"
        reset_library_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            run_rc = cli.main(self._run_args(inputs, control.SCHEMES, out))
            after_run = {f: (out / f).read_bytes()
                         for f in ("records.csv", "summary.json")}
            report_rc = cli.main(["report", "--in", str(out)])
        after_report = {f: (out / f).read_bytes()
                        for f in ("records.csv", "summary.json")}
        return {"run_rc": run_rc, "report_rc": report_rc, "out": out,
                "after_run": after_run, "after_report": after_report}

    def items(self, inputs, i: int) -> int:
        return len(control.SCHEMES) * len(inputs["trace"])

    def digest(self, out) -> str:
        return _sha(out["after_run"]["records.csv"])

    def check(self, inputs, i: int, out) -> list[str]:
        if out["run_rc"] != 0 or out["report_rc"] != 0:
            return [f"CLI exit codes run={out['run_rc']} report={out['report_rc']}"]
        problems = []
        if out["after_report"] != out["after_run"]:
            problems.append("fsolink report did not reproduce records.csv "
                            "and summary.json")
        records = control.load_records(out["out"] / "records.csv")
        n_iter = len(inputs["trace"])
        if len(records) != len(control.SCHEMES) * n_iter:
            problems.append(f"{len(records)} records, expected "
                            f"{len(control.SCHEMES)} x {n_iter}")
        for s in control.SCHEMES:
            got = sum(1 for r in records if r.scheme == s)
            if got != n_iter:
                problems.append(f"scheme {s} has {got} records, expected {n_iter}")
        th = inputs["table"].ngmi_th
        z_scores = []
        for r in records:
            where = f"record n={r.n} {r.scheme}"
            if r.rate_bps != float(Fraction(r.air) * NET_SYMBOL_RATE):
                problems.append(f"{where}: rate {r.rate_bps!r} is not the "
                                f"net rate of AIR {r.air!r}")
            if r.in_service != (r.ngmi >= th):
                problems.append(f"{where}: in_service disagrees with NGMI")
            if r.air > 0.0:  # scored; probes carry NGMI 0 by convention
                ng, sd = ngmi_oracle(_quantized_entropy(r.entropy_bits),
                                     r.snr_true_db, self.mc_symbols)
                z_scores.append((r.ngmi - ng) / sd)
                if not -Z_TOL * sd - LOW_TAIL <= r.ngmi - ng <= Z_TOL * sd:
                    problems.append(f"{where}: NGMI {r.ngmi:.5f} vs oracle "
                                    f"{ng:.5f} (sd {sd:.2g})")
        # Records use independent seeds, so a bias shared by all of them
        # shows in the mean z-score long before in any single record.
        if z_scores and abs(np.mean(z_scores)) > Z_TOL / math.sqrt(len(z_scores)):
            problems.append(f"mean NGMI z-score {np.mean(z_scores):.3f} over "
                            f"{len(z_scores)} records: biased against the oracle")
        return problems[:20]  # the count of failed units is what gates

    def scheme_seed_mismatch(self, inputs) -> int:
        """Adaptive records that change when `adaptive` runs alone."""
        alone = inputs["work"] / "results-adaptive"
        reset_library_caches()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self._run_args(inputs, ("adaptive",), alone))
        if rc != 0:
            raise RuntimeError(f"fsolink run --schemes adaptive exited {rc}")
        return sum(1 for a, b in zip(self._adaptive_rows(inputs["work"] / "results"),
                                     self._adaptive_rows(alone), strict=True)
                   if a != b)

    @staticmethod
    def _adaptive_rows(out: Path) -> list[str]:
        rows = (out / "records.csv").read_text(encoding="utf-8").splitlines()[1:]
        return [r for r in rows if r.split(",")[2] == "adaptive"]


class WaveformBlock:
    """simulate_block + rx_chain on 2e5-sample full-impairment blocks,
    alternating between fixed (entropy, SNR) points."""

    name = "waveform-block"
    item = "blocks"
    # criterion 7's point and one 4 dB below it; above 20 dB the
    # full-impairment penalty exceeds criterion 7's 1.5 dB
    points = ((4.5, 20.0), (4.0, 16.0))
    n_inputs = len(points)
    n_samples = 200_000
    sample_rate_hz = 128e9  # 64 GBd at 2 samples per symbol
    freq_offset_hz = 25e6
    snr_tol_db = 1.5

    def setup(self, seed: int, work: Path):
        tpl = shaping.ConstellationTemplate.square_qam(64)
        seeds = _seeds(seed, self.name, 2 * len(self.points))
        blocks = []
        for k, (h, snr) in enumerate(self.points):
            dist = shaping.mb_distribution(shaping.solve_nu_for_entropy(h, tpl), tpl)
            blocks.append({"dist": dist, "snr": snr,
                           "impairments": channel.full_impairments(seed=seeds[2 * k]),
                           "seed": seeds[2 * k + 1]})
        return {"cfg": dsprx.EqualizerConfig(), "blocks": blocks}

    def setup_digest(self, inputs) -> str:
        return ""

    def unit(self, inputs, i: int):
        b = inputs["blocks"][i % self.n_inputs]
        frame, rx = dsprx.simulate_block(b["dist"], b["snr"], b["impairments"],
                                         inputs["cfg"], n_samples=self.n_samples,
                                         seed=b["seed"])
        return dsprx.rx_chain(rx, frame, inputs["cfg"])

    def items(self, inputs, i: int) -> int:
        return 1

    def digest(self, res) -> str:
        rep = res.report
        return _sha(repr((rep.ngmi, rep.snr_db, res.freq_offset_hz)).encode())

    def freq_tol_hz(self, impairments) -> float:
        """Criterion 7's 1% plus five standard deviations of the error the
        laser phase walk puts on a pilot-increment estimate over the block:
        the walk's end-to-end phase has variance 2 pi linewidth T."""
        t = self.n_samples / self.sample_rate_hz
        walk_sd = math.sqrt(2 * math.pi * impairments.combined_linewidth_hz * t)
        return 0.01 * self.freq_offset_hz + 5 * walk_sd / (2 * math.pi * t)

    def check(self, inputs, i: int, res) -> list[str]:
        b = inputs["blocks"][i % self.n_inputs]
        problems = []
        snr = res.report.snr_db
        if abs(snr - b["snr"]) > self.snr_tol_db:
            problems.append(f"chain SNR {snr:.2f} dB vs channel {b['snr']:g} dB")
        tol = self.freq_tol_hz(b["impairments"])
        if abs(res.freq_offset_hz - self.freq_offset_hz) > tol:
            problems.append(f"frequency estimate {res.freq_offset_hz / 1e6:.4f} MHz "
                            f"off 25 MHz by more than {tol / 1e6:.3f} MHz")
        if res.freq_ambiguous:
            problems.append("frequency estimate flagged ambiguous")
        if not math.isfinite(res.report.ngmi):
            problems.append("NGMI is not finite")
        return problems


WORKLOADS = {w.name: w for w in (LutBuild(), CampaignAnalytic(), WaveformBlock())}
