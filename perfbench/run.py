"""fsolink benchmark: one workload per invocation.

    python3 perfbench/run.py --workload lut-build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fsolink is imported from ./src.
With --trace 0 the run times whole units of work (one table build, one CLI
run + report, one waveform block) until --seconds of unit time have passed
and reports the end-to-end metrics. With --trace 1 it runs each unit twice,
untraced then traced with spans installed on fsolink's module attributes,
and reports the per-layer metrics and the tracing overhead. Both modes check
every distinct unit output against oracles and invariants, and require
units of the same input (traced or not) to give identical output digests.

Human-readable lines go first; the last stdout line is one JSON object with
keys correct, attempted, failed and metrics. Per-run details (environment,
unit times, digests, problems) and, when traced, the spans are written under
.perfbench-runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # pinned before numpy loads; stated in every result
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_EXTRA = {
    "control.scheme_seed_mismatch": "count",
    "tracing.overhead_pct": "%",
    "tracing.dsprx_metrics_channel_pct": "%",
    "fail_rate": "ratio",
}
FSOLINK_MODULES = ("shaping", "ccdm", "metrics", "airlut", "channel", "dsprx",
                   "control", "cli")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; "
                + "; ".join(f"import fsolink.{m}" for m in FSOLINK_MODULES)
                + "; print(time.perf_counter() - t)")


def _pin_threads() -> dict:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_version,
        "machine": platform.machine(),
    }


def _import_seconds(env: dict) -> float:
    """Import time of numpy and every fsolink module in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Run:
    """One invocation: setup, a loop of timed units, checks and results."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from tracing import Tracer

        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = ROOT / ".perfbench-runs" / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer()
        self.units = []  # one dict per attempted unit
        self.expected = {}  # input index -> digest of its first checked output
        self.extra_failures = 0

    def run_unit(self, i: int, traced: bool) -> dict:
        rec = {"index": i, "input": i % self.w.n_inputs, "traced": traced,
               "problems": []}
        if traced:
            self.tracer.op = f"unit-{i}"
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            output = self.w.unit(self.inputs, i)
        except Exception:
            output = None
            rec["problems"].append(traceback.format_exc(limit=3))
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        rec["items"] = self.w.items(self.inputs, i)
        if output is not None:
            rec["digest"] = self.w.digest(output)
            ref = self.expected.get(rec["input"])
            if ref is None:
                problems = self.w.check(self.inputs, i, output)
                rec["problems"] += problems
                if not problems:
                    self.expected[rec["input"]] = rec["digest"]
            elif ref != rec["digest"]:
                rec["problems"].append(
                    f"digest {rec['digest'][:16]} differs from {ref[:16]} for "
                    f"the same input{' (traced)' if traced else ''}")
        for p in rec["problems"]:
            print(f"FAIL unit {i}: {p}", file=sys.stderr)
        self.units.append(rec)
        return rec

    def setup(self, env: dict | None) -> list[float]:
        """Set up SETUP_REPEATS times (once, traced, when tracing) and return
        each set-up's seconds, a fresh interpreter's imports included unless
        `env` is None."""
        times, digests = [], set()
        for _ in range(1 if self.trace else SETUP_REPEATS):
            imp = 0.0 if env is None else _import_seconds(env)
            if self.trace:
                self.tracer.op = "setup"
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                self.inputs = self.w.setup(self.seed, self.out_dir / "work")
            finally:
                gen = time.perf_counter() - t0
                if self.trace:
                    self.tracer.uninstall()
            times.append(imp + gen)
            digests.add(self.w.setup_digest(self.inputs))
        if len(digests) != 1:
            raise RuntimeError("repeated set-ups produced different inputs")
        self.setup_digest = digests.pop()
        return times

    def loop(self) -> None:
        """Rounds of one unit (an untraced/traced pair when tracing), at
        least one per input index, while another round of average length
        still fits in the budget of summed unit time."""
        modes = (False, True) if self.trace else (False,)
        spent, rounds = 0.0, 0
        while True:
            for traced in modes:
                spent += self.run_unit(rounds, traced)["seconds"]
            rounds += 1
            if rounds >= self.w.n_inputs and spent + spent / rounds > self.seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.units) + self.extra_failures

    @property
    def failed(self) -> int:
        return sum(1 for u in self.units if u["problems"]) + self.extra_failures

    def digest(self) -> str:
        h = hashlib.sha256(self.setup_digest.encode())
        for k in range(self.w.n_inputs):
            h.update(self.expected.get(k, "missing").encode())
        return h.hexdigest()


def _end_to_end(run: Run, setup_times: list[float]) -> dict:
    secs = [u["seconds"] for u in run.units]
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": sum(u["items"] for u in run.units) / sum(secs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(run: Run, mismatch: int) -> dict:
    from tracing import function_stats, layer_metrics, layer_self_s

    spans = run.tracer.spans
    traced = [u for u in run.units if u["traced"]]
    plain = [u for u in run.units if not u["traced"]]
    per_unit = []
    for u in traced:
        op = f"unit-{u['index']}"
        m = layer_metrics(function_stats(spans, {"setup", op}))
        own = layer_self_s(function_stats(spans, {op}),
                           ("dsprx", "metrics", "channel"))
        m["tracing.dsprx_metrics_channel_pct"] = 100.0 * own / u["seconds"]
        per_unit.append(m)
    out = {k: statistics.median(m[k] for m in per_unit) for k in per_unit[0]}
    out["tracing.overhead_pct"] = 100.0 * (
        statistics.median(u["seconds"] for u in traced)
        / statistics.median(u["seconds"] for u in plain) - 1.0)
    out["control.scheme_seed_mismatch"] = mismatch
    out["fail_rate"] = run.failed / run.attempted
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "fsolink" / "__init__.py").is_file():
        print(f"error: no fsolink sources under {SRC}", file=sys.stderr)
        return 2
    env = _pin_threads()
    sys.path.insert(0, str(SRC))
    import fsolink

    if Path(fsolink.__file__).resolve().parent != SRC / "fsolink":
        print(f"error: fsolink imported from {fsolink.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    environment = _environment()
    setup_times = run.setup(None if run.trace else env)
    run.loop()

    mismatch = 0
    if run.trace and hasattr(run.w, "scheme_seed_mismatch"):
        try:
            mismatch = run.w.scheme_seed_mismatch(run.inputs)
        except Exception:
            run.extra_failures += 1
            traceback.print_exc()
    if run.trace:
        from tracing import LAYER_UNITS

        metrics = _per_layer(run, mismatch)
        units = {**LAYER_UNITS, **PER_LAYER_EXTRA}
        run.tracer.write_spans(run.out_dir / "spans.jsonl")
    else:
        metrics = _end_to_end(run, setup_times)
        units = END_TO_END

    failed, attempted = run.failed, run.attempted
    digest = run.digest()
    detail = {
        "workload": run.w.name, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "environment": environment, "digest": digest,
        "setup_seconds": setup_times, "units": run.units,
        "metrics": metrics, "attempted": attempted, "failed": failed,
    }
    (run.out_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in environment.items()))
    secs = [u["seconds"] for u in run.units]
    print(f"workload {run.w.name} seed {run.seed}: {len(run.units)} units of "
          f"{run.w.item}, digest {digest}")
    print(f"unit seconds: median {statistics.median(secs):.6g} of {len(secs)}, "
          f"min {min(secs):.6g}, max {max(secs):.6g}")
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted})")
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
