"""Spans around calls into fsolink's modules, installed from outside the
library.

Python resolves a module-level name at call time, so replacing a module
attribute with a timing wrapper puts a span around every call that looks
the function up through that module. A function imported into several
modules (``from .metrics import awgn_link_metrics``) is bound once per
module; `Tracer.install` replaces every binding of the same function object
in every loaded ``fsolink`` module, and `Tracer.uninstall` restores them.

Every span records its name, start, end, parent span and operation id and
is kept in memory until `write_spans`. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# Public functions of each layer that get a span. ccdm is not on the table,
# campaign or waveform path, so it has none. Hot helpers called thousands of
# times inside one of these (mb_distribution, ngmi, net_bit_rate) are left
# to their caller's self time.
TRACED = {
    "shaping": ("solve_nu_for_entropy", "insert_pilots"),
    "metrics": ("awgn_link_metrics", "gmi_from_samples", "bitwise_llrs",
                "evm_percent"),
    "airlut": ("build_air_table", "save_air_table", "load_air_table"),
    "channel": ("gen_trace", "save_trace", "load_trace", "awgn_transmit",
                "apply_impairments"),
    "dsprx": ("simulate_block", "build_tx_frame", "tx_waveform", "rx_chain",
              "matched_filter", "gram_schmidt", "cma_butterfly",
              "frequency_recovery", "cpe_phase", "lms_4x4"),
    "control": ("run_campaign", "select_rate", "accumulate_report",
                "emit_report", "load_records"),
    "cli": ("main",),
}


def _size(arg):
    return lambda args, result: int(getattr(args[arg], "size", len(args[arg])))


# Work counted at the same boundaries: span name -> {count: fn(args, result)}.
COUNTERS = {
    "metrics.gmi_from_samples": {"symbols": _size("rx")},
    "metrics.bitwise_llrs": {"symbols": _size("rx")},
    "airlut.build_air_table": {"points": _size("snr_grid_db")},
    "dsprx.rx_chain": {"symbols": lambda a, r: int(a["frame"].symbols.size)},
    "control.run_campaign": {
        "records": lambda a, r: len(r),
        "probes": lambda a, r: sum(1 for rec in r if rec.air == 0.0),
    },
}


class Tracer:
    """Collects spans while installed; `op` tags the spans that follow."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent, op, counts, error)
        self.op = None
        self._stack = []
        self._patched = []

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            error = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                error = type(e).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                counts = {}
                if error is None and counters:
                    bound = sig.bind(*args, **kwargs).arguments
                    counts = {k: f(bound, result) for k, f in counters.items()}
                spans.append((span_id, name, start, end, parent, self.op,
                              counts, error))
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fsolink" or n.startswith("fsolink.")]
        by_name = {m.__name__: m for m in modules}
        for layer, names in TRACED.items():
            home = by_name[f"fsolink.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patched.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            m, attr, orig = self._patched.pop()
            setattr(m, attr, orig)

    def write_spans(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op", "counts",
                "error")
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def function_stats(spans, ops) -> dict:
    """Per span name over the spans of the given ops: self seconds, calls,
    summed counts, errors by type, and calls per parent span name."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    stats = defaultdict(lambda: {"self_s": 0.0, "calls": 0,
                                 "counts": defaultdict(int),
                                 "errors": defaultdict(int),
                                 "parents": defaultdict(int)})
    for s in spans:
        if s[5] not in ops:
            continue
        covered, reach = 0, s[2]
        for lo, hi in sorted(children[s[0]]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        st = stats[s[1]]
        st["self_s"] += (s[3] - s[2] - covered) * 1e-9
        st["calls"] += 1
        for k, v in s[6].items():
            st["counts"][k] += v
        if s[7] is not None:
            st["errors"][s[7]] += 1
        parent = by_id.get(s[4])
        st["parents"][parent[1] if parent else None] += 1
    return stats


def layer_metrics(stats) -> dict:
    """The per-layer figures for one operation, from `function_stats`."""
    def self_s(*names):
        return sum(stats[n]["self_s"] for n in names if n in stats)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def count(name, key):
        return stats[name]["counts"].get(key, 0) if name in stats else 0

    gmi_s = self_s("metrics.gmi_from_samples", "metrics.bitwise_llrs")
    scored = (count("metrics.gmi_from_samples", "symbols")
              + count("metrics.bitwise_llrs", "symbols"))
    evals = (stats["metrics.awgn_link_metrics"]["parents"]
             .get("airlut.build_air_table", 0)
             if "metrics.awgn_link_metrics" in stats else 0)
    points = count("airlut.build_air_table", "points")
    errors = stats["dsprx.rx_chain"]["errors"] if "dsprx.rx_chain" in stats else {}
    return {
        "metrics.gmi_s": gmi_s,
        "metrics.symbols_scored": scored,
        "metrics.gmi_ns_per_symbol": gmi_s / scored * 1e9 if scored else 0.0,
        "metrics.sample_s": self_s("metrics.awgn_link_metrics"),
        "metrics.evm_s": self_s("metrics.evm_percent"),
        "metrics.calls": calls("metrics.awgn_link_metrics"),
        "channel.awgn_s": self_s("channel.awgn_transmit"),
        "channel.impairments_s": self_s("channel.apply_impairments"),
        "channel.gen_trace_s": self_s("channel.gen_trace"),
        "shaping.solve_nu_calls": calls("shaping.solve_nu_for_entropy"),
        "shaping.solve_nu_s": self_s("shaping.solve_nu_for_entropy"),
        "shaping.insert_pilots_s": self_s("shaping.insert_pilots"),
        "airlut.build_s": self_s("airlut.build_air_table"),
        "airlut.ngmi_evals": evals,
        "airlut.evals_per_point": evals / points if points else 0.0,
        "dsprx.tx_frame_s": self_s("dsprx.build_tx_frame"),
        "dsprx.tx_waveform_s": self_s("dsprx.tx_waveform"),
        "dsprx.matched_filter_s": self_s("dsprx.matched_filter"),
        "dsprx.gram_schmidt_s": self_s("dsprx.gram_schmidt"),
        "dsprx.cma_s": self_s("dsprx.cma_butterfly"),
        "dsprx.freq_recovery_s": self_s("dsprx.frequency_recovery"),
        "dsprx.cpe_s": self_s("dsprx.cpe_phase"),
        "dsprx.lms_s": self_s("dsprx.lms_4x4"),
        "dsprx.score_s": self_s("dsprx.rx_chain"),
        "dsprx.symbols": count("dsprx.rx_chain", "symbols"),
        "dsprx.stage_errors": sum(n for e, n in errors.items()
                                  if e in ("StageError", "EqualizerDiverged")),
        "control.self_s": self_s("control.run_campaign"),
        "control.select_rate_s": self_s("control.select_rate"),
        "control.report_s": self_s("control.accumulate_report",
                                   "control.emit_report"),
        "control.load_records_s": self_s("control.load_records"),
        "control.iterations": count("control.run_campaign", "records"),
        "control.probes": count("control.run_campaign", "probes"),
        "cli.load_s": self_s("channel.load_trace", "airlut.load_air_table"),
        "cli.self_s": self_s("cli.main"),
    }


LAYER_UNITS = {
    "metrics.gmi_s": "s",
    "metrics.symbols_scored": "count",
    "metrics.gmi_ns_per_symbol": "ns",
    "metrics.sample_s": "s",
    "metrics.evm_s": "s",
    "metrics.calls": "count",
    "channel.awgn_s": "s",
    "channel.impairments_s": "s",
    "channel.gen_trace_s": "s",
    "shaping.solve_nu_calls": "count",
    "shaping.solve_nu_s": "s",
    "shaping.insert_pilots_s": "s",
    "airlut.build_s": "s",
    "airlut.ngmi_evals": "count",
    "airlut.evals_per_point": "ratio",
    "dsprx.tx_frame_s": "s",
    "dsprx.tx_waveform_s": "s",
    "dsprx.matched_filter_s": "s",
    "dsprx.gram_schmidt_s": "s",
    "dsprx.cma_s": "s",
    "dsprx.freq_recovery_s": "s",
    "dsprx.cpe_s": "s",
    "dsprx.lms_s": "s",
    "dsprx.score_s": "s",
    "dsprx.symbols": "count",
    "dsprx.stage_errors": "count",
    "control.self_s": "s",
    "control.select_rate_s": "s",
    "control.report_s": "s",
    "control.load_records_s": "s",
    "control.iterations": "count",
    "control.probes": "count",
    "cli.load_s": "s",
    "cli.self_s": "s",
}


def layer_self_s(stats, layers) -> float:
    """Summed self time of every span whose layer is in `layers`."""
    return sum(st["self_s"] for name, st in stats.items()
               if name.split(".", 1)[0] in layers)
