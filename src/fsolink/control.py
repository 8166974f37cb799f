"""Rate-adaptive link control: the moving-average SNR predictor, the
registry of transmission schemes, the campaign runner with outage
accounting, and the report files the CLI emits.

A scheme is a rule in _RULES: from the scheme's own predictor state and the
AIR table it picks the entropy to transmit. A campaign replays a stored SNR
trace. Per iteration and scheme it applies the scheme's rule, realizes the
channel (Monte-Carlo symbols in analytic mode, the full waveform chain in
waveform mode), measures SNR and NGMI, and applies the service rule: an
iteration delivers data only while NGMI stays at or above the table's
threshold; everything else is discarded as outage.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .airlut import FLOOR_STEP, AirTable, MCConfig, air_for_rate, net_bit_rate, select_rate
from .channel import (ImpairmentConfig, SnrTrace, _integer, _read_csv, _real,
                      _seed, _write_csv, _write_json)
from .metrics import MetricReport, awgn_link_metrics
from .shaping import (
    ENTROPY_STEP_BITS,
    ConstellationTemplate,
    ShapedDistribution,
    grid_distribution,
    mb_distribution,
)

__all__ = [
    "SCHEMES",
    "PredictorState",
    "IterationRecord",
    "CampaignReport",
    "predict_snr",
    "run_campaign",
    "accumulate_report",
    "emit_report",
    "load_records",
]


@dataclass
class PredictorState:
    """Ring of the last N measured SNRs feeding the moving-average
    predictor. Prediction is only defined once the window is full; the
    campaign's warm-up rule covers the first N iterations."""

    n_window: int = 3
    snr_margin_db: float = 2.0
    window: list = field(default_factory=list, init=False)

    def __post_init__(self):
        if _integer(self.n_window, "n_window") < 1:
            raise ValueError("window length must be >= 1")
        _real(self.snr_margin_db, "margin")

    @property
    def full(self) -> bool:
        return len(self.window) == self.n_window

    def push(self, snr_meas_db: float) -> None:
        self.window.append(float(snr_meas_db))
        del self.window[:-self.n_window]


def predict_snr(state: PredictorState) -> float:
    """Moving average of the last N measured SNRs minus the margin (dB)."""
    if not state.full:
        raise ValueError(
            f"predictor window holds {len(state.window)}/{state.n_window} values")
    return float(np.mean(state.window)) - state.snr_margin_db


@dataclass(frozen=True)
class IterationRecord:
    """One scheme's outcome at one trace sample.

    Out-of-service iterations (air = 0) carry ngmi = 0.0 by convention:
    no payload exists to score, and the convention keeps the invariant
    in_service == (ngmi >= threshold) exact. A waveform-mode iteration whose
    rx_chain raises a StageError is an outage too: it keeps its attempted
    entropy, air and rate, with ngmi = 0.0 and the QPSK probe's SNR.
    snr_est_db is NaN while the predictor window is still filling and for
    the fixed schemes; every other float is finite, n an int and in_service
    a bool. air (2 * entropy_bits) and rate_bps (net_bit_rate of air, which
    refuses an AIR outside the rate plan) are derived, and entropy_bits is 0
    or a grid step at or above the shaping floor.
    """

    n: int
    t_s: float
    scheme: str
    weather: str
    snr_true_db: float
    snr_meas_db: float
    snr_est_db: float
    entropy_bits: float
    air: float = field(init=False)
    rate_bps: float = field(init=False)
    ngmi: float
    in_service: bool

    def __post_init__(self):
        _integer(self.n, "n")
        for name in _FLOATS:
            v = getattr(self, name)
            if name != "snr_est_db" or v == v:  # NaN: no estimate, by convention
                _real(v, name)
        if type(self.in_service) is not bool:
            raise ValueError(f"in_service must be a bool, got {self.in_service!r}")
        object.__setattr__(self, "air", 2.0 * self.entropy_bits)
        object.__setattr__(self, "rate_bps", net_bit_rate(self.air))
        steps = round(self.entropy_bits / ENTROPY_STEP_BITS)  # the step the link sends
        if self.entropy_bits != steps * ENTROPY_STEP_BITS or 0 < steps < FLOOR_STEP:
            raise ValueError("entropy_bits must be 0 or a grid step at or above the "
                             f"shaping floor, got {self.entropy_bits!r}")


# records.csv holds one column per IterationRecord field, in field order;
# load_records parses each column by its field's annotation, the record
# refuses every non-finite float but the NaN-by-convention snr_est_db, and
# the _DERIVED cells must be those the record derives
RECORD_COLUMNS = tuple(f.name for f in fields(IterationRecord))
_FLOATS = tuple(f.name for f in fields(IterationRecord) if f.type == "float" and f.init)
_PARSE = {"int": int, "float": float, "str": str,
          "bool": {"true": True, "false": False}.__getitem__}
_COLUMN_PARSERS = tuple(_PARSE[f.type] for f in fields(IterationRecord))
_DERIVED = slice(RECORD_COLUMNS.index("air"), RECORD_COLUMNS.index("rate_bps") + 1)


@dataclass(frozen=True)
class CampaignReport:
    """Per-scheme service statistics plus accumulated-capacity gain curves
    of the adaptive scheme over each other scheme."""

    schemes: tuple
    n_iterations: int
    sampling_period_s: float
    mean_effective_rate_bps: dict
    outage_fraction: dict
    delivered_bytes: dict
    gain_vs_fixed_bytes: dict  # other scheme -> cumulative gain time series


_PROBE_DIST = mb_distribution(0.0, ConstellationTemplate.square_qam(4))


def _fixed(rate_bps: float):
    """The rule of a fixed scheme: the exact entropy its target rate implies,
    with no estimate."""
    entropy = air_for_rate(rate_bps) / 2.0
    return lambda state, table: (entropy, math.nan)


def _adaptive(state: PredictorState, table: AirTable):
    """The rule of the adaptive scheme: airlut.select_rate's entropy for its
    prediction, and fixed400's entropy while its window fills."""
    if not state.full:
        return _RULES["fixed400"](state, table)
    snr_est = predict_snr(state)
    return select_rate(table, snr_est), snr_est


# Each scheme's rule maps its own PredictorState and the AIR table to
# (entropy bits/pol, snr_est_db). A scheme's place here is its seed index,
# so a new scheme goes at the end.
_RULES = {"fixed400": _fixed(400e9), "fixed500": _fixed(500e9),
          "adaptive": _adaptive}
SCHEMES = tuple(_RULES)


def _probe(snr_db: float, n_symbols: int, key) -> MetricReport:
    """Nothing to score: a uniform-QPSK probe keeps the measured-SNR stream,
    and with it the predictor, running. NGMI is 0 by convention."""
    return replace(awgn_link_metrics(_PROBE_DIST, snr_db, n_symbols, key), ngmi=0.0)


def _measure_waveform(dist: ShapedDistribution, snr_db: float,
                      n_symbols: int, key) -> MetricReport:
    from .dsprx import EqualizerConfig, StageError, rx_chain, simulate_block

    cfg = EqualizerConfig()
    frame, rx = simulate_block(dist, snr_db, ImpairmentConfig(), cfg, seed=key)
    try:
        return rx_chain(rx, frame, cfg).report
    except StageError:  # a failed DSP block is an outage
        return _probe(snr_db, n_symbols, key)


def run_campaign(trace: SnrTrace, schemes, table: AirTable,
                 mode: str = "analytic", seed: int = 0,
                 n_window: int = PredictorState.n_window,
                 snr_margin_db: float = PredictorState.snr_margin_db,
                 mc_symbols: int = MCConfig.mc_symbols) -> list:
    """Replay the trace for each scheme and return one IterationRecord per
    (iteration, scheme), iteration-major.

    Each scheme has its own PredictorState(n_window, snr_margin_db), fed
    with its own measured SNRs, and its rule in _RULES picks the entropy
    from that state and the table. Out-of-service iterations still measure
    SNR (uniform-QPSK probe) so the predictor keeps running.
    Waveform mode runs one unimpaired 2e5-sample block per iteration
    through simulate_block and rx_chain, whatever mc_symbols says; its
    probes still draw mc_symbols symbols, so both modes check it first.
    One key (seed, iteration, the scheme's index in SCHEMES) seeds whichever
    measurement runs: the record list is bit-identical across runs, schemes
    never share noise, and a scheme's records do not depend on its companions.
    """
    measure = {"analytic": awgn_link_metrics, "waveform": _measure_waveform}.get(mode)
    if measure is None:
        raise ValueError(f"unknown mode {mode!r}")
    schemes = tuple(schemes)
    if not schemes:
        raise ValueError("no schemes requested")
    for s in schemes:
        if s not in SCHEMES:
            raise ValueError(f"unknown scheme {s!r}; choose from {SCHEMES}")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"a scheme is requested twice: {schemes}")
    MCConfig(mc_symbols=mc_symbols)  # refuses a bad batch before iteration 0
    _seed(seed)
    predictors = {s: PredictorState(n_window, snr_margin_db) for s in schemes}

    records = []
    for n in range(len(trace)):
        snr_true = float(trace.snr_db[n])
        for scheme in schemes:
            key = [seed, n, SCHEMES.index(scheme)]
            predictor = predictors[scheme]
            entropy, snr_est = _RULES[scheme](predictor, table)

            if entropy:
                # the record checks that entropy lies on the grid, so this is its step
                dist = grid_distribution(round(entropy / ENTROPY_STEP_BITS))
                rep = measure(dist, snr_true, mc_symbols, key)
            else:
                rep = _probe(snr_true, mc_symbols, key)
            predictor.push(rep.snr_db)

            records.append(IterationRecord(
                n=n, t_s=float(trace.t_s[n]), scheme=scheme,
                weather=trace.weather[n], snr_true_db=snr_true,
                snr_meas_db=float(rep.snr_db), snr_est_db=float(snr_est),
                entropy_bits=float(entropy), ngmi=float(rep.ngmi),
                in_service=bool(rep.ngmi >= table.ngmi_th),
            ))
    return records


def _by_scheme(records) -> tuple:
    """Group records by scheme, in order of first appearance, and return the
    groups with the SnrTrace the campaign replayed. There must be records of
    known schemes, each scheme's iterations must increase, every scheme must
    carry the same n, t_s, snr_true_db and weather, and those columns must
    form a trace."""
    if not records:
        raise ValueError("no records")
    out: dict = {}
    for r in records:
        if r.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {r.scheme!r}; choose from {SCHEMES}")
        rows = out.setdefault(r.scheme, [])
        if rows and r.n <= rows[-1].n:
            raise ValueError(f"scheme {r.scheme!r}: iteration {r.n} follows "
                             f"{rows[-1].n}; iterations must increase")
        rows.append(r)
    (first, base), *others = out.items()

    def replayed(rows):
        return [(r.n, r.t_s, r.snr_true_db, r.weather) for r in rows]

    columns = replayed(base)
    _, t_s, snr_db, weather = zip(*columns)
    trace = SnrTrace(t_s, snr_db, weather)
    for scheme, rows in others:
        if replayed(rows) != columns:
            raise ValueError(f"scheme {scheme!r} replays another trace than "
                             f"{first!r}: n, t_s, snr_true_db or weather differ")
    return out, trace


def accumulate_report(records) -> CampaignReport:
    """Reduce a campaign's records to service statistics.

    Effective rate zero-rates outage iterations (discarded data); delivered
    capacity integrates in-service bits over the sampling period of the
    trace the records replayed (see _by_scheme).
    """
    return _accumulate(*_by_scheme(records))


def _accumulate(groups: dict, trace: SnrTrace) -> CampaignReport:
    """accumulate_report of the records that _by_scheme grouped."""
    schemes = tuple(groups)

    mean_rate, outage, delivered, cumulative = {}, {}, {}, {}
    for scheme, rows in groups.items():
        eff = np.array([r.rate_bps if r.in_service else 0.0 for r in rows])
        mean_rate[scheme] = float(eff.mean())
        outage[scheme] = float(np.mean([not r.in_service for r in rows]))
        per_iter_bytes = eff * trace.sampling_period_s / 8.0
        cumulative[scheme] = np.cumsum(per_iter_bytes)
        delivered[scheme] = float(cumulative[scheme][-1])

    gains = {s: cumulative["adaptive"] - cumulative[s] for s in schemes
             if "adaptive" in groups and s != "adaptive"}

    return CampaignReport(
        schemes=schemes, n_iterations=len(trace),
        sampling_period_s=trace.sampling_period_s,
        mean_effective_rate_bps=mean_rate, outage_fraction=outage,
        delivered_bytes=delivered, gain_vs_fixed_bytes=gains,
    )


def emit_report(records, out_dir) -> CampaignReport:
    """Report a campaign from its records alone: accumulate_report, then
    write records.csv, summary.json and all four panel CSV files, so a rerun
    leaves none stale, into out_dir (created if missing) and return the
    report; records that _by_scheme refuses are rejected first."""
    groups, trace = _by_scheme(records)
    report = _accumulate(groups, trace)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise OSError(f"cannot create report directory {out}: {e}") from e

    _write_csv(out / "records.csv", RECORD_COLUMNS,
               ([getattr(r, c) for c in RECORD_COLUMNS] for r in records))

    _write_json(out / "summary.json", asdict(report))

    def panel(name: str, columns: dict) -> None:
        _write_csv(out / name, ["t_s", *columns],
                   zip(trace.t_s, *columns.values()))

    snr_cols = {"snr_true_db": trace.snr_db}
    for s, rows in groups.items():
        snr_cols[f"snr_meas_db_{s}"] = [r.snr_meas_db for r in rows]
    panel("snr_vs_t.csv", snr_cols)
    for name, col in (("ngmi_vs_t.csv", "ngmi"), ("rate_vs_t.csv", "rate_bps")):
        panel(name, {f"{col}_{s}": [getattr(r, col) for r in rows]
                     for s, rows in groups.items()})
    panel("gain_vs_t.csv", {f"gain_bytes_vs_{s}": v
                            for s, v in report.gain_vs_fixed_bytes.items()})
    return report


def load_records(path) -> list:
    """Parse a records.csv written by emit_report back into records. Each
    row's air and rate_bps must be those its record derives from its
    entropy_bits, and the records must pass emit_report's checks (see
    _by_scheme)."""
    records = []
    for line, values in _read_csv(path, RECORD_COLUMNS, _COLUMN_PARSERS):
        cells = values[_DERIVED]
        del values[_DERIVED]
        try:
            r = IterationRecord(*values)
            if [r.air, r.rate_bps] != cells:
                raise ValueError(f"air and rate_bps must be {r.air!r} and "
                                 f"{r.rate_bps!r}, those of entropy_bits "
                                 f"{r.entropy_bits!r}")
        except ValueError as e:
            raise ValueError(f"{path}:{line}: {e}") from None
        records.append(r)
    try:
        _by_scheme(records)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    return records
