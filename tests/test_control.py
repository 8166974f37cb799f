"""SNR predictor, rate selection, campaign runner, outage accounting, and
report serialization."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from fsolink import control
from fsolink.airlut import AirTable, net_bit_rate, select_rate
from fsolink.channel import CLEAR, RAIN, RainModelConfig, SnrTrace, gen_trace
from fsolink.control import (
    SCHEMES,
    CampaignReport,
    IterationRecord,
    PredictorState,
    accumulate_report,
    emit_report,
    load_records,
    predict_snr,
    run_campaign,
)
from fsolink.metrics import awgn_link_metrics
from fsolink.shaping import ENTROPY_STEP_BITS


def _const_trace(snr_db, n, weather=CLEAR):
    return SnrTrace(t_s=25.0 * np.arange(n), snr_db=np.full(n, float(snr_db)),
                    weather=(weather,) * n)


def _toy_table():
    # Hand-built monotone map used where MC realism is irrelevant.
    return AirTable(snr_db=np.array([0.0, 5.0, 10.0, 15.0, 20.0]),
                    air=np.array([0.0, 4.0, 8.0, 10.0, 12.0]),
                    ngmi_th=0.9, M=64, mc_symbols=1000, seed=0)


def _record(**kw):
    base = dict(n=0, t_s=0.0, scheme="adaptive", weather=CLEAR,
                snr_true_db=15.0, snr_meas_db=15.0, snr_est_db=13.0,
                entropy_bits=5.0, ngmi=0.95, in_service=True)
    base.update(kw)
    return IterationRecord(**base)


# --------------------------------------------------------------- predictor

def test_predictor_moving_average_example():
    state = PredictorState(n_window=3, snr_margin_db=2.0)
    for v in (20.0, 18.0, 16.0):
        state.push(v)
    assert predict_snr(state) == pytest.approx(16.0, abs=1e-12)


def test_predictor_constant_history():
    state = PredictorState(n_window=4, snr_margin_db=1.5)
    for _ in range(4):
        state.push(12.0)
    assert predict_snr(state) == pytest.approx(10.5, abs=1e-12)


def test_predictor_single_tap_degenerate():
    state = PredictorState(n_window=1, snr_margin_db=2.0)
    state.push(9.0)
    assert predict_snr(state) == pytest.approx(7.0, abs=1e-12)
    state.push(19.0)  # window slides
    assert predict_snr(state) == pytest.approx(17.0, abs=1e-12)


def test_predictor_defaults_match_tuning():
    state = PredictorState()
    assert state.n_window == 3
    assert state.snr_margin_db == 2.0


def test_predictor_requires_full_window():
    state = PredictorState(n_window=3)
    state.push(10.0)
    with pytest.raises(ValueError):
        predict_snr(state)


def test_predictor_window_never_exceeds_n():
    state = PredictorState(n_window=2)
    for v in range(10):
        state.push(float(v))
    assert state.window == [8.0, 9.0]


def test_predictor_shift_linearity():
    rng = np.random.default_rng(3)
    hist = rng.uniform(5, 25, size=3)
    a = PredictorState(n_window=3, snr_margin_db=2.0)
    b = PredictorState(n_window=3, snr_margin_db=2.0)
    for v in hist:
        a.push(float(v))
        b.push(float(v) + 7.25)
    assert predict_snr(b) == pytest.approx(predict_snr(a) + 7.25, abs=1e-9)


def test_predictor_validation():
    with pytest.raises(ValueError):
        PredictorState(n_window=0)
    with pytest.raises(ValueError):
        PredictorState(snr_margin_db=math.inf)
    for n_window in (True, 2.5, math.nan):  # True had run a 1-window predictor
        with pytest.raises(ValueError, match="n_window must be an integer"):
            PredictorState(n_window=n_window)


# ------------------------------------------------------------- rate select

def test_select_rate_saturated_table_point():
    table = _toy_table()
    h = select_rate(table, 20.0)
    assert type(h) is float and h == 6.0


def test_select_rate_out_of_service_floor():
    table = _toy_table()
    assert select_rate(table, 0.0) == 0.0
    # Interpolated AIR below the 2-bit/pol shaping floor collapses to 0 too.
    assert select_rate(table, 2.0) == 0.0


def test_select_rate_direct_product():
    # AIR 9.3 sits between grid points: entropy 4.65 bits/pol, on its own
    # grid step.
    table = _toy_table()
    snr = 10.0 + 5.0 * (9.3 - 8.0) / 2.0  # interpolate inside [10, 15]
    h = select_rate(table, snr)
    assert h == 465 * ENTROPY_STEP_BITS
    assert h == pytest.approx(4.65, abs=1e-12)


def test_select_rate_floors_to_the_entropy_grid():
    # Off-grid AIR 9.47 transmits the 4.73-bit distribution, never more
    # than the table allows; the campaign records carry its AIR and rate.
    table = _toy_table()
    snr = 10.0 + 5.0 * (9.47 - 8.0) / 2.0
    h = select_rate(table, snr)
    assert h == 473 * ENTROPY_STEP_BITS
    assert h == pytest.approx(4.73, abs=1e-12)


def test_select_rate_margin_monotonicity():
    table = _toy_table()
    hist = [14.0, 15.0, 16.0]
    entropies = []
    for margin in (0.0, 1.0, 2.0, 4.0):
        state = PredictorState(n_window=3, snr_margin_db=margin)
        for v in hist:
            state.push(v)
        entropies.append(select_rate(table, predict_snr(state)))
    assert all(a >= b for a, b in zip(entropies[:-1], entropies[1:]))


# ---------------------------------------------------------------- campaign

def test_campaign_high_snr_converges_to_max_rate(coarse_table):
    trace = _const_trace(30.0, 6)
    records = run_campaign(trace, SCHEMES, coarse_table, seed=1,
                           mc_symbols=20_000)
    assert len(records) == 18
    by_scheme = {s: [r for r in records if r.scheme == s] for s in SCHEMES}
    # Warm-up: first three adaptive iterations ride the safe 400G entropy.
    for r in by_scheme["adaptive"][:3]:
        assert (r.entropy_bits, r.air, r.rate_bps) == (4.0, 8.0, 400e9)
        assert math.isnan(r.snr_est_db)
    for r in by_scheme["adaptive"][3:]:
        assert r.snr_est_db == pytest.approx(28.0, abs=0.2)
        assert (r.entropy_bits, r.air, r.rate_bps) == (6.0, 12.0, 600e9)
    for s in SCHEMES:
        assert all(r.in_service for r in by_scheme[s])
        assert all(r.ngmi >= 0.9 for r in by_scheme[s])


def test_campaign_threshold_bracketing(coarse_table):
    # 11.5 dB: comfortably above the 400G service threshold, comfortably
    # below the 500G one.
    trace = _const_trace(11.5, 5)
    records = run_campaign(trace, ("fixed400", "fixed500"), coarse_table,
                           seed=2, mc_symbols=20_000)
    f400 = [r for r in records if r.scheme == "fixed400"]
    f500 = [r for r in records if r.scheme == "fixed500"]
    assert all(r.in_service for r in f400)
    assert not any(r.in_service for r in f500)
    # Fixed schemes transmit at their exact configured entropy throughout.
    assert all(r.entropy_bits == 4.0 and r.rate_bps == 400e9 for r in f400)
    assert all(r.entropy_bits == 5.0 and r.rate_bps == 500e9 for r in f500)
    assert all(math.isnan(r.snr_est_db) for r in f400 + f500)


def test_campaign_deterministic_bit_identical(coarse_table):
    trace = _const_trace(14.0, 4)
    a = run_campaign(trace, SCHEMES, coarse_table, seed=5, mc_symbols=10_000)
    b = run_campaign(trace, SCHEMES, coarse_table, seed=5, mc_symbols=10_000)
    for ra, rb in zip(a, b):
        for col in ("n", "t_s", "scheme", "weather", "snr_true_db",
                    "snr_meas_db", "entropy_bits", "air", "rate_bps", "ngmi",
                    "in_service"):
            assert getattr(ra, col) == getattr(rb, col)
        assert math.isnan(ra.snr_est_db) == math.isnan(rb.snr_est_db)
        if not math.isnan(ra.snr_est_db):
            assert ra.snr_est_db == rb.snr_est_db


def test_campaign_outage_convention(coarse_table):
    # At -5 dB even the lowest entropy fails: probe iterations record
    # ngmi = 0, zero air/rate, and stay out of service, but still measure SNR.
    trace = _const_trace(-5.0, 5)
    records = run_campaign(trace, ("adaptive",), coarse_table, seed=3,
                           mc_symbols=10_000)
    post_warmup = records[3:]
    for r in post_warmup:
        assert (r.entropy_bits, r.air, r.rate_bps) == (0.0, 0.0, 0.0)
        assert r.ngmi == 0.0
        assert not r.in_service
        assert math.isfinite(r.snr_meas_db)


def test_campaign_in_service_iff_ngmi_above_threshold(coarse_table):
    trace = _const_trace(13.0, 6)
    records = run_campaign(trace, SCHEMES, coarse_table, seed=7,
                           mc_symbols=10_000)
    for r in records:
        assert r.in_service == (r.ngmi >= coarse_table.ngmi_th)


def test_campaign_adaptive_stationarity(coarse_table):
    trace = _const_trace(16.0, 10)
    records = run_campaign(trace, ("adaptive",), coarse_table, seed=11,
                           mc_symbols=20_000)
    post = records[3:]
    rates = np.array([r.rate_bps for r in post])
    assert np.ptp(rates) / rates.mean() < 0.01  # constant up to MC jitter
    assert all(r.ngmi >= 0.9 - 0.01 for r in post)
    assert all(r.in_service for r in post)


def test_campaign_rain_response(coarse_table):
    cfg = RainModelConfig(clear_mean_db=15.5, clear_std_db=0.2,
                          rain_mean_drop_db=3.5, rain_std_db=0.4, ar1_rho=0.5,
                          rain_intervals=((300.0, 700.0),), seed=21)
    trace = gen_trace(cfg, 1000.0)
    records = run_campaign(trace, ("fixed500", "adaptive"), coarse_table,
                           seed=13, mc_symbols=20_000)
    rain = {r.weather == RAIN for r in records}
    assert rain == {True, False}  # both regimes present

    adaptive = [r for r in records if r.scheme == "adaptive"][3:]
    ad_rain = [r.rate_bps for r in adaptive if r.weather == RAIN]
    ad_clear = [r.rate_bps for r in adaptive if r.weather == CLEAR]
    assert np.mean(ad_rain) < np.mean(ad_clear)

    f500 = [r for r in records if r.scheme == "fixed500"]
    out_rain = np.mean([not r.in_service for r in f500 if r.weather == RAIN])
    out_clear = np.mean([not r.in_service for r in f500 if r.weather == CLEAR])
    assert out_rain > out_clear


@pytest.mark.parametrize("mode", ["analytic", "waveform"])
def test_campaign_records_the_transmitted_entropy(monkeypatch, mode):
    # A 9 -> 10 AIR ramp puts most predictions between grid steps.
    table = AirTable(snr_db=np.array([10.0, 20.0]), air=np.array([9.0, 10.0]),
                     ngmi_th=0.9, M=64, mc_symbols=1000, seed=0)
    n = 12
    trace = SnrTrace(t_s=25.0 * np.arange(n), snr_db=np.linspace(14.0, 19.0, n),
                     weather=(CLEAR,) * n)
    sent = []

    def spy(dist, *args):
        # both measurements take awgn_link_metrics' arguments, so the
        # waveform one can hand its call to the fast analytic one
        sent.append(dist)
        return awgn_link_metrics(dist, *args)

    monkeypatch.setattr(control, {"analytic": "awgn_link_metrics",
                                  "waveform": "_measure_waveform"}[mode], spy)
    records = run_campaign(trace, SCHEMES, table, mode=mode, seed=4,
                           mc_symbols=2000)
    assert len(sent) == len(records)
    for r, dist in zip(records, sent):
        assert r.air == 2.0 * r.entropy_bits
        assert r.rate_bps == net_bit_rate(r.air)
        assert dist.entropy_bits == pytest.approx(r.entropy_bits, abs=1e-8)
        if r.scheme == "adaptive" and not math.isnan(r.snr_est_db):
            assert r.entropy_bits == select_rate(table, r.snr_est_db)
    # the ramp did put predictions between grid steps
    assert any(np.interp(r.snr_est_db, table.snr_db, table.air) != r.air
               for r in records
               if r.scheme == "adaptive" and not math.isnan(r.snr_est_db))


def _assert_failed_blocks_are_outages(monkeypatch, name, fail):
    """Run a waveform campaign with dsprx.<name> replaced by fail and check
    that every block is an outage, not an abort."""
    from fsolink import dsprx

    monkeypatch.setattr(dsprx, name, fail)
    trace = _const_trace(20.0, 2)
    records = run_campaign(trace, ("fixed400", "adaptive"), _toy_table(),
                           mode="waveform", seed=2, n_window=1,
                           mc_symbols=2000)
    assert len(records) == 4
    for r in records:
        key = [2, r.n, SCHEMES.index(r.scheme)]
        probe_snr = awgn_link_metrics(control._PROBE_DIST, 20.0, 2000, key).snr_db
        assert r.ngmi == 0.0 and not r.in_service
        assert r.entropy_bits > 0.0 and r.air == 2.0 * r.entropy_bits
        assert r.snr_meas_db == probe_snr
    # the predictor kept running on the probe's SNR
    assert not math.isnan(records[-1].snr_est_db)


def test_failed_dsp_block_is_an_outage_not_an_abort(monkeypatch):
    from fsolink import dsprx

    def diverge(rx, frame, cfg):
        raise dsprx.EqualizerDiverged("lms", "output power inf exceeds 10",
                                      np.zeros((2, 2, 3)))

    _assert_failed_blocks_are_outages(monkeypatch, "rx_chain", diverge)


def test_a_stage_failing_with_another_error_is_an_outage_too(monkeypatch):
    # rx_chain's guard turns the stage's ValueError into a StageError
    def zero_power(*args):
        raise ValueError("zero-power in-phase rail")

    _assert_failed_blocks_are_outages(monkeypatch, "gram_schmidt", zero_power)


def test_campaign_scheme_records_do_not_depend_on_companions():
    trace = SnrTrace(t_s=25.0 * np.arange(10), snr_db=np.linspace(9.0, 17.0, 10),
                     weather=(CLEAR,) * 10)

    def adaptive_rows(schemes):
        records = run_campaign(trace, schemes, _toy_table(), seed=6,
                               mc_symbols=2000)
        return [repr(dataclasses.astuple(r)) for r in records
                if r.scheme == "adaptive"]

    assert adaptive_rows(SCHEMES) == adaptive_rows(("adaptive",))
    assert adaptive_rows(("adaptive", "fixed500")) == adaptive_rows(("adaptive",))


def test_an_appended_scheme_keeps_its_own_state(monkeypatch):
    # a second adaptive rule that shared the first's predictor would push
    # its own measurements into it and move the first's records
    trace = SnrTrace(t_s=25.0 * np.arange(10), snr_db=np.linspace(9.0, 17.0, 10),
                     weather=(CLEAR,) * 10)

    def rows():
        return [repr(dataclasses.astuple(r)) for r in
                run_campaign(trace, control.SCHEMES, _toy_table(), seed=6,
                             mc_symbols=2000)]

    alone = rows()
    monkeypatch.setitem(control._RULES, "adaptive2", control._adaptive)
    monkeypatch.setattr(control, "SCHEMES", (*SCHEMES, "adaptive2"))
    together = rows()
    assert [r for r in together if "'adaptive2'" not in r] == alone
    assert sum("'adaptive2'" in r for r in together) == len(trace)


def test_an_off_grid_rule_is_refused(monkeypatch):
    # the link sends the 4.57-bit distribution, so a record of 4.567 bits
    # would claim a rate that nothing transmitted
    monkeypatch.setitem(control._RULES, "fixed400", lambda state, table: (4.567, math.nan))
    with pytest.raises(ValueError, match="entropy_bits must be 0 or a grid step"):
        run_campaign(_const_trace(16.0, 2), ("fixed400",), _toy_table(), mc_symbols=2000)


def test_campaign_margin_monotone_on_a_constant_trace(coarse_table):
    # A smaller margin can only help on a constant trace.
    trace = _const_trace(16.0, 6)

    def mean_rate(margin):
        records = run_campaign(trace, ("adaptive",), coarse_table, seed=19,
                               snr_margin_db=margin, mc_symbols=5_000)
        report = accumulate_report(records)
        return report.mean_effective_rate_bps["adaptive"]

    assert mean_rate(1.0) >= mean_rate(2.0)


def test_campaign_validation(coarse_table):
    trace = _const_trace(15.0, 3)
    with pytest.raises(ValueError, match="mode"):
        run_campaign(trace, SCHEMES, coarse_table, mode="hardware")
    with pytest.raises(ValueError, match="scheme"):
        run_campaign(trace, ("fixed600",), coarse_table)
    with pytest.raises(ValueError, match="scheme"):
        run_campaign(trace, (), coarse_table)
    with pytest.raises(ValueError, match="scheme"):
        run_campaign(trace, ("adaptive", "adaptive"), coarse_table)
    # a table of another constellation cannot reach run_campaign
    with pytest.raises(ValueError, match="^AIR table M must be 64, got 4$"):
        AirTable(snr_db=np.array([0.0, 10.0]), air=np.array([0.0, 4.0]),
                 ngmi_th=0.9, M=4, mc_symbols=100, seed=0)


@pytest.mark.parametrize("mc_symbols", [0, True])
def test_waveform_campaign_refuses_a_bad_batch_before_any_block(monkeypatch,
                                                              mc_symbols):
    from fsolink import dsprx

    def spy(*args, **kw):
        raise AssertionError("simulate_block ran")

    monkeypatch.setattr(dsprx, "simulate_block", spy)
    with pytest.raises(ValueError, match="mc_symbols|symbol count"):
        run_campaign(_const_trace(2.0, 3), SCHEMES, _toy_table(),
                     mode="waveform", mc_symbols=mc_symbols)


# ---------------------------------------------------------------- records

def test_record_derives_air_and_rate_from_its_entropy():
    for entropy in (0.0, 2.0, 4.73, 5.0, 6.0):
        r = _record(entropy_bits=entropy)
        assert r.air == 2 * entropy
        assert r.rate_bps == net_bit_rate(r.air)
    for derived in ({"air": 10.0}, {"rate_bps": 500e9}):
        with pytest.raises(TypeError):
            _record(**derived)
    with pytest.raises(ValueError, match=r"AIR 14\.0 outside"):
        _record(entropy_bits=7.0)
    for entropy in (4.567, 1.0):  # off the grid, below the shaping floor
        with pytest.raises(ValueError, match=rf"^entropy_bits must be 0 or a grid "
                                             rf"step .*, got {entropy}$"):
            _record(entropy_bits=entropy)


# -------------------------------------------------------------- accounting

def test_accumulate_constant_rate_delivery():
    records = [_record(n=i, t_s=25.0 * i) for i in range(4)]
    rep = accumulate_report(records)
    assert rep.mean_effective_rate_bps["adaptive"] == 500e9
    assert rep.outage_fraction["adaptive"] == 0.0
    assert rep.delivered_bytes["adaptive"] == 4 * 500e9 * 25.0 / 8.0
    assert rep.n_iterations == 4


def test_accumulate_always_out_of_service():
    records = [_record(n=i, t_s=25.0 * i, scheme="fixed500", ngmi=0.2,
                       in_service=False) for i in range(3)]
    rep = accumulate_report(records)
    assert rep.mean_effective_rate_bps["fixed500"] == 0.0
    assert rep.outage_fraction["fixed500"] == 1.0
    assert rep.delivered_bytes["fixed500"] == 0.0


def test_accumulate_gain_curve_monotone_when_adaptive_faster():
    records = []
    for i in range(5):
        records.append(_record(n=i, t_s=25.0 * i, scheme="adaptive"))
        records.append(_record(n=i, t_s=25.0 * i, scheme="fixed400",
                               entropy_bits=4.0))
    rep = accumulate_report(records)
    gain = rep.gain_vs_fixed_bytes["fixed400"]
    assert np.all(np.diff(gain) > 0)
    assert gain[-1] == 5 * (500e9 - 400e9) * 25.0 / 8.0


def test_accumulate_rejects_empty():
    with pytest.raises(ValueError):
        accumulate_report([])


def test_emit_report_rejects_empty_records_before_any_output(tmp_path):
    with pytest.raises(ValueError, match="no records"):
        emit_report([], tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_uneven_records_rejected_before_any_output(tmp_path):
    records = []
    for i in range(4):
        records.append(_record(n=i, t_s=25.0 * i, scheme="fixed400",
                               entropy_bits=4.0))
        records.append(_record(n=i, t_s=25.0 * i, scheme="adaptive"))
    uneven = records[:-1]  # adaptive loses its last row
    with pytest.raises(ValueError, match="'adaptive'.*'fixed400'"):
        accumulate_report(uneven)
    with pytest.raises(ValueError, match="'adaptive'.*'fixed400'"):
        emit_report(uneven, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scheme, iterations, message", [
    ("bogus", (0, 1, 2), "unknown scheme 'bogus'"),
    ("adaptive", (0, 1, 1), "iteration 1 follows 1"),
    ("adaptive", (0, 2, 1), "iteration 1 follows 2"),
])
def test_bad_schemes_and_iterations_rejected_before_any_output(
        tmp_path, scheme, iterations, message):
    records = [_record(n=i, t_s=25.0 * i, scheme=scheme) for i in iterations]
    with pytest.raises(ValueError, match=message):
        accumulate_report(records)
    with pytest.raises(ValueError, match=message):
        emit_report(records, tmp_path)
    assert list(tmp_path.iterdir()) == []


def _on_adaptive(changes):
    return lambda r: changes if r.scheme == "adaptive" else {}


@pytest.mark.parametrize("changes, message", [
    pytest.param(lambda r: {"t_s": r.t_s + 1000.0} if r.n >= 2 else {},
                 "timestamps must increase by the sampling period",
                 id="spacing-breaks-at-2"),
    pytest.param(lambda r: {"t_s": 2.0 * r.t_s} if r.scheme == "adaptive" else {},
                 "'adaptive' replays another trace than 'fixed400'", id="t_s"),
    pytest.param(_on_adaptive({"weather": RAIN}),
                 "'adaptive' replays another trace than 'fixed400'", id="weather"),
    pytest.param(_on_adaptive({"snr_true_db": 14.0}),
                 "'adaptive' replays another trace than 'fixed400'",
                 id="snr_true_db"),
    pytest.param(lambda r: {"weather": "sunny"},
                 "weather labels must be 'clear' or 'rain'", id="sunny"),
])
def test_records_of_no_one_trace_rejected_before_any_output(tmp_path, changes,
                                                            message):
    # changes(record) gives the fields to change in that record
    records = [_record(n=i, t_s=25.0 * i, scheme=s,
                       entropy_bits={"fixed400": 4.0}.get(s, 5.0))
               for i in range(4) for s in ("fixed400", "adaptive")]
    records = [dataclasses.replace(r, **changes(r)) for r in records]
    with pytest.raises(ValueError, match=message):
        accumulate_report(records)
    with pytest.raises(ValueError, match=message):
        emit_report(records, tmp_path)
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------ report files

def _nan_safe(rec):
    vals = []
    for col in ("n", "t_s", "scheme", "weather", "snr_true_db", "snr_meas_db",
                "snr_est_db", "entropy_bits", "air", "rate_bps", "ngmi",
                "in_service"):
        v = getattr(rec, col)
        vals.append("nan" if isinstance(v, float) and math.isnan(v) else v)
    return tuple(vals)


def test_emit_report_round_trip(tmp_path, coarse_table):
    trace = _const_trace(14.0, 4)
    records = run_campaign(trace, SCHEMES, coarse_table, seed=17,
                           mc_symbols=10_000)
    out = tmp_path / "results"
    rep = emit_report(records, out)
    assert rep.sampling_period_s == 25.0

    for name in ("records.csv", "summary.json", "snr_vs_t.csv",
                 "ngmi_vs_t.csv", "rate_vs_t.csv", "gain_vs_t.csv"):
        assert (out / name).exists(), name

    back = load_records(out / "records.csv")
    assert [_nan_safe(r) for r in back] == [_nan_safe(r) for r in records]

    doc = json.loads((out / "summary.json").read_text())
    for s in SCHEMES:
        assert doc["mean_effective_rate_bps"][s] == rep.mean_effective_rate_bps[s]
        assert doc["outage_fraction"][s] == rep.outage_fraction[s]
        assert doc["delivered_bytes"][s] == rep.delivered_bytes[s]


def test_emit_report_groups_the_records_once(monkeypatch, tmp_path, coarse_table):
    records = run_campaign(_const_trace(14.0, 4), SCHEMES, coarse_table,
                           seed=17, mc_symbols=10_000)
    by_scheme, calls = control._by_scheme, []

    def spy(records):
        calls.append(len(records))
        return by_scheme(records)

    monkeypatch.setattr(control, "_by_scheme", spy)
    reports = [emit_report(records, tmp_path)]
    assert calls == [len(records)]
    reports.append(accumulate_report(records))
    assert calls == [len(records)] * 2
    a, b = (json.dumps(dataclasses.asdict(r), default=np.ndarray.tolist)
            for r in reports)
    assert a == b


def test_panel_cells_are_plain_floats(tmp_path, coarse_table):
    records = run_campaign(_const_trace(14.0, 4), SCHEMES, coarse_table,
                           seed=17, mc_symbols=10_000)
    emit_report(records, tmp_path)
    for name in ("snr_vs_t.csv", "ngmi_vs_t.csv", "rate_vs_t.csv",
                 "gain_vs_t.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 5, name
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)


def test_summary_json_holds_every_report_field(tmp_path):
    records = [_record(n=i, t_s=25.0 * i, scheme=s,
                       entropy_bits={"fixed400": 4.0}.get(s, 5.0))
               for i in range(3) for s in SCHEMES]
    rep = emit_report(records, tmp_path)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert list(doc) == [f.name for f in dataclasses.fields(CampaignReport)]
    assert doc["schemes"] == list(SCHEMES)
    assert doc["n_iterations"] == 3
    assert doc["gain_vs_fixed_bytes"]["fixed400"] == \
        rep.gain_vs_fixed_bytes["fixed400"].tolist()


@pytest.mark.parametrize("period", [5.0, 25.0, 120.0])
def test_emit_report_reads_the_period_off_the_records(tmp_path, period):
    records = [_record(n=i, t_s=period * i, scheme=s,
                       entropy_bits={"fixed400": 4.0}.get(s, 5.0))
               for i in range(3) for s in SCHEMES]
    rep = emit_report(records, tmp_path)
    want = accumulate_report(records)
    assert rep.sampling_period_s == period
    assert rep.delivered_bytes == want.delivered_bytes
    assert json.loads((tmp_path / "summary.json").read_text())[
        "sampling_period_s"] == period


def test_emit_report_refuses_one_iteration_and_writes_nothing(tmp_path):
    # one iteration carries no period; none is assumed for it
    out = tmp_path / "results"
    with pytest.raises(ValueError, match="^a trace needs two samples to carry "
                                         "its period, got 1$"):
        emit_report([_record(t_s=7.0)], out)
    assert not out.exists()


def test_emit_report_names_a_directory_it_cannot_create(tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "results"
    with pytest.raises(OSError,
                       match=f"cannot create report directory {re.escape(str(out))}"):
        emit_report([_record(), _record(n=1, t_s=25.0)], out)


@pytest.mark.parametrize("field, value, rule", [
    ("snr_meas_db", math.nan, "a finite number"),
    ("t_s", math.inf, "a finite number"),
    ("snr_est_db", -math.inf, "a finite number"),  # NaN only, by convention
    ("ngmi", "0.95", "a finite number"),
    ("entropy_bits", True, "a finite number"),
    ("n", 1.0, "an integer"),
    ("in_service", 1, "a bool"),
])
def test_record_refuses_what_records_csv_cannot_read_back(tmp_path, field,
                                                          value, rule):
    message = f"{field} must be {rule}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        emit_report([_record(**{field: value})], tmp_path)
    assert not any(tmp_path.iterdir())


def test_record_checks_values_not_python_types(tmp_path):
    # numpy scalars that records.csv reads back make a record; a numpy bool,
    # which it would write as 1.0, does not
    r = _record(n=np.int64(2), t_s=np.float64(50.0), snr_est_db=np.float64("nan"),
                ngmi=np.float32(0.5), in_service=False)
    emit_report([_record(n=1, t_s=25.0), r], tmp_path)
    _, back = load_records(tmp_path / "records.csv")
    assert (back.n, back.t_s, back.ngmi) == (2, 50.0, 0.5)
    assert math.isnan(back.snr_est_db)
    with pytest.raises(ValueError, match="^in_service must be a bool, got "):
        _record(in_service=np.True_)


def test_records_csv_header(tmp_path):
    records = [_record(), _record(n=1, t_s=25.0)]
    emit_report(records, tmp_path)
    header = (tmp_path / "records.csv").read_text().splitlines()[0]
    assert header == ("n,t_s,scheme,weather,snr_true_db,snr_meas_db,"
                      "snr_est_db,entropy_bits,air,rate_bps,ngmi,in_service")


def test_load_records_validates(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text("bogus,header\n")
    with pytest.raises(ValueError):
        load_records(path)


@pytest.mark.parametrize("column, bad", [("snr_true_db", "x"),
                                         ("in_service", "maybe")])
def test_load_records_names_line_and_column(tmp_path, column, bad):
    records = [_record(), _record(n=1, t_s=25.0)]
    emit_report(records, tmp_path)
    path = tmp_path / "records.csv"
    header, row, second = path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index(column)] = bad
    path.write_text(f"{header}\n{','.join(cells)}\n{second}\n")
    with pytest.raises(ValueError,
                       match=rf"records\.csv:2: {column}: bad value '{bad}'"):
        load_records(path)


@pytest.mark.parametrize("changes, message", [
    ({"rate_bps": 900e9}, "air and rate_bps must be 10.0 and 500000000000.0, "
                          "those of entropy_bits 5.0"),
    ({"air": 9.0, "rate_bps": net_bit_rate(9.0)},
     "air and rate_bps must be 10.0 and 500000000000.0, "
     "those of entropy_bits 5.0"),
    ({"entropy_bits": 4.0}, "air and rate_bps must be 8.0 and 400000000000.0, "
                            "those of entropy_bits 4.0"),
    ({"entropy_bits": 7.0}, "AIR 14.0 outside"),
    ({"entropy_bits": 1.0, "air": 2.0, "rate_bps": 1e11},
     "entropy_bits must be 0 or a grid step"),
])
def test_load_records_derives_air_and_rate_from_the_entropy(tmp_path, changes,
                                                            message):
    # changes gives the cells to rewrite in the second row of records.csv
    emit_report([_record(), _record(n=1, t_s=25.0)], tmp_path)
    path = tmp_path / "records.csv"
    header, first, second = path.read_text().splitlines()
    columns, cells = header.split(","), second.split(",")
    for column, value in changes.items():
        cells[columns.index(column)] = repr(value)
    path.write_text(f"{header}\n{first}\n{','.join(cells)}\n")
    with pytest.raises(ValueError,
                       match=rf"records\.csv:3: {re.escape(message)}"):
        load_records(path)


def test_load_records_rejects_non_finite_values(tmp_path):
    records = [_record(snr_est_db=math.nan), _record(n=1, t_s=25.0)]
    emit_report(records, tmp_path)
    path = tmp_path / "records.csv"
    assert math.isnan(load_records(path)[0].snr_est_db)  # NaN by convention
    text = path.read_text()
    path.write_text(text.replace(",500000000000.0,", ",nan,"))
    with pytest.raises(ValueError,
                       match=r"records\.csv:2: air and rate_bps must be 10\.0 "
                             r"and 500000000000\.0, those of entropy_bits 5\.0$"):
        load_records(path)
    header, row, second = text.splitlines()
    cells = row.split(",")
    cells[header.split(",").index("ngmi")] = "nan"
    path.write_text(f"{header}\n{','.join(cells)}\n{second}\n")
    with pytest.raises(ValueError, match=r"records\.csv:2: ngmi must be a "
                                         r"finite number, got nan$"):
        load_records(path)


def test_load_records_refuses_an_infinite_snr_estimate(tmp_path):
    emit_report([_record(snr_est_db=math.nan), _record(n=1, t_s=25.0)], tmp_path)
    path = tmp_path / "records.csv"
    path.write_text(path.read_text().replace(",nan,", ",inf,"))
    with pytest.raises(ValueError, match=r"records\.csv:2: snr_est_db must be "
                                         r"a finite number, got inf$"):
        load_records(path)


def test_load_records_rejects_non_utf8_naming_file_and_line(tmp_path):
    records = [_record(), _record(n=1, t_s=25.0)]
    emit_report(records, tmp_path)
    path = tmp_path / "records.csv"
    path.write_bytes(path.read_bytes().replace(b"clear", b"cl\xe9ar", 1))
    with pytest.raises(ValueError,
                       match=r"records\.csv:2: not UTF-8: byte 0xe9$"):
        load_records(path)

