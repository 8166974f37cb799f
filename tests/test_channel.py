"""Synthetic SNR traces, AWGN calibration, waveform impairments, and trace
CSV round-trips."""

import math
import re

import numpy as np
import pytest

from fsolink import channel
from fsolink.channel import (
    CLEAR,
    RAIN,
    ImpairmentConfig,
    RainModelConfig,
    SnrTrace,
    apply_impairments,
    awgn_transmit,
    default_rain_config,
    full_impairments,
    gen_trace,
    load_trace,
    save_trace,
)
from fsolink.metrics import awgn_link_metrics, evm_percent, snr_from_evm
from fsolink.shaping import ConstellationTemplate, grid_distribution, mb_distribution

INTERVALS = ((2500.0, 4000.0), (7000.0, 8200.0))


def _cfg(**kw):
    base = dict(clear_mean_db=20.0, clear_std_db=0.3, rain_mean_drop_db=4.0,
                rain_std_db=0.8, ar1_rho=0.7, rain_intervals=INTERVALS, seed=0)
    base.update(kw)
    return RainModelConfig(**base)


# ------------------------------------------------------------- trace model

def test_degenerate_noise_gives_constant_trace():
    cfg = _cfg(clear_std_db=0.0, rain_std_db=0.0, rain_intervals=())
    tr = gen_trace(cfg, 1000.0)
    np.testing.assert_array_equal(tr.snr_db, np.full(len(tr), 20.0))
    assert all(w == CLEAR for w in tr.weather)


def test_everlasting_rain_shifts_mean_everywhere():
    cfg = _cfg(clear_std_db=0.0, rain_std_db=0.0,
               rain_intervals=((0.0, math.inf),))
    tr = gen_trace(cfg, 1000.0)
    np.testing.assert_array_equal(tr.snr_db, np.full(len(tr), 16.0))
    assert all(w == RAIN for w in tr.weather)


def test_three_hour_trace_regime_means():
    tr = gen_trace(_cfg(seed=1234), 10800.0)
    assert len(tr) == 432
    rain = np.array([w == RAIN for w in tr.weather])
    assert tr.snr_db[~rain].mean() == pytest.approx(20.0, abs=0.2)
    assert tr.snr_db[rain].mean() == pytest.approx(16.0, abs=0.2)


def test_trace_determinism_and_timestamps():
    a = gen_trace(_cfg(seed=9), 2000.0)
    b = gen_trace(_cfg(seed=9), 2000.0)
    np.testing.assert_array_equal(a.snr_db, b.snr_db)
    np.testing.assert_allclose(np.diff(a.t_s), 25.0, atol=1e-12)
    assert a.t_s[0] == 0.0


@pytest.mark.parametrize("seed, period", [(0, 25.0), (5, 7.0), (11, 60.0)])
def test_trace_noise_follows_the_ar1_recurrence_sample_by_sample(seed, period):
    # the oracle draws the first sample alone, then the rest, as one stream
    cfg = _cfg(seed=seed, sampling_period_s=period)
    tr = gen_trace(cfg, 3000.0)
    rng = np.random.default_rng(seed)
    rain = np.array([w == RAIN for w in tr.weather])
    mean = np.where(rain, 16.0, 20.0)
    std = np.where(rain, 0.8, 0.3)
    rho = 0.7 ** (period / 25.0)
    d = [std[0] * rng.standard_normal()]
    for k, w in enumerate(rng.standard_normal(len(tr) - 1), start=1):
        d.append(rho * d[-1] + math.sqrt(1.0 - rho * rho) * std[k] * w)
    assert tr.snr_db.tolist() == (mean + np.array(d)).tolist()


def test_ar1_lag1_autocorrelation():
    cfg = _cfg(rain_intervals=(), clear_std_db=0.5, seed=11)
    tr = gen_trace(cfg, 25.0 * 10_000)
    d = tr.snr_db - tr.snr_db.mean()
    rho_hat = float(np.sum(d[:-1] * d[1:]) / np.sum(d * d))
    assert rho_hat == pytest.approx(0.7, abs=0.05)


@pytest.mark.parametrize("period", [5.0, 25.0, 100.0])
def test_ar1_correlation_is_set_in_seconds(period):
    # 200k clear-sky samples at every period; the lag is 100 s. Bartlett's
    # standard error of the estimate is 0.0074 at 5 s and below at the others.
    cfg = _cfg(rain_intervals=(), clear_std_db=0.5, seed=17,
               sampling_period_s=period)
    tr = gen_trace(cfg, period * 200_000)
    d = tr.snr_db - tr.snr_db.mean()
    k = round(100.0 / period)
    rho_hat = float(np.sum(d[:-k] * d[k:]) / np.sum(d * d))
    assert rho_hat == pytest.approx(0.7 ** (100.0 / 25.0), abs=0.03)


def test_default_trace_keeps_the_per_sample_recursion():
    # at the default period the step is 0.7 ** 1.0 == 0.7: the same bytes
    cfg = default_rain_config()
    tr = gen_trace(cfg, 10800.0)
    rain = np.array([w == RAIN for w in tr.weather])
    std = np.where(rain, cfg.rain_std_db, cfg.clear_std_db)
    rng = np.random.default_rng(cfg.seed)
    d = [std[0] * rng.standard_normal()]
    for s, w in zip(std[1:], rng.standard_normal(len(tr) - 1)):
        d.append(0.7 * d[-1] + math.sqrt(1.0 - 0.7 * 0.7) * s * w)
    mean = np.where(rain, cfg.clear_mean_db - cfg.rain_mean_drop_db, cfg.clear_mean_db)
    np.testing.assert_array_equal(tr.snr_db, mean + np.array(d))


def test_rain_variance_not_below_clear():
    tr = gen_trace(_cfg(seed=5), 25.0 * 4000,)
    rain = np.array([w == RAIN for w in tr.weather])
    assert tr.snr_db[rain].std() >= tr.snr_db[~rain].std()


def test_rain_config_validation():
    with pytest.raises(ValueError):
        _cfg(rain_std_db=0.1)  # below clear std
    with pytest.raises(ValueError):
        _cfg(ar1_rho=1.0)
    with pytest.raises(ValueError):
        _cfg(rain_intervals=((100.0, 50.0),))
    with pytest.raises(ValueError):
        _cfg(rain_intervals=((0.0, 100.0), (50.0, 200.0)))
    # rain >= clear alone let both spreads be negative
    with pytest.raises(ValueError, match="^clear_std_db must be non-negative, got -1.0$"):
        _cfg(clear_std_db=-1.0, rain_std_db=-0.5)
    with pytest.raises(ValueError, match="^rain must not have lower SNR variance"):
        _cfg(clear_std_db=0.0, rain_std_db=-0.5)


@pytest.mark.parametrize("intervals", [
    INTERVALS,
    ((0.0, 25.0), (50.0, 75.0), (100.0, 100.5)),  # bounds on sample times
    ((-math.inf, 50.0), (975.0, math.inf)),
    ((-math.inf, math.inf),),
    ((12.5, 13.0),),  # between two samples: no rain
])
def test_rain_labels_are_the_per_sample_interval_scan(intervals):
    tr = gen_trace(_cfg(rain_intervals=intervals), 10000.0)
    scan = [any(a <= t < b for a, b in intervals) for t in tr.t_s]
    assert [w == RAIN for w in tr.weather] == scan


def test_gen_trace_duration_validation():
    with pytest.raises(ValueError):
        gen_trace(_cfg(), -5.0)
    # none or one sample cannot carry its period: SnrTrace refuses the trace
    for duration, n in ((10.0, 0), (25.0, 1), (49.9, 1)):
        with pytest.raises(ValueError, match=f"^a trace needs two samples to "
                                             f"carry its period, got {n}$"):
            gen_trace(_cfg(), duration)
    assert len(gen_trace(_cfg(), 50.0)) == 2
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            gen_trace(_cfg(), duration)
    for period in (0.0, -25.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="sampling_period_s must be"):
            _cfg(sampling_period_s=period)


def test_default_config_is_calibrated_for_three_hours():
    tr = gen_trace(default_rain_config(), 10800.0)
    rain = np.array([w == RAIN for w in tr.weather])
    assert len(tr) == 432
    assert rain.mean() == pytest.approx(0.25, abs=0.01)


# -------------------------------------------------------------------- AWGN

def test_awgn_noiseless_limit():
    rng = np.random.default_rng(3)
    x = np.exp(2j * np.pi * rng.random(500))
    y = awgn_transmit(x, 200.0, seed=1)
    assert np.max(np.abs(y - x)) < 1e-9


def test_awgn_noise_power_at_0db():
    x = np.ones(100_000, dtype=complex)
    y = awgn_transmit(x, 0.0, seed=2)
    assert float(np.mean(np.abs(y - x) ** 2)) == pytest.approx(1.0, abs=0.02)


def test_awgn_deterministic_per_seed():
    x = np.ones(256, dtype=complex)
    np.testing.assert_array_equal(awgn_transmit(x, 10.0, seed=4),
                                  awgn_transmit(x, 10.0, seed=4))


@pytest.mark.parametrize("shape", [(1,), (1000,), (2, 777)])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 17.3, 60.0])
def test_awgn_in_place_matches_one_expression(shape, snr_db):
    # the noise is added to a copy, real rail then imaginary rail; the same
    # draws in the same order as symbols + sigma * (n_re + 1j * n_im)
    rng = np.random.default_rng(11)
    x = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2
    x_before = x.copy()
    twin = np.random.default_rng(5)
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    want = x + sigma * (twin.standard_normal(shape) + 1j * twin.standard_normal(shape))
    gen = np.random.default_rng(5)
    got = awgn_transmit(x, snr_db, gen)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(x, x_before)  # the input is not noised
    assert gen.standard_normal() == twin.standard_normal()  # same draws used


def test_awgn_snr_recovered_by_evm():
    dist = mb_distribution(0.0, ConstellationTemplate.square_qam(64))
    rng = np.random.default_rng(6)
    tx = dist.tx_points()[rng.integers(0, 64, 100_000)]
    for snr in (5.0, 15.0, 25.0):
        rx = awgn_transmit(tx, snr, rng)
        assert snr_from_evm(evm_percent(rx, tx)) == pytest.approx(snr, abs=0.3)


def test_awgn_link_measures_the_ends_of_the_snr_range():
    # +-300 dB are measured with an ordinary SNR's batch spread (sd ~0.11 dB)
    for steps in (200, 450, 600):
        for snr in (-300.0, 300.0):
            for seed in range(3):
                rep = awgn_link_metrics(grid_distribution(steps), snr, 2048, seed)
                assert rep.snr_db == pytest.approx(snr, abs=0.3)


def test_awgn_refuses_an_snr_beyond_the_range():
    x = np.ones(8, dtype=complex)
    for snr in (-300.5, 300.5, math.nan, -math.inf, math.inf):
        with pytest.raises(ValueError, match="the range a unit-power link can measure"):
            awgn_transmit(x, snr, seed=0)


# ------------------------------------------------------------- impairments

def _dual_pol(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) / math.sqrt(2)


def test_zero_config_is_identity():
    # ImpairmentConfig() is the unimpaired channel
    x = _dual_pol()
    for cfg in ImpairmentConfig(), ImpairmentConfig(combined_linewidth_hz=0.0):
        np.testing.assert_array_equal(apply_impairments(x, cfg, 128e9), x)


def test_zero_magnitude_equals_disabled_stage():
    # Explicit zeros for every stage must leave the data untouched, i.e.
    # a zero-magnitude stage is exactly its own bypass.
    x = _dual_pol(seed=1)
    cfg = ImpairmentConfig(combined_linewidth_hz=0.0, freq_offset_hz=0.0,
                           pol_rotation_rad=0.0, iq_amplitude_imbalance=0.0,
                           iq_phase_imbalance_rad=0.0, iq_skew_samples=0.0)
    np.testing.assert_array_equal(apply_impairments(x, cfg, 128e9), x)


def test_quarter_turn_swaps_polarizations():
    x = _dual_pol(seed=2)
    cfg = ImpairmentConfig(combined_linewidth_hz=0.0, pol_rotation_rad=math.pi / 2)
    y = apply_impairments(x, cfg, 128e9)
    np.testing.assert_allclose(y[0], -x[1], atol=1e-12)
    np.testing.assert_allclose(y[1], x[0], atol=1e-12)


def test_wiener_phase_increment_variance():
    fs = 64e9
    lw = 200e3
    n = 1 << 20
    x = np.ones((2, n), dtype=complex)
    cfg = ImpairmentConfig(combined_linewidth_hz=lw, seed=8)
    y = apply_impairments(x, cfg, fs)
    phase = np.unwrap(np.angle(y[0]))
    w = 1024
    inc = phase[w::w] - phase[:-w:w]  # disjoint-window Wiener increments
    expected = 2.0 * math.pi * lw / fs * w
    assert float(np.var(inc)) == pytest.approx(expected, rel=0.10)


def test_phase_noise_common_to_both_pols():
    x = _dual_pol(seed=3)
    cfg = ImpairmentConfig(combined_linewidth_hz=500e3, seed=4)
    y = apply_impairments(x, cfg, 64e9)
    np.testing.assert_allclose(y[0] / x[0], y[1] / x[1], atol=1e-9)


def test_impairment_shape_validation():
    with pytest.raises(ValueError):
        apply_impairments(np.ones(16, dtype=complex), ImpairmentConfig(), 1e9)


def test_impairment_config_validation():
    with pytest.raises(ValueError):
        ImpairmentConfig(combined_linewidth_hz=-1.0)
    with pytest.raises(ValueError):
        ImpairmentConfig(freq_offset_hz=math.nan)


@pytest.mark.parametrize("seed, why", [
    (True, "must be an integer, got True"),
    (2.5, "must be an integer, got 2.5"),
    (-1, "must be a non-negative integer, got -1"),
])
def test_impairment_config_refuses_a_bad_seed(seed, why):
    with pytest.raises(ValueError, match=f"^seed {why}$"):
        ImpairmentConfig(seed=seed)
    with pytest.raises(ValueError, match=f"^seed {why}$"):
        full_impairments(seed=seed)


def test_full_impairments_enable_every_stage():
    cfg = full_impairments(seed=1)
    assert cfg.combined_linewidth_hz > 0
    assert cfg.freq_offset_hz != 0
    assert cfg.pol_rotation_rad != 0
    assert cfg.iq_amplitude_imbalance != 0
    assert cfg.iq_phase_imbalance_rad != 0
    assert cfg.iq_skew_samples != 0


# ------------------------------------------------------------- trace files

def test_trace_round_trip(tmp_path):
    tr = gen_trace(_cfg(seed=13), 4000.0)
    path = tmp_path / "trace.csv"
    save_trace(tr, path)
    back = load_trace(path)
    np.testing.assert_array_equal(back.t_s, tr.t_s)
    np.testing.assert_array_equal(back.snr_db, tr.snr_db)
    assert back.weather == tr.weather
    assert back.sampling_period_s == tr.sampling_period_s


def test_trace_keeps_a_five_second_period_through_its_file(tmp_path):
    tr = gen_trace(_cfg(seed=13, sampling_period_s=5.0), 9.0 * 5.0)
    assert tr.sampling_period_s == 5.0
    path = tmp_path / "trace.csv"
    save_trace(tr, path)
    back = load_trace(path)
    assert len(back) == 9 and back.sampling_period_s == 5.0
    np.testing.assert_array_equal(back.t_s, 5.0 * np.arange(9))


def test_trace_file_is_utf8_lf_with_header(tmp_path):
    tr = gen_trace(_cfg(seed=13), 100.0)
    path = tmp_path / "trace.csv"
    save_trace(tr, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "t_s,snr_db,weather"


def test_load_accepts_quoted_padded_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_bytes(b' t_s , snr_db,weather \r\n"0.0",15.0, clear\r\n\r\n'
                     b'25.0,"14.5",rain \r\n')
    back = load_trace(path)
    np.testing.assert_array_equal(back.t_s, [0.0, 25.0])
    np.testing.assert_array_equal(back.snr_db, [15.0, 14.5])
    assert back.weather == (CLEAR, RAIN)
    assert back.sampling_period_s == 25.0


@pytest.mark.parametrize("row, message", [
    ("x,15.0,clear", "t_s: bad value 'x'"),
    ("25.0,inf,clear", "snr_db: bad value 'inf'"),
    ("25.0,15.0,sunny", "weather: bad value 'sunny'"),
    ("0.0,15.0,clear", "timestamps not increasing"),
])
def test_load_errors_name_the_exact_line_and_column(tmp_path, row, message):
    # the blank line still counts, so the bad row is line 4
    path = tmp_path / "bad.csv"
    path.write_text(f"t_s,snr_db,weather\n0.0,15.0,clear\n\n{row}\n")
    with pytest.raises(ValueError, match=rf"bad\.csv:4: {message}$"):
        load_trace(path)


def test_load_names_the_file_on_trace_errors(tmp_path):
    path = tmp_path / "uneven.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0,clear\n25.0,15.0,clear\n"
                    "60.0,15.0,clear\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: timestamps "
                       "must increase by the sampling period$"):
        load_trace(path)


def test_load_rejects_nan_row_naming_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0,clear\n25.0,NaN,clear\n")
    with pytest.raises(ValueError, match=r":3:"):
        load_trace(path)


def test_load_rejects_non_utf8_naming_file_and_line(tmp_path):
    path = tmp_path / "latin1.csv"
    for mark in (b"", b"\xef\xbb\xbf"):  # with a byte-order mark too
        path.write_bytes(mark + b"t_s,snr_db,weather\n0.0,15.0,clear\n"
                         b"25.0,15.0,cl\xe9ar\n")
        with pytest.raises(ValueError, match=r"latin1\.csv:3: not UTF-8: byte 0xe9$"):
            load_trace(path)


def test_load_reads_a_trace_with_a_byte_order_mark_as_without(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts the file with the mark
    tr = gen_trace(_cfg(seed=13), 500.0)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_trace(tr, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back, want = load_trace(marked), load_trace(plain)
    np.testing.assert_array_equal(back.t_s, want.t_s)
    np.testing.assert_array_equal(back.snr_db, want.snr_db)
    assert back.weather == want.weather


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a trace needs "
                                         "two samples to carry its period, got 0$"):
        load_trace(path)


def test_load_rejects_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("t_s,snr_db,weather\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a trace needs "
                                         "two samples to carry its period, got 0$"):
        load_trace(path)


def test_load_refuses_one_row_naming_the_file(tmp_path):
    # one row carries no period; none is assumed for it
    path = tmp_path / "one.csv"
    path.write_text("t_s,snr_db,weather\n7.0,15.0,clear\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: a trace needs "
                                         "two samples to carry its period, got 1$"):
        load_trace(path)


def test_load_rejects_non_monotone_timestamps(tmp_path):
    path = tmp_path / "mono.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0,clear\n50.0,15.0,clear\n"
                    "25.0,15.0,clear\n")
    with pytest.raises(ValueError, match="timestamps"):
        load_trace(path)


def test_load_rejects_unknown_weather(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0,sunny\n")
    with pytest.raises(ValueError, match="weather"):
        load_trace(path)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0\n")
    with pytest.raises(ValueError, match="3 columns"):
        load_trace(path)


def test_csv_writer_formats_by_type(tmp_path):
    path = tmp_path / "cells.csv"
    channel._write_csv(path, ("a", "b", "c", "d", "e", "f", "g"),
                       [(True, False, 3, np.int64(-4), "rain",
                         np.float64(0.1), 1e22)])
    assert path.read_bytes() == (b"a,b,c,d,e,f,g\n"
                                 b"true,false,3,-4,rain,0.1,1e+22\n")


def test_csv_writer_names_the_file_it_cannot_write(tmp_path):
    path = tmp_path / "missing" / "trace.csv"
    with pytest.raises(OSError, match=rf"cannot write {path}"):
        save_trace(gen_trace(_cfg(), 100.0), path)


def test_snr_trace_validation():
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"^a trace needs two samples to "
                                             f"carry its period, got {n}$"):
            SnrTrace(t_s=np.arange(n) * 25.0, snr_db=np.zeros(n),
                     weather=(CLEAR,) * n)
    with pytest.raises(ValueError, match="columns differ in length"):
        SnrTrace(t_s=np.array([0.0, 25.0]), snr_db=np.zeros(2), weather=(CLEAR,))
    for snr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="SNR values must be finite"):
            SnrTrace(t_s=np.array([0.0, 25.0]), snr_db=np.array([15.0, snr]),
                     weather=(CLEAR, CLEAR))
    # the timestamps fix the period: their first step, never a default
    with pytest.raises(TypeError):
        SnrTrace(t_s=np.array([0.0, 10.0]), snr_db=np.zeros(2),
                 weather=(CLEAR, CLEAR), sampling_period_s=25.0)
    assert SnrTrace(t_s=np.array([0.0, 10.0]), snr_db=np.zeros(2),
                    weather=(CLEAR, CLEAR)).sampling_period_s == 10.0
    with pytest.raises(ValueError, match="sampling period"):
        SnrTrace(t_s=np.array([0.0, 10.0, 30.0]), snr_db=np.zeros(3),
                 weather=(CLEAR,) * 3)
    # a first step that is not positive and finite; a negative one would let
    # the timestamps fall with it
    for step in (0.0, -25.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sampling_period_s must be"):
            SnrTrace(t_s=np.array([0.0, step]), snr_db=np.zeros(2),
                     weather=(CLEAR, CLEAR))


def test_all_names_every_public_function_and_class():
    public = {name for name, v in vars(channel).items()
              if not name.startswith("_")
              and getattr(v, "__module__", None) == channel.__name__}
    assert "full_impairments" in public
    assert set(channel.__all__) == public
