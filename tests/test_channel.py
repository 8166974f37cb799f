"""Synthetic SNR traces, AWGN calibration, waveform impairments, and trace
CSV round-trips."""

import math

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
from fsolink.metrics import evm_percent, snr_from_evm
from fsolink.shaping import ConstellationTemplate, mb_distribution

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


def test_ar1_lag1_autocorrelation():
    cfg = _cfg(rain_intervals=(), clear_std_db=0.5, seed=11)
    tr = gen_trace(cfg, 25.0 * 10_000)
    d = tr.snr_db - tr.snr_db.mean()
    rho_hat = float(np.sum(d[:-1] * d[1:]) / np.sum(d * d))
    assert rho_hat == pytest.approx(0.7, abs=0.05)


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


def test_gen_trace_duration_validation():
    with pytest.raises(ValueError):
        gen_trace(_cfg(), -5.0)
    with pytest.raises(ValueError):
        gen_trace(_cfg(), 10.0)  # shorter than one period
    for duration in (math.inf, math.nan):
        with pytest.raises(ValueError, match="duration must be positive and finite"):
            gen_trace(_cfg(), duration)
    for period in (0.0, -25.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sampling period must be positive"):
            gen_trace(_cfg(), 1000.0, period)


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


def test_awgn_snr_recovered_by_evm():
    dist = mb_distribution(0.0, ConstellationTemplate.square_qam(64))
    rng = np.random.default_rng(6)
    tx = dist.tx_points()[rng.integers(0, 64, 100_000)]
    for snr in (5.0, 15.0, 25.0):
        rx = awgn_transmit(tx, snr, rng)
        assert snr_from_evm(evm_percent(rx, tx)) == pytest.approx(snr, abs=0.3)


# ------------------------------------------------------------- impairments

def _dual_pol(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))) / math.sqrt(2)


def test_zero_config_is_identity():
    x = _dual_pol()
    cfg = ImpairmentConfig(combined_linewidth_hz=0.0)
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


def test_trace_file_is_utf8_lf_with_header(tmp_path):
    tr = gen_trace(_cfg(seed=13), 100.0)
    path = tmp_path / "trace.csv"
    save_trace(tr, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").splitlines()[0] == "t_s,snr_db,weather"


def test_load_rejects_nan_row_naming_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,snr_db,weather\n0.0,15.0,clear\n25.0,NaN,clear\n")
    with pytest.raises(ValueError, match=r":3:"):
        load_trace(path)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty trace"):
        load_trace(path)


def test_load_rejects_header_only(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text("t_s,snr_db,weather\n")
    with pytest.raises(ValueError, match="empty trace"):
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


def test_snr_trace_validation():
    with pytest.raises(ValueError, match="empty"):
        SnrTrace(t_s=np.array([]), snr_db=np.array([]), weather=())
    with pytest.raises(ValueError, match="sampling period"):
        SnrTrace(t_s=np.array([0.0, 10.0]), snr_db=np.zeros(2),
                 weather=(CLEAR, CLEAR), sampling_period_s=25.0)


def test_all_names_every_public_function_and_class():
    public = {name for name, v in vars(channel).items()
              if not name.startswith("_")
              and getattr(v, "__module__", None) == channel.__name__}
    assert "full_impairments" in public
    assert set(channel.__all__) == public
