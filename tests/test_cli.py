"""Command-line front end: argument parsing, file round-trips, and exit
codes for the four subcommands."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fsolink
from fsolink.airlut import load_air_table
from fsolink.channel import load_trace
from fsolink.cli import _parse_grid, main
from fsolink.control import load_records

LUT_KEYS = {"ngmi_th", "M", "snr_db", "air", "mc_symbols", "seed"}


# ------------------------------------------------------------- grid parsing

def test_parse_grid_quarter_db():
    grid = _parse_grid("0:30:0.25")
    assert grid.size == 121
    assert grid[0] == 0.0 and grid[-1] == 30.0
    assert np.allclose(np.diff(grid), 0.25)


def test_parse_grid_inclusive_stop():
    assert _parse_grid("10:12:1").tolist() == [10.0, 11.0, 12.0]


def test_parse_grid_rejects_malformed():
    for bad in ("0:30", "a:b:c", "0:30:0", "30:0:1", "5:5:1",
                "0:inf:1", "-inf:1:1", "nan:1:1", "0:30:inf",
                "0:1e308:1e-308", "-1e308:1e308:1"):
        with pytest.raises(ValueError):
            _parse_grid(bad)


# ---------------------------------------------------------------- build-lut

def test_build_lut_writes_exact_schema(tmp_path, capsys):
    out = tmp_path / "lut.json"
    rc = main(["build-lut", "--grid", "26:30:2", "--mc", "2000",
               "--seed", "5", "--out", str(out), "--quiet"])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert set(doc) == LUT_KEYS
    assert doc["ngmi_th"] == 0.9 and doc["M"] == 64
    assert doc["mc_symbols"] == 2000 and doc["seed"] == 5
    table = load_air_table(out)
    assert table.snr_db.tolist() == [26.0, 28.0, 30.0]
    assert np.all(np.diff(table.air) >= 0)


def test_build_lut_progress_on_stderr_unless_quiet(tmp_path, capsys):
    args = ["build-lut", "--grid", "26:30:2", "--mc", "2000", "--seed", "5",
            "--out", str(tmp_path / "lut.json")]
    assert main(args) == 0
    err = capsys.readouterr().err.splitlines()
    assert [ln.split(" dB")[0].strip() for ln in err] == ["26.00", "28.00", "30.00"]
    assert main(args + ["--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_build_lut_rejects_bad_grid(tmp_path, capsys):
    rc = main(["build-lut", "--grid", "5:1:1", "--out",
               str(tmp_path / "x.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    for spec in ("0:inf:1", "-inf:1:1", "nan:1:1", "0:1e308:1e-308",
                 "-1e308:1e308:1"):
        rc = main(["build-lut", f"--grid={spec}", "--out",
                   str(tmp_path / "x.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert spec in err


def test_build_lut_rejects_threshold_before_any_grid_point(tmp_path, capsys):
    for th in ("1.5", "nan"):
        rc = main(["build-lut", "--grid", "26:30:2", "--mc", "2000",
                   "--ngmi-th", th, "--out", str(tmp_path / "x.json")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "NGMI threshold" in err[0]
        assert err[0].startswith("error:")
    assert not (tmp_path / "x.json").exists()


def _outside(snr, path=None) -> str:
    where = "" if path is None else f"{path}: "
    return (f"error: {where}SNR {snr} dB is outside [-300, 300] dB, "
            "the range a unit-power link can measure\n")


def test_build_lut_snr_outside_the_measurable_range_is_one_error_line(tmp_path, capsys):
    # 340 and 400 dB lose their noise in the sum, 3100 and 3300 dB would need
    # a subnormal or zero noise variance, -4000 dB an infinite one
    for snr in (-4000, 340, 400, 3100, 3300):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["build-lut", f"--grid={snr}:{snr + 10}:5", "--mc", "100",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 1 and caught == []
        assert capsys.readouterr().err == _outside(f"{snr}.0")
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------- gen-trace

def test_gen_trace_default_model(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["gen-trace", "--duration", "500", "--out", str(out)])
    assert rc == 0
    trace = load_trace(out)
    assert len(trace) == 20
    text = out.read_bytes().decode("utf-8")
    assert text.startswith("t_s,snr_db,weather\n")
    assert "\r" not in text


def test_gen_trace_custom_config_and_seed_override(tmp_path):
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "rain_intervals": [[100.0, 200.0]], "seed": 1}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["gen-trace", "--config", str(cfg_path), "--duration", "250",
                 "--out", str(a)]) == 0
    assert main(["gen-trace", "--config", str(cfg_path), "--duration", "250",
                 "--seed", "2", "--out", str(b)]) == 0
    ta, tb = load_trace(a), load_trace(b)
    assert ta.weather.count("rain") == 4  # t in [100, 200) at 25 s spacing
    assert ta.weather == tb.weather
    assert not np.array_equal(ta.snr_db, tb.snr_db)  # seed override took


def test_gen_trace_bad_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps({"clear_mean": 20.0}))
    rc = main(["gen-trace", "--config", str(cfg_path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_gen_trace_rejects_non_finite_duration(tmp_path, capsys):
    for duration in ("inf", "nan"):
        rc = main(["gen-trace", "--duration", duration,
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duration must be positive and finite")
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [["gen-trace", "--duration", "1e16"],
                                  ["build-lut", "--grid", "0:1:1e-15"]])
def test_a_count_too_large_to_allocate_is_one_error_line(tmp_path, capsys, argv):
    # each array asks for more than 2**48 bytes, so the allocation is refused
    # before any page is mapped
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_a_bare_memory_error_still_says_what_failed(tmp_path, capsys, monkeypatch):
    # the interpreter's own MemoryError carries no message
    def gen_trace(*args):
        raise MemoryError

    monkeypatch.setattr("fsolink.cli.gen_trace", gen_trace)
    assert main(["gen-trace", "--out", str(tmp_path / "trace.csv")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_gen_trace_rejects_bad_sampling_period(tmp_path, capsys):
    cfg_path = tmp_path / "model.json"
    for period in (0, -25):
        cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
               "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
               "sampling_period_s": period}
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["gen-trace", "--config", str(cfg_path),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: sampling_period_s must be positive")
        assert err.count("\n") == 1


def test_gen_trace_refuses_a_trace_beyond_the_measurable_range(tmp_path, capsys):
    cfg = {"clear_mean_db": 400.0, "clear_std_db": 0.0,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.0, "ar1_rho": 0.1}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    rc = main(["gen-trace", "--config", str(cfg_path), "--duration", "100",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == _outside("400.0")
    assert not out.exists()


def test_gen_trace_refuses_a_trace_too_short_to_carry_its_period(tmp_path, capsys):
    # 9 s at 5 s is one sample, which would have read back at 25 s
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "sampling_period_s": 5}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    rc = main(["gen-trace", "--config", str(cfg_path), "--duration", "9",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == \
        "error: a trace needs two samples to carry its period, got 1\n"
    assert not out.exists()
    assert main(["gen-trace", "--config", str(cfg_path), "--duration", "10",
                 "--out", str(out)]) == 0
    assert "2 samples at 5 s" in capsys.readouterr().out
    assert load_trace(out).sampling_period_s == 5.0


@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", 1.5), ("seed", True),
    ("clear_mean_db", "x"), ("ar1_rho", None), ("rain_std_db", float("nan")),
])
def test_gen_trace_rejects_wrong_typed_config(tmp_path, capsys, field, value):
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "seed": 1, field: value}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["gen-trace", "--config", str(cfg_path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("interval", [
    [True, "200"], [True, 200.0], [100.0, "200"], [float("nan"), 200.0],
    [100.0, float("nan")], [None, 200.0],
])
def test_gen_trace_rejects_wrong_typed_rain_interval(tmp_path, capsys, interval):
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "rain_intervals": [interval]}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["gen-trace", "--config", str(cfg_path),
               "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: rain interval bound must be a number")
    assert err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_gen_trace_accepts_everlasting_rain(tmp_path):
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "rain_intervals": [[float("-inf"), float("inf")]]}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert main(["gen-trace", "--config", str(cfg_path), "--duration", "100",
                 "--out", str(out)]) == 0
    assert set(load_trace(out).weather) == {"rain"}


# ---------------------------------------------------------------- run/report

@pytest.fixture()
def small_campaign(tmp_path):
    cfg = {"clear_mean_db": 30.0, "clear_std_db": 0.01,
           "rain_mean_drop_db": 1.0, "rain_std_db": 0.02, "ar1_rho": 0.1,
           "seed": 3}
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cfg))
    trace = tmp_path / "trace.csv"
    lut = tmp_path / "lut.json"
    assert main(["gen-trace", "--config", str(cfg_path), "--duration", "250",
                 "--out", str(trace)]) == 0
    assert main(["build-lut", "--grid", "26:30:2", "--mc", "2000",
                 "--seed", "5", "--out", str(lut), "--quiet"]) == 0
    return trace, lut, tmp_path / "results"


DROP = object()


def _edited(**changes):
    """The valid input with keys changed (dropped where the value is DROP),
    as JSON bytes."""
    def make(doc):
        doc = {**doc, **changes}
        return json.dumps({k: v for k, v in doc.items() if v is not DROP}).encode()
    return make


# (case, the malformed bytes made from the valid input, what the error says)
_BAD_JSON_EITHER = [
    ("syntax", lambda doc: b"{bad", "Expecting property name"),
    ("latin-1", lambda doc: json.dumps(doc).encode().replace(b"seed", b"s\xe9ed"),
     "can't decode byte 0xe9"),
    ("array", lambda doc: b"[1, 2]", "expected a JSON object"),
    ("unknown-key", _edited(extra=1), "unexpected keyword argument 'extra'"),
    ("float-seed", _edited(seed=2.5), "seed must be an integer, got 2.5"),
    ("string-seed", _edited(seed="7"), "seed must be an integer, got '7'"),
    ("bool-seed", _edited(seed=True), "seed must be an integer, got True"),
    ("negative-seed", _edited(seed=-3), "seed must be a non-negative integer, got -3"),
]
_BAD_JSON = [pytest.param(command, make, text, id=f"{command}-{case}")
             for command in ("run", "gen-trace")
             for case, make, text in _BAD_JSON_EITHER] + [
    pytest.param("run", _edited(seed=DROP), "missing .*'seed'", id="run-missing-key"),
    pytest.param("run", _edited(M=64.9), "AIR table M must be an integer, got 64.9",
                 id="run-float-M"),
    pytest.param("run", _edited(M=0), "AIR table M must be 64, got 0",
                 id="run-zero-M"),
    pytest.param("run", _edited(M=16), "AIR table M must be 64, got 16",
                 id="run-M-16"),
    pytest.param("run", _edited(mc_symbols=0),
                 "AIR table Monte-Carlo symbol count must be positive",
                 id="run-zero-mc_symbols"),
    pytest.param("run", _edited(mc_symbols=-5),
                 "AIR table Monte-Carlo symbol count must be positive",
                 id="run-negative-mc_symbols"),
    pytest.param("run", _edited(mc_symbols=2.5),
                 "AIR table mc_symbols must be an integer, got 2.5",
                 id="run-float-mc_symbols"),
    pytest.param("run", _edited(snr_db=["26", "28", "30"]),
                 "AIR table SNR must be a finite number, got '26'",
                 id="run-string-SNR"),
    pytest.param("run", _edited(snr_db=[30.0, 28.0, 26.0]),
                 "SNR grid must be strictly increasing", id="run-invariant"),
    pytest.param("gen-trace", _edited(ar1_rho=DROP), "missing .*'ar1_rho'",
                 id="gen-trace-missing-key"),
    pytest.param("gen-trace", _edited(sampling_period_s=True),
                 "sampling_period_s must be a finite number, got True",
                 id="gen-trace-bool-period"),
    pytest.param("gen-trace", _edited(rain_std_db=0.0),
                 "rain must not have lower SNR variance", id="gen-trace-invariant"),
    pytest.param("gen-trace", _edited(clear_std_db=-1.0, rain_std_db=-0.5),
                 "clear_std_db must be non-negative, got -1.0",
                 id="gen-trace-negative-spread"),
]


@pytest.mark.parametrize("command, make, text", _BAD_JSON)
def test_json_inputs_must_be_objects(small_campaign, capsys, command, make, text):
    # every malformed --lut or --config file gives one error line naming it
    trace, lut, out = small_campaign
    good = {"run": lut, "gen-trace": out.parent / "model.json"}[command]
    bad = out.parent / "bad.json"
    bad.write_bytes(make(json.loads(good.read_text())))
    args = {"run": ["run", "--trace", str(trace), "--lut", str(bad),
                    "--out", str(out)],
            "gen-trace": ["gen-trace", "--config", str(bad),
                          "--out", str(out.parent / "t.csv")]}[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert re.search(text, err)


@pytest.mark.parametrize("command", ["build-lut", "gen-trace", "run"])
def test_negative_seed_option_refused_before_any_work(small_campaign, capsys,
                                                      command):
    # left to numpy, a negative seed fails at the first draw, in a message
    # that names no seed
    trace, lut, out = small_campaign
    args = {"build-lut": ["build-lut", "--grid", "26:30:2", "--out", str(out)],
            "gen-trace": ["gen-trace", "--out", str(out)],
            "run": ["run", "--trace", str(trace), "--lut", str(lut),
                    "--out", str(out)]}[command]
    capsys.readouterr()
    assert main([*args, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


def test_run_campaign_end_to_end(small_campaign, capsys):
    trace, lut, results = small_campaign
    rc = main(["run", "--trace", str(trace), "--lut", str(lut),
               "--schemes", "fixed400,adaptive", "--mode", "analytic",
               "--seed", "1", "--mc-symbols", "2000", "--out", str(results)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fixed400" in out and "adaptive" in out
    assert out.count("delivered") == 2
    # run and report print the same per-scheme summary
    assert main(["report", "--in", str(results)]) == 0
    assert capsys.readouterr().out.splitlines() == out.splitlines()[:-1]
    records = load_records(results / "records.csv")
    assert len(records) == 2 * 10
    assert (results / "summary.json").exists()
    doc = json.loads((results / "summary.json").read_text())
    assert doc["schemes"] == ["fixed400", "adaptive"]
    # 30 dB clear sky: everything stays in service at full rate.
    assert doc["outage_fraction"]["fixed400"] == 0.0


def test_run_waveform_mode_end_to_end(tmp_path):
    trace, lut = tmp_path / "trace.csv", tmp_path / "lut.json"
    assert main(["gen-trace", "--duration", "50", "--out", str(trace)]) == 0
    assert main(["build-lut", "--grid", "0:30:15", "--mc", "2000",
                 "--out", str(lut), "--quiet"]) == 0
    assert len(load_trace(trace)) == 2
    outputs = []
    for run in ("a", "b"):
        assert main(["run", "--trace", str(trace), "--lut", str(lut),
                     "--mode", "waveform", "--schemes", "fixed400",
                     "--out", str(tmp_path / run)]) == 0
        outputs.append((tmp_path / run / "records.csv").read_bytes())
    records = load_records(tmp_path / "a" / "records.csv")
    assert len(records) == 2
    assert all(np.isfinite(r.ngmi) and r.air == 8.0 for r in records)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("field", ["M", "seed", "mc_symbols", "ngmi_th"])
def test_run_rejects_wrong_typed_lut_field(small_campaign, capsys, field):
    trace, lut, results = small_campaign
    doc = json.loads(lut.read_text())
    doc[field] = None
    lut.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = main(["run", "--trace", str(trace), "--lut", str(lut),
               "--out", str(results)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {lut}: AIR table") and err.count("\n") == 1


def test_run_rejects_unknown_scheme(small_campaign, capsys):
    trace, lut, results = small_campaign
    rc = main(["run", "--trace", str(trace), "--lut", str(lut),
               "--schemes", "fixed600", "--out", str(results)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_missing_trace_file(small_campaign, capsys):
    _, lut, results = small_campaign
    rc = main(["run", "--trace", "/nonexistent/trace.csv", "--lut", str(lut),
               "--out", str(results)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_run_snr_outside_the_measurable_range_is_one_error_line(small_campaign, capsys):
    # the trace is refused as it is read, so no iteration runs before row 4
    trace, lut, results = small_campaign
    rows = trace.read_text().splitlines(keepends=True)
    for snr in ("-4000.0", "340.0", "400.0"):
        t_s, _, weather = rows[4].split(",")
        trace.write_text("".join(rows[:4] + [f"{t_s},{snr},{weather}"] + rows[5:]))
        capsys.readouterr()
        rc = main(["run", "--trace", str(trace), "--lut", str(lut),
                   "--mc-symbols", "2000", "--out", str(results)])
        assert rc == 1
        assert capsys.readouterr().err == _outside(snr, trace)
        assert not results.exists()


@pytest.mark.parametrize("snr", ["340.0", "-3050.0"])
def test_run_refuses_a_two_row_trace_outside_the_range(small_campaign, capsys, snr):
    # at 340 dB the noise is lost in the sum, so a run would measure ~364 dB
    # or an EVM of 0; at -3050 dB a batch's noise power overflows to inf
    trace, lut, results = small_campaign
    rows = trace.read_text().splitlines(keepends=True)[:3]
    trace.write_text(rows[0] + "".join(
        f"{t_s},{snr},{weather}" for t_s, _, weather in (r.split(",") for r in rows[1:])))
    capsys.readouterr()
    rc = main(["run", "--trace", str(trace), "--lut", str(lut), "--schemes", "fixed400",
               "--mc-symbols", "20000", "--out", str(results)])
    assert rc == 1
    assert capsys.readouterr().err == _outside(snr, trace)
    assert not results.exists()


def test_run_refuses_a_one_row_trace_and_writes_nothing(small_campaign, capsys):
    # one row carries no period, so no delivered bytes could be counted
    trace, lut, results = small_campaign
    trace.write_text("".join(trace.read_text().splitlines(keepends=True)[:2]))
    capsys.readouterr()
    rc = main(["run", "--trace", str(trace), "--lut", str(lut),
               "--mc-symbols", "2000", "--out", str(results)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {trace}: a trace needs two "
                                       "samples to carry its period, got 1\n")
    assert not results.exists()


def test_run_rejects_non_utf8_trace(small_campaign, capsys):
    trace, lut, results = small_campaign
    trace.write_bytes(trace.read_bytes().replace(b"clear", b"cl\xe9ar", 1))
    capsys.readouterr()
    rc = main(["run", "--trace", str(trace), "--lut", str(lut),
               "--out", str(results)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {trace}:2: not UTF-8: byte 0xe9\n"


def test_report_recomputes_from_records(small_campaign, capsys):
    trace, lut, results = small_campaign
    assert main(["run", "--trace", str(trace), "--lut", str(lut),
                 "--schemes", "fixed400", "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    before = json.loads((results / "summary.json").read_text())
    (results / "summary.json").unlink()
    capsys.readouterr()
    rc = main(["report", "--in", str(results)])
    assert rc == 0
    assert "delivered" in capsys.readouterr().out
    after = json.loads((results / "summary.json").read_text())
    assert after["mean_effective_rate_bps"] == before["mean_effective_rate_bps"]
    assert after["delivered_bytes"] == before["delivered_bytes"]


def test_report_rewrites_a_five_second_run_byte_for_byte(small_campaign, tmp_path):
    _, lut, results = small_campaign
    cfg = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model5.json").write_text(json.dumps({**cfg, "sampling_period_s": 5}))
    trace = tmp_path / "trace5.csv"
    assert main(["gen-trace", "--config", str(tmp_path / "model5.json"),
                 "--duration", "40", "--out", str(trace)]) == 0
    assert main(["run", "--trace", str(trace), "--lut", str(lut), "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    after_run = {f.name: f.read_bytes() for f in results.iterdir()}
    assert json.loads(after_run["summary.json"])["sampling_period_s"] == 5.0
    for f in results.iterdir():
        f.unlink()
    (results / "records.csv").write_bytes(after_run["records.csv"])
    assert main(["report", "--in", str(results)]) == 0
    assert {f.name: f.read_bytes() for f in results.iterdir()} == after_run


def test_a_rerun_leaves_no_stale_gain_panel(small_campaign):
    trace, lut, results = small_campaign
    run = ["run", "--trace", str(trace), "--lut", str(lut), "--seed", "1",
           "--mc-symbols", "2000"]
    assert main(run + ["--out", str(results)]) == 0
    full = sorted(f.name for f in results.iterdir())
    assert main(run + ["--schemes", "fixed400", "--out", str(results)]) == 0
    gain = results / "gain_vs_t.csv"
    assert gain.read_text().splitlines()[0] == "t_s"
    written = gain.read_bytes()
    gain.unlink()
    assert main(["report", "--in", str(results)]) == 0
    assert gain.read_bytes() == written
    alone = results.parent / "adaptive"
    assert main(run + ["--schemes", "adaptive", "--out", str(alone)]) == 0
    assert sorted(f.name for f in alone.iterdir()) == full
    assert len(full) == 6


def test_report_rejects_uneven_records_without_rewriting(small_campaign, capsys):
    trace, lut, results = small_campaign
    assert main(["run", "--trace", str(trace), "--lut", str(lut),
                 "--schemes", "fixed400,adaptive", "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    records = results / "records.csv"
    records.write_text(records.read_text().rstrip("\n").rsplit("\n", 1)[0] + "\n")
    before = {f.name: f.read_bytes() for f in results.iterdir()}
    capsys.readouterr()
    rc = main(["report", "--in", str(results)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "adaptive" in err and "records.csv" in err
    assert {f.name: f.read_bytes() for f in results.iterdir()} == before


@pytest.mark.parametrize("old, new, message", [
    (",fixed400,", ",bogus,", "unknown scheme 'bogus'"),
    (",400000000000.0,", ",nan,",
     r"records\.csv:2: air and rate_bps must be 8\.0 and 400000000000\.0, "
     r"those of entropy_bits 4\.0"),
    (",nan,", ",inf,", r"records\.csv:2: snr_est_db must be a finite number, got inf"),
    (",400000000000.0,", ",900000000000.0,",
     r"records\.csv:2: air and rate_bps must be 8\.0 and 400000000000\.0, "
     r"those of entropy_bits 4\.0"),
    ("\n2,50.0,", "\n2,1050.0,",
     r"records\.csv: timestamps must increase by the sampling period"),
    (",clear,", ",sunny,", r"records\.csv: weather labels must be 'clear' or 'rain'"),
])
def test_report_rejects_bad_records_without_rewriting(small_campaign, capsys,
                                                      old, new, message):
    trace, lut, results = small_campaign
    assert main(["run", "--trace", str(trace), "--lut", str(lut),
                 "--schemes", "fixed400", "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    records = results / "records.csv"
    records.write_text(records.read_text().replace(old, new))
    before = {f.name: f.read_bytes() for f in results.iterdir()}
    capsys.readouterr()
    assert main(["report", "--in", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert re.search(message, err)
    assert {f.name: f.read_bytes() for f in results.iterdir()} == before


def test_report_refuses_one_iteration_without_rewriting(small_campaign, capsys):
    trace, lut, results = small_campaign
    assert main(["run", "--trace", str(trace), "--lut", str(lut), "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    records = results / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    assert [ln.split(",")[0] for ln in lines[1:4]] == ["0"] * 3
    records.write_text("".join(lines[:4]))
    before = {f.name: f.read_bytes() for f in results.iterdir()}
    capsys.readouterr()
    assert main(["report", "--in", str(results)]) == 1
    assert capsys.readouterr().err == (f"error: {records}: a trace needs two "
                                       "samples to carry its period, got 1\n")
    assert {f.name: f.read_bytes() for f in results.iterdir()} == before


@pytest.mark.parametrize("column, value", [
    (1, "26.0"), (3, "rain"), (4, "29.5"),  # t_s, weather, snr_true_db
])
def test_report_rejects_schemes_of_two_traces_without_rewriting(
        small_campaign, capsys, column, value):
    trace, lut, results = small_campaign
    assert main(["run", "--trace", str(trace), "--lut", str(lut),
                 "--schemes", "fixed400,adaptive", "--seed", "1",
                 "--mc-symbols", "2000", "--out", str(results)]) == 0
    records = results / "records.csv"
    lines = records.read_text().splitlines(keepends=True)
    cells = lines[4].split(",")  # the adaptive row of iteration 1
    assert cells[:3] == ["1", "25.0", "adaptive"] and cells[column] != value
    cells[column] = value
    lines[4] = ",".join(cells)
    records.write_text("".join(lines))
    before = {f.name: f.read_bytes() for f in results.iterdir()}
    capsys.readouterr()
    assert main(["report", "--in", str(results)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {records}: scheme 'adaptive' replays another "
                   "trace than 'fixed400': n, t_s, snr_true_db or weather differ\n")
    assert {f.name: f.read_bytes() for f in results.iterdir()} == before


def test_report_missing_records(tmp_path, capsys):
    rc = main(["report", "--in", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_help():
    # the child imports the same fsolink as this process, installed or not
    src = str(Path(fsolink.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "fsolink", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    for cmd in ("build-lut", "gen-trace", "run", "report"):
        assert cmd in proc.stdout
