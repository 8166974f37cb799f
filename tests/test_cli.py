"""Command-line front end: argument parsing, file round-trips, and exit
codes for the four subcommands."""

import json
import os
import subprocess
import sys
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
                "0:inf:1", "-inf:1:1", "nan:1:1", "0:30:inf"):
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
    for spec in ("0:inf:1", "-inf:1:1", "nan:1:1"):
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
        assert err.startswith("error: sampling period must be positive")
        assert err.count("\n") == 1


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


def test_json_inputs_must_be_objects(small_campaign, capsys):
    trace, lut, out = small_campaign
    array = out.parent / "array.json"
    array.write_text("[1, 2]")
    for args in (["gen-trace", "--config", str(array),
                  "--out", str(out.parent / "t.csv")],
                 ["run", "--trace", str(trace), "--lut", str(array),
                  "--out", str(out)]):
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(array) in err and "JSON object" in err


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
