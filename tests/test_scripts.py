"""Every script under scripts/ starts and prints its usage, so a library
name a script still imports cannot disappear unnoticed; the scripts that
read a table run end to end on a tiny one."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsolink
from fsolink.cli import main

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


def _run(script, *args):
    # the child imports the same fsolink as this process, installed or not
    src = str(Path(fsolink.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def tiny_lut(tmp_path_factory):
    path = tmp_path_factory.mktemp("scripts") / "lut.json"
    assert main(["build-lut", "--grid", "0:30:10", "--mc", "2000", "--seed", "7",
                 "--quiet", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    proc = _run(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_inspect_table_prints_the_thresholds(tiny_lut):
    proc = _run(SCRIPTS_DIR / "inspect_table.py", "--lut", tiny_lut)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if "-> min SNR" in ln]
    assert [ln.split()[0] for ln in lines] == ["400", "500", "600"]


def test_sweep_predictor_one_cell(tiny_lut):
    proc = _run(SCRIPTS_DIR / "sweep_predictor.py", "--lut", tiny_lut,
                "--windows", 3, "--margins", 2, "--duration", 500,
                "--mc-symbols", 1000)
    assert proc.returncode == 0, proc.stderr
    assert "\nbest: N=3, margin=2 dB -> " in proc.stdout


@pytest.mark.parametrize("script, lut", [
    pytest.param(script, lut, id=f"{script}-{lut}" if lut else script)
    for lut in (None, "refused", "missing")
    for script in ("inspect_table.py", "sweep_predictor.py")])
def test_table_scripts_require_a_table(script, lut, tiny_lut, tmp_path):
    # no --lut is a usage error; a refused or missing one is one error line
    if lut is None:
        proc = _run(SCRIPTS_DIR / script)
        assert proc.returncode == 2
        assert "--lut" in proc.stderr
        return
    path = tmp_path / "lut.json"
    if lut == "refused":
        text = tiny_lut.read_text()
        assert '"mc_symbols": 2000' in text
        path.write_text(text.replace('"mc_symbols": 2000', '"mc_symbols": 0'))
    proc = _run(SCRIPTS_DIR / script, "--lut", path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert str(path) in proc.stderr
