"""Every script under scripts/ starts and prints its usage, so a library
name a script still imports cannot disappear unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fsolink

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    # the child imports the same fsolink as this process, installed or not
    src = str(Path(fsolink.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script), "--help"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
