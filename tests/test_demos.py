"""Every demo script, and the command-line tour, runs to completion against
the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import cli_env

DEMOS_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMOS_DIR.glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          cwd=tmp_path, env=cli_env())
    assert proc.returncode == 0, f"{demo.name} exited {proc.returncode}:\n{proc.stderr}"


def test_cli_tour_runs(tmp_path):
    # The tour calls `pcolor`; a shim on PATH runs this interpreter's package.
    shim = tmp_path / "pcolor"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m pcolor "$@"\n')
    shim.chmod(0o755)
    env = cli_env()
    env["PATH"] = str(tmp_path) + os.pathsep + env.get("PATH", "")
    proc = subprocess.run(["sh", str(DEMOS_DIR / "cli_tour.sh")], capture_output=True,
                          text=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, f"cli_tour.sh exited {proc.returncode}:\n{proc.stderr}"
