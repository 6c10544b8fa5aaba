"""Smoke tests: each script under scripts/ runs to completion on a tiny problem."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def test_run_synth_pipeline(tmp_path):
    result = run_script("run_synth_pipeline.py", "--workdir", tmp_path / "demo")
    assert result.returncode == 0, result.stderr
    assert "recovery angle to planted core (mean degrees, lower is better):" in result.stdout
    assert "residual similarity before filtering:" in result.stdout
    assert "residual similarity after filtering:" in result.stdout


def test_recovery_sweep():
    result = run_script("recovery_sweep.py", "--seeds", 1, "--residual-scales", 0.5,
                        "--fractions", 0.3)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "chain=[24, 48] experts=3 core_rank=4 inner=ties seeds=1"
    assert lines[1].split() == ["resid", "shared", "|", "pivot", "wavg", "best", "beats", "best"]
    assert lines[2].split()[:3] == ["0.50", "0.30", "|"]
