"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def test_oracle_sweep_anchors():
    proc = run_script("oracle_sweep.py", "--k-max", "0", "--x-max", "1000")
    assert proc.returncode == 0, proc.stderr
    assert "k = 0: (9,5,2), (559,5,7)" in proc.stdout
    assert "D=1, lam=1, n in [3,20], x <= 1e5: none (expected none)" in proc.stdout
    assert "D=2, lam=1, n=3, x <= 100: [(5, 3, 3)] (expected [(5, 3, 3)])" in proc.stdout


def test_reproduce_theorem_replays():
    proc = run_script("reproduce_theorem.py", "--k-max", "0", "--skip-oracle", "--replay")
    assert proc.returncode == 0, proc.stderr
    assert "x = 9, y = 5, n = 2" in proc.stdout
    assert "replay: all steps reproduced" in proc.stdout


def test_reproduce_theorem_counts_oracle_triples():
    proc = run_script("reproduce_theorem.py", "--k-max", "0", "--x-max", "1000", "--replay")
    assert proc.returncode == 0, proc.stderr
    assert "oracle cross-check: 2 triples with x <= 1000, agreed" in proc.stdout
    assert "replay: all steps reproduced" in proc.stdout
