"""Huge inputs end with exit 0 or 2 within seconds, and a closed stdout ends
quietly.  Each row runs `python -m ln_kit` in a fresh process."""

import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
BIG = str(10**1000)

# (argv, exit status): the first rows once ran for seconds or more; the
# rest give one huge value to each integer flag of each command
HUGE_INPUTS = [
    ("oracle --k 0 --n-max 1000000 --x-max 10", 0),
    ("verify --k 0 --n-max 1000000", 0),
    ("classnum --disc -100000000003", 2),
    ("solve --k 2000 --n-max 2 --skip-oracle", 2),
    ("family --k 3000 --kind all", 2),
    ("lucas --p 1 --q 5 --n 1000000000000", 2),
    ("primdiv --p 1 --q 5 --n 2000", 0),
    ("solve --k 3000", 2),
    ("solve --k 0 --n-max 1000000000", 2),
    (f"solve --k 0 --x-max {BIG}", 2),
    (f"oracle --d {BIG} --lam {BIG}", 0),
    (f"oracle --d 7 --lam 2 --x-max {10**12}", 2),
    ("oracle --k 0 --n-min 99999999 --n-max 100000000", 0),
    ("oracle --k 0 --n-max 1000000000", 2),
    ("family --k 3000 --kind n2 --t 3000", 0),
    ("family --k 7000 --kind n7 --m 1000", 2),
    (f"family --k 0 --kind n1 --t {10**2200}", 2),
    ("family --k 0 --kind all --n-max 1000000000", 0),
    (f"lucas --p {BIG} --q 1 --n 6", 2),
    (f"primdiv --p 1 --q {BIG} --n 10", 2),
    ("primdiv --p 1 --q 5 --n 1000000000", 2),
    (f"verify --k 2 --x-max {BIG}", 2),
    ("verify --k 0 --n-min 99999999 --n-max 100000000", 0),
]


def test_huge_inputs_end_in_seconds():
    start = time.perf_counter()
    for argv, status in HUGE_INPUTS:
        row = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ln_kit", *argv.split()],
            capture_output=True,
            text=True,
            env=ENV,
            timeout=10,
        )
        assert time.perf_counter() - row < 10.0, argv[:80]
        assert proc.returncode == status, (argv[:80], proc.stderr[-300:])
        assert "Traceback" not in proc.stderr, argv[:80]
        if status == 2:
            assert proc.stdout == "" and proc.stderr.startswith("ln-kit: "), argv[:80]
    assert time.perf_counter() - start < 20.0


def test_reader_closing_stdout_ends_quietly():
    # the trace is megabytes long, so the write after the first line fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "ln_kit", *"solve --k 49 --skip-oracle --trace".split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=ENV,
    )
    assert proc.stdout.readline().startswith(b'{"k":49,"kind":"solution"')
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_stdout_closed_before_the_first_write_ends_quietly():
    # one short line stays buffered until the final flush, which fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ln_kit", *"lucas --p 1 --q 5 --n 7".split()],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=ENV,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
