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
HUGE = str(10**400)  # past any float: refused in the digit limit's words
LIMIT_WORDS = "digits, over the 4300-digit limit of int-to-str conversion"
BUDGET_WORDS = "over the scan budget of 100000000"
# a k whose price of building 19^(2k+1) has about 8,000 digits
K_4000 = str(10**3999)

# (argv, exit status[, words stderr must hold]): the first rows once ran for
# seconds or more; the rest give one huge value to each integer flag of
# each command
HUGE_INPUTS = [
    ("oracle --k 0 --n-max 1000000 --x-max 10", 0),
    # 3y^2 - 1 is never a square mod 8: within the budget, nothing to test
    ("oracle --d 1 --lam 3 --n-min 2 --n-max 2 --x-max 300000000", 0),
    ("verify --k 0 --n-max 1000000", 0),
    ("oracle --k 3000 --n-max 1000", 0),
    ("verify --k 3000 --n-max 1000", 0),
    ("oracle --k 3000 --n-max 1000000000", 2),
    ("verify --k 3000 --n-max 1000000000", 2),
    ("oracle --k 30000", 0),
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
    (f"family --k 0 --kind n1 --t {10**2200}", 2, LIMIT_WORDS),
    (f"lucas --p {BIG} --q 1 --n 6", 2),
    (f"primdiv --p 1 --q {BIG} --n 10", 2),
    ("primdiv --p 1 --q 5 --n 1000000000", 2),
    (f"verify --k 2 --x-max {BIG}", 2),
    ("verify --k 0 --n-min 99999999 --n-max 100000000", 0),
    (f"lucas --p 1 --q 5 --n {HUGE}", 2, LIMIT_WORDS),
    (f"primdiv --p 1 --q 5 --n {HUGE}", 2, LIMIT_WORDS),
    (f"family --k {HUGE} --kind n2 --t 0", 2, LIMIT_WORDS),
    (f"family --k {HUGE} --kind all", 2, LIMIT_WORDS),
    ("oracle --k 1000000", 2, BUDGET_WORDS),
    ("verify --k 1000000", 2, BUDGET_WORDS),
    ("oracle --k 1000000000", 2, BUDGET_WORDS),
    ("verify --k 1000000000", 2, BUDGET_WORDS),
    (f"oracle --k {HUGE}", 2, BUDGET_WORDS),
    (f"verify --k {HUGE}", 2, BUDGET_WORDS),
    (f"oracle --k {K_4000}", 2, BUDGET_WORDS, "<int of 26563 bits>"),
    (f"verify --k {K_4000}", 2, BUDGET_WORDS, "<int of 26563 bits>"),
]


def test_huge_inputs_end_in_seconds():
    start = time.perf_counter()
    for argv, status, *words in HUGE_INPUTS:
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
        for w in words:
            assert w in proc.stderr, (argv[:80], proc.stderr[-300:])
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
