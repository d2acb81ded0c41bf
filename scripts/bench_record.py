#!/usr/bin/env python3
"""Run the benchmark in this tree and record its numbers as BENCH_<number>.json.

For every workload in BENCHMARK.json and every seed 1-10 it runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``,
one run at a time, reads the run's ``env`` lines and its final JSON line, and
writes the median and quartiles of each end-to-end metric per workload, with
the environment.  Every record covers the same workloads and seeds, so
records compare across changes.  ``env.src_sha256`` identifies the measured
tree; ``base_commit`` is the commit it was measured on, with ``-dirty`` when
the tree held uncommitted changes.  Before the benchmark it runs the Tier-1
suite once (ROADMAP's command, with ``--durations=10``) and records its wall
seconds, its passed and failed counts and its ten slowest tests as
``tier1``; a failing suite is recorded as it is.  ``src_lines`` holds the
line count of each module of src/ln_kit and their total, the size ROADMAP
aim 2 tracks.  An existing record is never overwritten: the script refuses
before it runs anything.

Usage (from the repository root):
    python3 scripts/bench_record.py --number 7
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]

# env lines that name the host and the tree; the load averages vary per run
ENV_KEYS = ("python", "nproc", "affinity_cpus", "cpu_model", "src_sha256", "load")
SEEDS = list(range(1, 11))
# ROADMAP's Tier-1 command, with the ten slowest tests listed
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
_SLOW = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(.+)$")
_COUNT = re.compile(r"(\d+) (passed|failed|errors?)\b")


def parse_run(stdout: str) -> dict[str, Any]:
    """The final JSON line of one run, plus its ``env key: value`` lines."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    env = {}
    for line in lines:
        if line.startswith("env "):
            key, _, value = line[4:].partition(": ")
            env[key] = value
    result["env"] = env
    return result


def summarize(values: list[float]) -> dict[str, Any]:
    """Median and quartiles (inclusive method) of one metric's run values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def aggregate(runs: dict[str, list[dict[str, Any]]]) -> dict[str, Any]:
    """Per workload: run count, correctness, failed ops and metric summaries.

    runs maps each workload to its parsed runs in seed order.  Every run
    must have measured the same source tree.
    """
    trees = {run["env"].get("src_sha256") for rs in runs.values() for run in rs}
    if len(trees) != 1:
        raise ValueError(
            f"runs measured different source trees: {sorted(map(str, trees))}"
        )
    out: dict[str, Any] = {}
    for workload, rs in runs.items():
        names = list(rs[0]["metrics"])
        out[workload] = {
            "runs": len(rs),
            "correct": all(r["correct"] for r in rs),
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "metrics": {
                name: {
                    "unit": rs[0]["metrics"][name]["unit"],
                    **summarize([r["metrics"][name]["value"] for r in rs]),
                }
                for name in names
            },
        }
    return out


def parse_tier1(stdout: str, wall_s: float) -> dict[str, Any]:
    """The Tier-1 record of one ``pytest -q --durations=10`` output: its
    wall seconds, passed and failed counts (errors count as failed) from the
    summary line, and the slowest tests, slowest first."""
    lines = stdout.strip().splitlines()
    if not lines or " in " not in lines[-1]:
        raise ValueError("the Tier-1 run printed no summary line")
    counts = {"passed": 0, "failed": 0}
    for number, outcome in _COUNT.findall(lines[-1]):
        counts["passed" if outcome == "passed" else "failed"] += int(number)
    slowest = [
        {"test": m[3], "phase": m[2], "s": float(m[1])}
        for m in map(_SLOW.match, lines)
        if m
    ]
    return {"wall_s": round(wall_s, 3), **counts, "slowest": slowest}


def src_lines(package: Path) -> dict[str, Any]:
    """The lines (newlines, as wc -l counts them) of each module of package,
    by file name, and their total."""
    paths = sorted(package.glob("*.py"))
    modules = {p.name: p.read_bytes().count(b"\n") for p in paths}
    return {"modules": modules, "total": sum(modules.values())}


def run_tier1() -> dict[str, Any]:
    """Run the Tier-1 suite once in this tree and parse what it printed."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (f":{path}" if path else "")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *TIER1], cwd=ROOT, capture_output=True, text=True, env=env
    )
    return parse_tier1(proc.stdout, time.perf_counter() - start)


def describe_commit() -> str:
    """HEAD, with a -dirty suffix when the tree has uncommitted changes.

    That names the commit the measured tree started from, not the tree.
    """
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (no git)"


def run_bench(workload: str, seed: int, seconds: float) -> dict[str, Any]:
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-300:]}"
        )
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--number", type=int, required=True, help="the file is BENCH_<number>.json"
    )
    args = ap.parse_args(argv)

    path = ROOT / f"BENCH_{args.number}.json"
    if path.exists():
        print(f"bench_record: {path.name} exists; not overwritten", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    tier1 = run_tier1()
    print(f"tier1: {tier1['passed']} passed, {tier1['failed']} failed", file=sys.stderr)
    runs: dict[str, list[dict[str, Any]]] = {}
    for workload in workloads:
        runs[workload] = []
        for seed in SEEDS:
            runs[workload].append(run_bench(workload, seed, seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
    first_env = next(iter(runs.values()))[0]["env"]
    record = {
        "number": args.number,
        "base_commit": describe_commit(),
        "env": {key: first_env[key] for key in ENV_KEYS if key in first_env},
        "command": " ".join(bench["command"])
        + f" --workload W --seed N --seconds {seconds} --trace 0",
        "seeds": SEEDS,
        "tier1": {"command": " ".join(["python", *TIER1]), **tier1},
        "src_lines": src_lines(ROOT / "src" / "ln_kit"),
        "workloads": aggregate(runs),
    }
    with open(path, "x") as fh:  # "x": fail rather than overwrite
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
