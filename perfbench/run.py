#!/usr/bin/env python3
"""ln-kit benchmark: one command per workload run, every output gated.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see perfbench/README.md): crosscheck_small_k, verify_large_d,
proof_deep, cli_cold.  Each pass is a fresh interpreter running
perfbench/passrun.py, one at a time, so the load is one single-threaded
process.  The number of passes is the work ``--seconds`` buys at the pass
cost measured when the benchmark was defined (PLAN), so both sides of a
comparison run the same ops and the tail percentile sits at the same rank.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics.  The
last stdout line is one JSON object with keys correct, attempted, failed and
metrics.  Any error exits non-zero without printing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from speedprobe import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# workload -> (seconds one untraced pass took on the reference host when the
# benchmark was defined, minimum passes).  The minimums keep enough samples of each
# op type for steady percentiles.
PLAN = {
    "crosscheck_small_k": (6.2, 5),
    "verify_large_d": (1.2, 16),
    "proof_deep": (4.1, 9),
    "cli_cold": (2.2, 3),
}
STOP_STARTING_AFTER_S = 120.0  # a run ends well inside 180 s even on a slow host
PASS_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> tuple[dict[str, str], str]:
    env = dict(os.environ)
    threads = env.pop("LN_KIT_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    note = (
        "LN_KIT_THREADS removed from child env (was unset)"
        if threads is None
        else f"LN_KIT_THREADS removed from child env (was {threads!r})"
    )
    return env, note


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (checkout has no .git)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_pass(spec: dict[str, Any], env: dict[str, str], timeout: float) -> dict[str, Any]:
    cmd = [sys.executable, str(HERE / "passrun.py"), json.dumps(spec)]
    # own session, so a timeout also stops the CLI processes the pass started
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass {spec} timed out after {timeout:.0f} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {spec} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def corrected(seconds: float, probes: list[float]) -> float:
    """A time scaled to the reference host's quiet speed, by the probe runs
    that bracketed it (see speedprobe.py)."""
    return seconds * REFERENCE_S / statistics.fmean(probes)


def pass_wall(res: dict[str, Any]) -> float:
    """Corrected wall_s of one pass: its timed op latencies, corrected."""
    return sum(
        corrected(rec["latency_s"], rec["probe_s"]) for rec in res["records"] if rec["timed"]
    )


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest rank with ten
    samples beyond it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def consistent(results: list[dict[str, Any]]) -> list[str]:
    """Ops whose output fingerprint differs between passes."""
    seen: dict[str, set[str]] = {}
    for res in results:
        for name, fp in res["fingerprint"].items():
            seen.setdefault(name, set()).add(fp)
    return sorted(name for name, fps in seen.items() if len(fps) > 1)


def end_to_end(untraced: list[dict[str, Any]], workload: str) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts, host-speed corrected."""
    ops = [[rec for rec in r["records"] if rec["timed"]] for r in untraced]
    lat = [corrected(rec["latency_s"], rec["probe_s"]) for recs in ops for rec in recs if rec["ok"]]
    if not lat:
        raise BenchError("no timed op succeeded")
    tail_s, tail_pct, beyond = tail(lat)
    per_pass = f"median of {len(untraced)} passes"
    metrics = {
        "setup_s": statistics.median(corrected(r["setup_s"], r["setup_probe_s"]) for r in untraced),
        "wall_s": statistics.median(pass_wall(r) for r in untraced),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    samples = {
        "setup_s": per_pass,
        "wall_s": per_pass,
        "op_p50_s": f"p50 of {len(lat)} ops",
        "op_tail_s": f"p{tail_pct:.1f} of {len(lat)} ops, {beyond} beyond",
        "peak_rss_mb": per_pass + (" (largest child)" if workload == "cli_cold" else ""),
    }
    raw = {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "op_p50_s": statistics.median(rec["latency_s"] for recs in ops for rec in recs if rec["ok"]),
    }
    for name, value in raw.items():
        print(f"raw {name} = {value:.6f} s (uncorrected, {samples[name]})")
    probes = [p for recs in ops for rec in recs for p in rec["probe_s"]]
    print(f"speed: median probe {statistics.median(probes) * 1e3:.3f} ms, "
          f"reference {REFERENCE_S * 1e3:.3f} ms; passes pinned to CPUs "
          f"{sorted({r['pinned']['cpu'] for r in untraced})}")
    for op in ("replay", "serialize"):
        xs = [corrected(rec["latency_s"], rec["probe_s"]) for recs in ops for rec in recs
              if rec["name"] == op and rec["ok"]]
        if xs:
            print(f"{op}_s = {statistics.median(xs)} s (median of {len(xs)} ops)")
    return metrics, samples


def per_layer(
    declared: list[dict[str, Any]], untraced: list[dict[str, Any]], traced: list[dict[str, Any]]
) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced passes, except the CLI numbers
    (untraced passes) and the tracing overhead (both kinds)."""
    metrics: dict[str, float] = {}
    samples: dict[str, str] = {}
    for name in (m["name"] for m in declared):
        if name.startswith(("cli.cold_s.", "cli.stdout_bytes.")):
            cmd = name.rsplit(".", 1)[1]
            if name.startswith("cli.cold_s."):
                xs = [rec["latency_s"] for r in untraced for rec in r["records"]
                      if rec["name"] == f"cli.{cmd}" and rec["ok"]]
            else:
                xs = [r["stdout_bytes"][cmd] for r in untraced if cmd in r["stdout_bytes"]]
            metrics[name] = statistics.median(xs) if xs else 0
            samples[name] = f"median of {len(xs)} untraced passes"
        elif name == "trace.overhead_s":
            metrics[name] = (statistics.median(pass_wall(r) for r in traced)
                             - statistics.median(pass_wall(r) for r in untraced))
            samples[name] = (f"traced minus untraced median corrected wall_s, "
                             f"{len(traced)}+{len(untraced)} passes")
        else:
            xs = [r["layers"][name] for r in traced if name in r["layers"]]
            metrics[name] = statistics.median(xs) if xs else 0
            samples[name] = f"median of {len(xs)} traced passes"
    missing_targets = sorted({t for r in traced for t in r["missing_targets"]})
    replay_missing = traced[0]["replay_missing"]
    print("unobserved: wrap targets not found: " + (", ".join(missing_targets) or "none"))
    print("unobserved: replayed steps with no span (REPLAY_REGISTRY bound at import): "
          + (", ".join(f"{op} x{c}" for op, c in sorted(replay_missing.items())) or "none"))
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLAN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ln_kit" / "__init__.py").is_file():
        raise BenchError(f"no ln_kit package under {ROOT / 'src'}; nothing to measure")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    env, env_note = child_env()
    (HERE / "out").mkdir(exist_ok=True)
    started = time.monotonic()
    load_before = os.getloadavg()

    # the self-test also compiles the package's bytecode before any timing
    st = run_pass(
        {"selftest": True, "workload": "selftest", "seed": args.seed, "pass_id": "selftest"},
        env,
        PASS_TIMEOUT_S,
    )
    if st["problems"]:
        raise BenchError(f"gate self-test failed: {st['problems']}")

    pass_s, min_passes = PLAN[args.workload]
    n = max(min_passes, math.ceil(args.seconds / pass_s))
    if args.trace:
        pairs = max(2, math.ceil(n / 3))
        schedule = [bool(i % 2) for i in range(2 * pairs)]  # untraced first
    else:
        schedule = [False] * n
    results: list[dict[str, Any]] = []
    for i, traced in enumerate(schedule):
        elapsed = time.monotonic() - started
        if i >= 2 and elapsed > STOP_STARTING_AFTER_S:
            break
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "pass_id": i,
            "traced": traced,
            # the JSON round-trip replay runs once per run, on the first
            # traced pass (or the first pass when nothing is traced)
            "json_check": i == schedule.index(bool(args.trace)),
        }
        res = run_pass(spec, env, max(10.0, PASS_TIMEOUT_S - elapsed))
        res["traced"] = traced
        results.append(res)
    load_after = os.getloadavg()

    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    records = [rec for r in results for rec in r["records"]]
    attempted = len(records)
    failed = sum(not rec["ok"] for rec in records)
    problems = [f"{rec['name']}: {rec['error']}" for rec in records if not rec["ok"]]
    correct = not any(rec["wrong"] for rec in records)
    drift = consistent(results)
    if drift:
        correct = False
        problems.append(f"outputs differ between passes for {drift}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced + {len(traced)} traced")
    env_record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "src_sha256": src_digest(),
        "load_avg_before": load_before,
        "load_avg_after": load_after,
        "env": env_note,
        "load": "one pass process at a time, single-threaded",
    }
    for key, value in env_record.items():
        print(f"env {key}: {value}")
    print("selftest: dropped solution and one-byte CLI change both counted as failed ops")

    if args.trace:
        self_bad = [r["self_sum_s"] - r["wall_s"] for r in traced
                    if r["self_sum_s"] > r["wall_s"] * (1 + 1e-9) + 1e-9]
        if self_bad:
            correct = False
            problems.append(f"span self times exceed wall_s by {self_bad}")
        metrics, samples = per_layer(declared, untraced, traced)
    else:
        metrics, samples = end_to_end(untraced, args.workload)

    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise BenchError(f"declared metrics not produced: {missing}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit} ({samples[name]})")
    print(f"fail_ratio = {failed}/{attempted} ({failed} failed of {attempted} attempted ops)")
    for line in problems:
        print(f"failed: {line}")

    record = {"args": vars(args), "env": env_record, "problems": problems,
              "metrics": metrics, "passes": results}
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
