"""Smoke runs of the scripts under scripts/, each in a fresh interpreter."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_theorem_replays():
    proc = run_script("reproduce_theorem.py", "--k-max", "0", "--skip-oracle", "--replay")
    assert proc.returncode == 0, proc.stderr
    assert "x = 9, y = 5, n = 2" in proc.stdout
    assert "  replay: all steps reproduced\n" in proc.stdout
    assert "  replay from JSON: all steps reproduced\n" in proc.stdout


def test_reproduce_theorem_counts_oracle_triples():
    proc = run_script("reproduce_theorem.py", "--k-max", "0", "--x-max", "1000", "--replay")
    assert proc.returncode == 0, proc.stderr
    assert "oracle cross-check: 2 triples with x <= 1000, agreed" in proc.stdout
    assert "  replay: all steps reproduced\n" in proc.stdout
    assert "  replay from JSON: all steps reproduced\n" in proc.stdout


def test_reproduce_theorem_prints_the_count_and_the_first_divergence():
    from ln_kit.solver import solve

    script = load_script("reproduce_theorem")
    _, trace = solve(1, n_max=7, cross_check=False)
    assert script.replay_verdict(trace) == "all steps reproduced"
    n = len(trace.steps)
    trace.steps.clear()
    assert script.replay_verdict(trace) == (
        f"{n} divergences, first: step 0 no_19z2_solutions: missing from the trace"
    )


def canned_run(wall_s, peak_mb, failed=0, tree="abc123"):
    final = {
        "correct": failed == 0,
        "attempted": 28,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        },
    }
    return "\n".join(
        [
            "perfbench workload=proof_deep seed=1 trace=0 passes=9 untraced + 0 traced",
            "env python: 3.11.7",
            "env nproc: 2",
            f"env src_sha256: {tree}",
            "env load_avg_before: (0.5, 0.4, 0.3)",
            f"wall_s = {wall_s} s (median of 9 passes)",
            json.dumps(final),
        ]
    )


def test_bench_record_aggregates_canned_runs():
    bench = load_script("bench_record")
    pairs = ((0.4, 70.0), (0.2, 69.0), (0.3, 71.0), (0.1, 68.0))
    parsed = [bench.parse_run(canned_run(w, m)) for w, m in pairs]
    assert parsed[0]["env"]["src_sha256"] == "abc123"
    assert parsed[0]["env"]["python"] == "3.11.7"
    summary = bench.aggregate({"proof_deep": parsed})["proof_deep"]
    assert (summary["runs"], summary["correct"], summary["failed"]) == (4, True, 0)
    assert summary["attempted"] == 4 * 28
    wall = summary["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["median"] == pytest.approx(0.25)
    assert (wall["q1"], wall["q3"]) == (pytest.approx(0.175), pytest.approx(0.325))
    assert wall["values"] == [0.4, 0.2, 0.3, 0.1]
    assert summary["metrics"]["peak_rss_mb"]["median"] == pytest.approx(69.5)
    failing = bench.aggregate({"w": [bench.parse_run(canned_run(0.3, 70.0, failed=1))]})
    assert failing["w"]["correct"] is False and failing["w"]["failed"] == 1
    mixed = [bench.parse_run(canned_run(0.3, 70.0, tree=t)) for t in ("abc", "def")]
    with pytest.raises(ValueError, match="different source trees"):
        bench.aggregate({"proof_deep": mixed})


def test_bench_record_counts_the_lines_of_each_module(tmp_path):
    bench = load_script("bench_record")
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b.py").write_text("\n\n\nz = 3")  # no newline at the end
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert bench.src_lines(tmp_path) == {"modules": {"a.py": 2, "b.py": 3}, "total": 5}
    modules = bench.src_lines(ROOT / "src" / "ln_kit")["modules"]
    assert "lucas_engine.py" in modules and "__init__.py" in modules


CANNED_TIER1 = """\
........................................................................ [ 15%]
...F.................................................................... [ 31%]
=================================== FAILURES ===================================
________________________ test_deep_trace_bytes_pinned _________________________
E       assert 'a' == 'b'
============================= slowest 10 durations =============================
10.40s call     tests/test_huge_inputs.py::test_huge_inputs_end_in_seconds
2.12s call     tests/test_lucas_engine.py::test_factorize_matches_reference
0.50s setup    tests/test_solver.py::test_deep_trace_bytes_pinned
0.01s call     tests/test_cli.py::test_refusals[--k 10**400]
=========================== short test summary info ============================
FAILED tests/test_solver.py::test_deep_trace_bytes_pinned - assert 'a' == 'b'
1 failed, 457 passed in 31.40s
"""


def test_bench_record_parses_a_tier1_run_failures_included():
    bench = load_script("bench_record")
    tier1 = bench.parse_tier1(CANNED_TIER1, 32.04)
    assert (tier1["wall_s"], tier1["passed"], tier1["failed"]) == (32.04, 457, 1)
    assert tier1["slowest"][0] == {
        "test": "tests/test_huge_inputs.py::test_huge_inputs_end_in_seconds",
        "phase": "call",
        "s": 10.4,
    }
    assert [t["s"] for t in tier1["slowest"]] == [10.4, 2.12, 0.5, 0.01]
    assert tier1["slowest"][3]["test"] == "tests/test_cli.py::test_refusals[--k 10**400]"
    errors = bench.parse_tier1("1 passed, 2 errors in 0.10s\n", 0.2)
    assert (errors["passed"], errors["failed"]) == (1, 2)
    with pytest.raises(ValueError, match="no summary line"):
        bench.parse_tier1("", 0.1)


def test_bench_record_never_overwrites(tmp_path, monkeypatch, capsys):
    bench = load_script("bench_record")
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "run_tier1", lambda: bench.parse_tier1(CANNED_TIER1, 21.0))
    # a canned run for every workload and seed: 0.3 s on odd seeds, 0.5 s on even
    monkeypatch.setattr(
        bench,
        "run_bench",
        lambda workload, seed, seconds: bench.parse_run(
            canned_run(0.3 if seed % 2 else 0.5, 70.0)
        ),
    )
    argv = ["--number", "7"]
    assert bench.main(argv) == 0
    written = (tmp_path / "BENCH_7.json").read_text()
    record = json.loads(written)
    assert record["number"] == 7 and record["seeds"] == list(range(1, 11))
    assert record["env"]["src_sha256"] == "abc123"
    assert record["tier1"]["command"].endswith("--durations=10")
    assert (record["tier1"]["passed"], record["tier1"]["failed"]) == (457, 1)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench_spec["workloads"]]
    assert list(record["workloads"]) == names
    for summary in record["workloads"].values():
        assert summary["runs"] == 10
        assert summary["metrics"]["wall_s"]["median"] == pytest.approx(0.4)

    def no_run(*args):
        raise AssertionError("ran the benchmark although the record exists")

    monkeypatch.setattr(bench, "run_bench", no_run)
    monkeypatch.setattr(bench, "run_tier1", no_run)
    assert bench.main(argv) == 2
    assert "not overwritten" in capsys.readouterr().err
    assert (tmp_path / "BENCH_7.json").read_text() == written
