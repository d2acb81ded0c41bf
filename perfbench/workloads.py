"""The four workloads: the ops each pass runs and the gate on every output.

A pass calls ``WORKLOADS[name](p)`` with a ``Pass``.  Every op goes through
``Pass.op``, which times it, catches what it raises and checks its output;
a raised exception or a wrong output counts as a failed op.  Reference
solution sets come from ``theorem_solution_set`` restricted to each op's
window, computed before the op's clock starts.  CLI stdout is compared with
sha256 digests recorded at the commit the benchmark was defined on
(``golden.json``), so a one-byte change in default output fails the op.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from ln_kit import equation_model, oracle
from ln_kit.equation_model import LNInstance
from ln_kit.oracle import SearchWindow
from ln_kit.solver import ProofStep, ProofTrace, solve, verify_solution_completeness
from speedprobe import REFERENCE_S, probe

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

N_MAX = 30
X_MAX = 10**7

# one fresh `python -m ln_kit` process per README command, in this order
CLI_COMMANDS = [
    ("classnum", ["classnum", "--disc", "-19"]),
    ("lucas", ["lucas", "--p", "1", "--q", "5", "--n", "7"]),
    ("primdiv", ["primdiv", "--p", "1", "--q", "5", "--n", "13"]),
    ("family", ["family", "--k", "7", "--kind", "all"]),
    ("oracle", "oracle --d 7 --lam 1 --n-min 2 --n-max 15 --x-max 1000000".split()),
    ("solve", ["solve", "--k", "7", "--skip-oracle", "--trace"]),
    ("verify", ["verify", "--k", "1", "--x-max", "100000"]),
]
CLI_WINDOWS = {"verify": (1, 2, N_MAX, 100_000)}


class Mismatch(Exception):
    """An op returned, but its output is wrong."""


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def reference(k: int, n_min: int = 2, n_max: int = N_MAX, x_max: int | None = None):
    """The theorem's solutions for instance k inside the window, as tuples."""
    sols = equation_model.theorem_solution_set(LNInstance(k), n_max)
    return {
        s.as_tuple()
        for s in sols
        if n_min <= s.n and (x_max is None or s.x <= x_max)
    }


def _triples(rows: list[dict[str, Any]]) -> set[tuple[int, int, int]]:
    return {(int(r["x"]), int(r["y"]), int(r["n"])) for r in rows}


def _compare(what: str, got: set, expected: set) -> None:
    if got != expected:
        raise Mismatch(
            f"{what}: missing {sorted(expected - got)}, extra {sorted(got - expected)}"
        )


class Pass:
    """State of one pass: op records, output fingerprints and traced spans."""

    def __init__(self, spec: dict[str, Any], tracer: Any, env: dict[str, str]):
        self.spec = spec
        self.rng = random.Random(f"{spec['seed']}/{spec['pass_id']}")
        self.tracer = tracer
        self.env = env
        self.records: list[dict[str, Any]] = []
        self.fingerprint: dict[str, str] = {}
        self.steps: Counter[str] = Counter()
        self.windows: list[tuple[int, int, int, int]] = []
        self.stdout_bytes: dict[str, int] = {}
        self.trace_bytes = 0
        self.op_roots: set[int] = set()

    def op(
        self,
        name: str,
        span: str,
        fn: Callable[[], Any],
        check: Callable[[Any], Any],
        *,
        timed: bool = True,
        attrs: dict[str, Any] | None = None,
    ) -> Any:
        """Run fn once, timed; gate its output with check.

        check returns a JSON-able fingerprint of a correct output or raises
        Mismatch.  Returns fn's output, or None if fn raised.  Untimed ops
        (checks kept out of wall_s) are still attempted and can fail.
        """
        idx = None
        before = probe()
        t0 = time.perf_counter()
        if self.tracer is not None:
            idx = self.tracer.open(span, t0)
        out, error, wrong = None, None, False
        try:
            out = fn()
        except Exception as exc:  # a raised exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        after = probe()
        if idx is not None:
            self.tracer.close(idx, t1)
            self.tracer.spans[idx][4] = attrs
            if timed:
                self.op_roots.add(idx)
        if error is None:
            try:
                self.fingerprint[name] = digest(
                    json.dumps(check(out), sort_keys=True, default=str)
                )
            except Exception as exc:  # an output the gate cannot read is wrong too
                error, wrong = f"wrong output: {type(exc).__name__}: {exc}", True
        self.records.append(
            {
                "name": name,
                "latency_s": t1 - t0,
                "probe_s": [before, after],
                "timed": timed,
                "ok": error is None,
                "wrong": wrong,
                "error": error,
            }
        )
        return out

    def skip(self, name: str, reason: str, *, timed: bool = True) -> None:
        """An op that could not run because an op it depends on raised."""
        self.records.append(
            {
                "name": name,
                "latency_s": 0.0,
                "probe_s": [REFERENCE_S, REFERENCE_S],
                "timed": timed,
                "ok": False,
                "wrong": False,
                "error": f"not run: {reason}",
            }
        )

    # -- gates ------------------------------------------------------------

    def solve_check(self, k: int, *, oracle_on: bool) -> Callable[[Any], Any]:
        expected = reference(k)

        def check(out):
            sols, trace = out
            got = {s.as_tuple() for s in sols}
            _compare(f"solve({k}) solutions", got, expected)
            if oracle_on and not trace.oracle_checked:
                raise Mismatch(f"solve({k}) skipped the oracle cross-check")
            self.steps.update(step.op for step in trace.steps)
            return {"solutions": sorted(map(str, got)), "steps": len(trace.steps)}

        return check

    def verify_check(self, window: SearchWindow) -> Callable[[Any], Any]:
        expected = reference(window.k, window.n_min, window.n_max, window.x_max)

        def check(out):
            ok, report = out
            _compare("verify oracle side", _triples(report["oracle"]), expected)
            _compare("verify theorem side", _triples(report["theorem"]), expected)
            if not ok:
                raise Mismatch("verify reported a mismatch")
            return report

        return check

    def cli_check(self, name: str) -> Callable[[Any], Any]:
        def check(proc):
            if proc.returncode != 0:
                raise Mismatch(f"exit {proc.returncode}: {proc.stderr[-300:]!r}")
            got = digest(proc.stdout)
            if got != GOLDEN[name]:
                raise Mismatch(f"stdout sha256 {got} != golden {GOLDEN[name]}")
            self.stdout_bytes[name] = len(proc.stdout)
            for line in proc.stdout.splitlines():
                row = json.loads(line)
                if row.get("kind") == "trace_step":
                    self.steps[row["op"]] += 1
            return got

        return check

    def run_cli(self, argv: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "ln_kit", *argv]
            return subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        out = HERE / "out" / f"cli-spans-{self.spec['pass_id']}.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(out), *argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, timeout=120)
        if out.exists():
            self.tracer.adopt(json.loads(out.read_text()), self.tracer.current())
            out.unlink()
        return proc


def replay_check(bad: Any) -> Any:
    if bad != []:
        raise Mismatch(f"{len(bad)} steps diverged on replay, first {bad[:3]}")
    return bad


def replay_from_json(text: str) -> list[str]:
    """Parse a serialized trace, rebuild it from ProofSteps and replay it."""
    data = json.loads(text)
    trace = ProofTrace(
        k=data["k"],
        n_max=data["n_max"],
        steps=[ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]],
    )
    return trace.replay()


# -- workloads ------------------------------------------------------------


def crosscheck_small_k(p: Pass) -> None:
    ks = list(range(5))
    p.rng.shuffle(ks)
    for k in ks:
        p.windows.append((k, 2, N_MAX, X_MAX))
        p.op(
            f"solve_k{k}",
            "solver.solve",
            lambda: solve(k),
            p.solve_check(k, oracle_on=True),
        )


def verify_large_d(p: Pass) -> None:
    window = SearchWindow(5, 2, N_MAX, X_MAX)
    p.windows.append((5, 2, N_MAX, X_MAX))
    p.op(
        "verify_k5",
        "solver.verify_solution_completeness",
        lambda: verify_solution_completeness(5, window),
        p.verify_check(window),
    )


def proof_deep(p: Pass) -> Callable[[], None] | None:
    """solve(49) then, in seed order, replay and serialize its trace.

    Returns the JSON round-trip replay check, which the pass runs after the
    timed ops so that its time stays out of wall_s.
    """
    out = p.op(
        "solve_k49",
        "solver.solve",
        lambda: solve(49, cross_check=False),
        p.solve_check(49, oracle_on=False),
    )
    if out is None:
        p.skip("replay", "solve_k49 raised")
        p.skip("serialize", "solve_k49 raised")
        if p.spec["json_check"]:
            p.skip("replay_json", "solve_k49 raised", timed=False)
        return None
    trace = out[1]
    expected = reference(49)
    text: list[str] = []

    def serialize_check(s: str) -> Any:
        data = json.loads(s)
        _compare("serialized solutions", _triples(data["solutions"]), expected)
        if len(data["steps"]) != len(trace.steps):
            raise Mismatch(f"{len(data['steps'])} serialized steps, {len(trace.steps)} recorded")
        p.trace_bytes = len(s.encode())
        text.append(s)
        return digest(s)

    later = [
        lambda: p.op(
            "replay",
            "solver.replay",
            trace.replay,
            replay_check,
            attrs={"steps": dict(Counter(s.op for s in trace.steps))},
        ),
        lambda: p.op(
            "serialize",
            "solver.serialize",
            lambda: json.dumps(trace.to_jsonable()),
            serialize_check,
        ),
    ]
    p.rng.shuffle(later)
    for run in later:
        run()
    if not p.spec["json_check"]:
        return None

    def json_roundtrip() -> None:
        if not text:
            p.skip("replay_json", "serialize failed", timed=False)
            return
        p.op(
            "replay_json",
            "solver.replay_json",
            lambda: replay_from_json(text[0]),
            replay_check,
            timed=False,
        )

    return json_roundtrip


def cli_cold(p: Pass) -> None:
    for name, argv in CLI_COMMANDS:
        if name in CLI_WINDOWS:
            p.windows.append(CLI_WINDOWS[name])
        p.op(f"cli.{name}", f"cli.{name}", lambda: p.run_cli(argv), p.cli_check(name))


WORKLOADS: dict[str, Callable[[Pass], Any]] = {
    "crosscheck_small_k": crosscheck_small_k,
    "verify_large_d": verify_large_d,
    "proof_deep": proof_deep,
    "cli_cold": cli_cold,
}


def decompose_scans(windows: list[tuple[int, int, int, int]]) -> tuple[float, float]:
    """Seconds of the oracle on the n = 2 and on the n >= 3 part of each window.

    Calls ln_kit.oracle.brute_force directly, which no wrapper rebinds.
    """
    n2 = n3up = 0.0
    for k, n_min, n_max, x_max in windows:
        if n_min <= 2:
            t0 = time.perf_counter()
            oracle.brute_force(SearchWindow(k, 2, 2, x_max))
            n2 += time.perf_counter() - t0
        if n_max >= 3:
            t0 = time.perf_counter()
            oracle.brute_force(SearchWindow(k, max(3, n_min), n_max, x_max))
            n3up += time.perf_counter() - t0
    return n2, n3up


def selftest(p: Pass) -> list[str]:
    """Inject one dropped solution and one off-by-one-byte CLI output.

    Both must count as failed ops, and their untouched controls must pass.
    Returns what went wrong, empty when the gates work.
    """

    def drop_one():
        sols, trace = solve(0, cross_check=False)
        return sols[1:], trace

    def flip_one_byte(proc):
        out = bytes([proc.stdout[0] ^ 1]) + proc.stdout[1:]
        return subprocess.CompletedProcess(proc.args, proc.returncode, out, proc.stderr)

    p.op("solve_k0", "selftest", lambda: solve(0, cross_check=False), p.solve_check(0, oracle_on=False))
    p.op("solve_k0_drop_one", "selftest", drop_one, p.solve_check(0, oracle_on=False))
    argv = dict(CLI_COMMANDS)["classnum"]
    proc = p.op("cli.classnum", "selftest", lambda: p.run_cli(argv), p.cli_check("classnum"))
    if proc is not None:
        p.op("cli.classnum_one_byte", "selftest", lambda: flip_one_byte(proc), p.cli_check("classnum"))
    want = {
        "solve_k0": True,
        "solve_k0_drop_one": False,
        "cli.classnum": True,
        "cli.classnum_one_byte": False,
    }
    got = {r["name"]: r["ok"] for r in p.records}
    return [
        f"{name}: expected {'pass' if ok else 'fail'}, got {got.get(name, 'not run')}"
        for name, ok in want.items()
        if got.get(name) is not ok
    ]
