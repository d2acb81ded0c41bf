"""Spans around calls into each ln_kit module, recorded from outside the package.

A function is wrapped by rebinding the name its caller looks up (for example
``ln_kit.solver.brute_force``), so nothing under ``src/`` is edited.  Spans
are kept in memory as ``[name, start, end, parent, attrs]`` with
``time.perf_counter`` stamps (CLOCK_MONOTONIC on Linux, so spans written by a
child process line up with the parent's) and are written out when the run
ends.

Known blind spot: ``ln_kit.solver.REPLAY_REGISTRY`` bound several caseworks
procedures at import time, so replaying a trace calls them without passing
through the rebound names.  ``layer_metrics`` counts those steps as missing
spans instead of estimating their time.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

# (module, attribute the caller looks up, span name).  caseworks.json_safe is
# left out: it is an encoding helper called ~260,000 times by one solve(49),
# and a span on it would cost more than the work it measures.
TARGETS = [
    ("ln_kit.caseworks", "even_case", "caseworks.even_case"),
    ("ln_kit.caseworks", "mod19_forces_p", "caseworks.mod19_forces_p"),
    ("ln_kit.caseworks", "mod19_forces_kt", "caseworks.mod19_forces_kt"),
    ("ln_kit.caseworks", "mod_pow2_insoluble", "caseworks.mod_pow2_insoluble"),
    ("ln_kit.caseworks", "p3_case", "caseworks.p3_case"),
    ("ln_kit.caseworks", "valuation_trichotomy", "caseworks.valuation_trichotomy"),
    ("ln_kit.caseworks", "no_19z2_solutions", "caseworks.no_19z2_solutions"),
    ("ln_kit.caseworks", "perfect_root", "oracle.perfect_root"),
    ("ln_kit.caseworks", "isqrt", "oracle.isqrt"),
    ("ln_kit.solver", "brute_force", "oracle.brute_force"),
    ("ln_kit.solver", "perfect_root", "oracle.perfect_root"),
    ("ln_kit.solver", "primitive_divisor", "lucas_engine.primitive_divisor"),
    ("ln_kit.solver", "bhv_gate", "lucas_engine.bhv_gate"),
    ("ln_kit.solver", "lucas_u", "lucas_engine.lucas_u"),
    ("ln_kit.solver", "qpow", "quadratic_integers.qpow"),
    ("ln_kit.solver", "theorem_solution_set", "equation_model.theorem_solution_set"),
]

# extra names the CLI module looks up; installed only in CLI child processes
CLI_TARGETS = [
    ("ln_kit.cli", "solve", "solver.solve"),
    ("ln_kit.cli", "verify_solution_completeness", "solver.verify_solution_completeness"),
    ("ln_kit.cli", "brute_force", "oracle.brute_force"),
    ("ln_kit.cli", "generalized_scan", "oracle.generalized_scan"),
    ("ln_kit.cli", "primitive_divisor", "lucas_engine.primitive_divisor"),
    ("ln_kit.cli", "lucas_u", "lucas_engine.lucas_u"),
    ("ln_kit.cli", "class_number_imag", "quadratic_integers.class_number_imag"),
    ("ln_kit.cli", "theorem_solution_set", "equation_model.theorem_solution_set"),
    ("ln_kit.cli", "instantiate_family", "equation_model.instantiate_family"),
]

# op names a ProofTrace could hold when the benchmark was defined, one step
# counter each
STEP_OPS = (
    "no_19z2_solutions",
    "even_case",
    "mod19_forces_p",
    "mod19_forces_kt",
    "mod_pow2_insoluble",
    "bhv_gate",
    "always_primitive_closure",
    "p3_case",
    "primitive_divisor",
    "defect_table",
    "lucas_u",
    "defective_pair_expansion",
    "composite_lift",
    "valuation_trichotomy",
    "oracle_cross_check",
)

# trace op -> span its replay should open, for the ops that call a wrapped name
REPLAY_SPANS = {
    "even_case": "caseworks.even_case",
    "mod19_forces_p": "caseworks.mod19_forces_p",
    "mod19_forces_kt": "caseworks.mod19_forces_kt",
    "mod_pow2_insoluble": "caseworks.mod_pow2_insoluble",
    "p3_case": "caseworks.p3_case",
    "no_19z2_solutions": "caseworks.no_19z2_solutions",
    "valuation_trichotomy": "caseworks.valuation_trichotomy",
    "bhv_gate": "lucas_engine.bhv_gate",
    "primitive_divisor": "lucas_engine.primitive_divisor",
    "lucas_u": "lucas_engine.lucas_u",
}

ORACLE = {
    "oracle.brute_force",
    "oracle.generalized_scan",
    "oracle.perfect_root",
    "oracle.isqrt",
}
SIEVES = {
    "caseworks.mod19_forces_p",
    "caseworks.mod19_forces_kt",
    "caseworks.mod_pow2_insoluble",
}


def _candidates(verdict: Any) -> dict[str, int]:
    return {
        "candidates": sum(
            step.get("candidates_checked", 0) for step in getattr(verdict, "trace", ())
        )
    }


def _solutions(found: Any) -> dict[str, int]:
    return {"solutions": len(found)}


# counts read from a wrapped call's return value
INSPECT: dict[str, Callable[[Any], dict[str, int]]] = {
    "caseworks.p3_case": _candidates,
    "caseworks.no_19z2_solutions": _candidates,
    "oracle.brute_force": _solutions,
    "oracle.generalized_scan": _solutions,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        stamp = time.perf_counter() if start is None else start
        self.spans.append([name, stamp, None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][2] = time.perf_counter() if end is None else end

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def adopt(self, spans: list[list[Any]], parent: int) -> None:
        """Append spans recorded by a child process under one of ours."""
        base = len(self.spans)
        for name, start, end, p, attrs in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, attrs])

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        inspect = INSPECT.get(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if inspect is not None:
                self.spans[idx][4] = inspect(out)
            return out

        return traced


def install(tracer: Tracer, targets: list[tuple[str, str, str]]) -> list[str]:
    """Rebind every target to a traced wrapper; return the targets not found."""
    missing = []
    for module_name, attr, span in targets:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(span, fn))
    return missing


def layer_metrics(
    spans: list[list[Any]], roots: set[int], steps: dict[str, int]
) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer numbers of one pass from the spans under the given op roots.

    Returns the metrics and, per trace op, how many replayed steps opened no
    span (the missing spans under replay).
    """
    dur, child, root = _tree(spans)
    live = [i for i in range(len(spans)) if root[i] in roots]

    def pick(names: set[str]) -> list[int]:
        return [i for i in live if spans[i][0] in names]

    def busy(names: set[str]) -> float:
        # outermost spans only, so a nested call is not counted twice
        total = 0.0
        for i in pick(names):
            j = spans[i][3]
            while j >= 0 and spans[j][0] not in names:
                j = spans[j][3]
            if j < 0:
                total += dur[i]
        return total

    def count(names: set[str], key: str | None = None) -> int:
        if key is None:
            return len(pick(names))
        return sum((spans[i][4] or {}).get(key, 0) for i in pick(names))

    p3, z2 = {"caseworks.p3_case"}, {"caseworks.no_19z2_solutions"}
    val = {"caseworks.valuation_trichotomy"}
    pd = {"lucas_engine.primitive_divisor"}
    out: dict[str, float] = {
        "oracle.busy_s": busy(ORACLE),
        "oracle.calls": count(ORACLE),
        "oracle.solutions": count(ORACLE, "solutions"),
        "oracle.generalized_s": busy({"oracle.generalized_scan"}),
        "caseworks.p3_case.busy_s": busy(p3),
        "caseworks.p3_case.calls": count(p3),
        "caseworks.p3_case.candidates": count(p3, "candidates"),
        "caseworks.no_19z2.busy_s": busy(z2),
        "caseworks.no_19z2.candidates": count(z2, "candidates"),
        "caseworks.sieves.busy_s": busy(SIEVES),
        "caseworks.even_case.busy_s": busy({"caseworks.even_case"}),
        "caseworks.valuation_trichotomy.busy_s": busy(val),
        "caseworks.valuation_trichotomy.calls": count(val),
        "lucas_engine.primitive_divisor.busy_s": busy(pd),
        "lucas_engine.primitive_divisor.calls": count(pd),
        "lucas_engine.bhv_gate.calls": count({"lucas_engine.bhv_gate"}),
        "quadratic_integers.qpow.busy_s": busy({"quadratic_integers.qpow"}),
        "equation_model.theorem_solution_set.busy_s": busy(
            {"equation_model.theorem_solution_set"}
        ),
        "solver.pipeline.self_s": sum(
            dur[i] - child[i] for i in pick({"solver.solve"})
        ),
        "solver.steps": sum(steps.values()),
        "solver.replay.busy_s": busy({"solver.replay"}),
        "solver.serialize.busy_s": busy({"solver.serialize"}),
    }
    for op in STEP_OPS:
        out[f"solver.steps.{op}"] = steps.get(op, 0)

    missing: dict[str, int] = {}
    for r in pick({"solver.replay"}):
        opened: dict[str, int] = {}
        for i in live:
            if spans[i][3] == r:
                opened[spans[i][0]] = opened.get(spans[i][0], 0) + 1
        replayed = (spans[r][4] or {}).get("steps", {})
        for op, span in REPLAY_SPANS.items():
            gap = replayed.get(op, 0) - opened.get(span, 0)
            if gap > 0:
                missing[op] = missing.get(op, 0) + gap
    out["trace.replay_missing_spans"] = sum(missing.values())
    return out, missing


def self_time_sum(spans: list[list[Any]], roots: set[int]) -> float:
    """Sum of the span self times under the given roots.

    Self time is a span's duration minus its children's, floored at zero, so
    the sum exceeds the roots' total only when a child escaped its parent.
    """
    dur, child, root = _tree(spans)
    return sum(
        max(0.0, dur[i] - child[i]) for i in range(len(spans)) if root[i] in roots
    )


def _tree(spans: list[list[Any]]) -> tuple[list[float], list[float], list[int]]:
    """Per span: its duration, its children's total duration, its root index.

    Parents precede their children in the list, so one forward pass works.
    """
    n = len(spans)
    dur = [0.0] * n
    child = [0.0] * n
    root = [0] * n
    for i, (_, start, end, parent, _) in enumerate(spans):
        dur[i] = end - start
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += dur[i]
    return dur, child, root
