"""Each instance is decided once per process: solve(k) appends instance kk's
shared, read-only block of steps for every kk <= k, keyed by (kk, n_max,
the digit limit), and replay passes a step that is the block's own step
object at once.  No trace byte changes, nothing a trace holds can be edited,
a replaced step is still named, and the blocks hold at most STEP_BUDGET
steps."""

import enum
import gc
import json
import sys
from types import MappingProxyType

import pytest
from conftest import clear_caches, rebuilt_from_json

import ln_kit.solver as solver_mod
from ln_kit import caseworks
from ln_kit.lucas_engine import Frozen
from ln_kit.solver import STEP_BUDGET, ProofStep, ProofTrace, solve

def trace_bytes(trace):
    return json.dumps(trace.to_jsonable(), sort_keys=True).encode()


def test_a_trace_built_from_shared_blocks_has_a_fresh_solves_bytes():
    fresh = {}
    for k in range(8):
        clear_caches()
        fresh[k] = trace_bytes(solve(k)[1])
    for k in range(8):
        for j in range(k + 1):
            clear_caches()
            solve(j)
            assert trace_bytes(solve(k)[1]) == fresh[k], (j, k)


def test_a_crosscheck_pass_decides_each_instance_once(monkeypatch):
    calls = []
    real = caseworks.even_case
    monkeypatch.setattr(
        caseworks, "even_case", lambda k, m: calls.append((k, m)) or real(k, m)
    )
    for k in (3, 0, 4, 1, 2):  # solve(k) for k = 0..4, in some order
        solve(k)
    # 15 even cases (m <= 15) for each of the 5 instances, once each
    assert len(calls) == len(set(calls)) == 75


# the ops solve records outside the instance blocks
OUTSIDE = ("no_19z2_solutions", "valuation_trichotomy", "oracle_cross_check")


def test_a_later_solve_appends_the_blocks_an_earlier_one_recorded():
    _, first = solve(3)
    _, second = solve(4)
    # instances 0..3 come back as the same step objects, in the same places,
    # after the 19Z^2 + 1 step, which each solve records anew
    end = next(i for i, s in enumerate(first.steps) if i and s.op in OUTSIDE)
    assert end > 200
    assert all(first.steps[i] is second.steps[i] for i in range(1, end))
    assert first.steps[0] is not second.steps[0]
    assert first.steps[0].value is second.steps[0].value  # a shared verdict


def read_only(value):
    """Whether value and everything it holds is immutable."""
    if value is None or type(value) in (int, str, bool):
        return True
    if isinstance(value, enum.Enum):
        return True
    if type(value) is tuple:
        return all(map(read_only, value))
    if type(value) is MappingProxyType:
        return all(map(read_only, value.values()))
    if isinstance(value, Frozen):
        return all(read_only(getattr(value, f)) for f in value.__match_args__)
    return False


def edits(value):
    """One in-place edit for each container and frozen object value holds."""
    if type(value) is MappingProxyType:
        key = next(iter(value))
        yield lambda: value.__setitem__(key, 0)
        yield lambda: value.__delitem__(key)
        for v in value.values():
            yield from edits(v)
    elif type(value) is tuple:
        for v in value:
            yield from edits(v)
    elif isinstance(value, Frozen):
        yield lambda: setattr(value, value.__match_args__[0], 0)
        for f in value.__match_args__:
            yield from edits(getattr(value, f))


@pytest.mark.parametrize("k", [0, 7])
def test_no_step_of_a_trace_can_be_edited(k):
    _, trace = solve(k)
    ops = {step.op for step in trace.steps}
    assert len(ops) == (10 if k == 0 else 14)
    for step in trace.steps:
        for field in ("op", "inputs", "value"):
            with pytest.raises(AttributeError):
                setattr(step, field, None)
        # through the property, by index and unpacked: each is the step's own
        _, unpacked, _ = step
        for inputs in (step.inputs, step[1], unpacked):
            with pytest.raises(TypeError):
                inputs[next(iter(inputs))] = 0
            with pytest.raises(TypeError):
                inputs["extra"] = 0
        assert read_only(step.value), step.op
        for edit in edits(step.value):
            with pytest.raises((AttributeError, TypeError)):
                edit()
    assert trace.replay() == []


def test_a_step_replaced_at_a_shared_position_is_named():
    _, first = solve(2, n_max=7, cross_check=False)
    _, trace = solve(3, n_max=7, cross_check=False)  # blocks 0..2 are hits
    i = max(i for i, s in enumerate(first.steps) if s.op == "even_case")
    step = trace.steps[i]
    assert step is first.steps[i]
    verdict = step.value
    for value, expected in (
        # an equal value in a new step object replays clean
        (caseworks.CaseVerdict(verdict.outcome, verdict.reason, trace=verdict.trace), []),
        (
            caseworks.CaseVerdict(verdict.outcome, verdict.reason + ".", trace=verdict.trace),
            [f"step {i} even_case: value differs"],
        ),
    ):
        steps = list(trace.steps)
        steps[i] = ProofStep(step.op, dict(step.inputs), value)
        tampered = ProofTrace(3, 7, steps, trace.solutions)
        assert tampered.replay() == expected
        assert rebuilt_from_json(tampered).replay() == expected
    # and a block step moved one place is named where it lands
    steps = list(trace.steps)
    steps[i], steps[i - 1] = steps[i - 1], steps[i]
    bad = ProofTrace(3, 7, steps, trace.solutions).replay()
    assert [b.split(":")[0] for b in bad] == [f"step {i - 1} even_case", f"step {i} even_case"]


def test_a_lowered_digit_limit_gets_no_block_back(monkeypatch):
    _, trace = solve(1, n_max=13, cross_check=False)
    # |u_13| of (1, 5) is bounded by 5 digits: under a 4-digit limit solve
    # refuses, as a process that never solved would, though its up-front
    # check of 19^3 passes
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4, raising=False)
    with pytest.raises(ValueError, match="u_n would have about 5 digits"):
        solve(1, n_max=13, cross_check=False)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5, raising=False)
    _, again = solve(1, n_max=13, cross_check=False)
    assert again.steps == trace.steps
    assert not any(a is b for a, b in zip(again.steps[1:], trace.steps[1:]))


def held_steps():
    """The steps the instance cache holds, read off the cache's own entries."""
    return sum(
        len(r[0])
        for r in gc.get_referents(solver_mod._instance)
        if type(r) is tuple and len(r) == 2 and type(r[0]) is tuple
        and r[0] and type(r[0][0]) is ProofStep
    )


def test_the_blocks_hold_at_most_the_step_budget(monkeypatch):
    _, trace = solve(3)
    assert held_steps() == sum(s.op not in OUTSIDE for s in trace.steps)
    # the bound is read when a block is stored; 1,500 steps, read here, let
    # solve(4) run (step_bound(4, 30) is 1,411) and eleven of them overflow it
    monkeypatch.setattr(solver_mod, "STEP_BUDGET", 1500)
    clear_caches()
    recorded = []
    for n_max in range(30, 19, -1):
        _, trace = solve(4, n_max=n_max, cross_check=False)
        recorded.append(sum(s.op not in OUTSIDE for s in trace.steps))
        assert 0 < held_steps() <= 1500
    assert sum(recorded) > 1500  # so the cache was emptied on the way
    # and a cache cleared from outside counts from zero again
    clear_caches()
    solve(4, n_max=30, cross_check=False)
    solve(4, n_max=29, cross_check=False)
    assert held_steps() == sum(recorded[:2])


def test_a_step_rebuilt_from_another_steps_fields_replays_clean():
    # step.inputs reads as a MappingProxyType; a step built from it, here
    # from a trace read back from JSON whose valuation steps hold X > 2^53
    # as decimal strings, is checked as the dict it wraps would be
    _, trace = solve(7, cross_check=False)
    rebuilt = rebuilt_from_json(trace)
    assert any(
        type(v) is str for s in rebuilt.steps if s.op == "valuation_trichotomy"
        for v in s.inputs.values()
    )
    for source in (trace, rebuilt):
        steps = [ProofStep(s.op, s.inputs, s.value) for s in source.steps]
        assert ProofTrace(7, source.n_max, steps, source.solutions).replay() == []
