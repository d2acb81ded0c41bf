"""A cold proof asks each question once: the sieve rows of one instance and
odd prime p share one mod19_forces_p call, appended by ProofTrace.repeat,
and even_case builds what k alone decides once per k.  The blocks stay
step for step what one ProofTrace.step per row records, replay still
checks every row, and even_case still refuses bad inputs on a warm cache."""

import json
import sys

import pytest
from conftest import clear_caches, rebuilt_from_json

import ln_kit.solver as solver_mod
from ln_kit import caseworks
from ln_kit.lucas_engine import digit_limit
from ln_kit.oracle import DEFAULT_WINDOW
from ln_kit.solver import ProofStep, ProofTrace, solve


class OneByOne(ProofTrace):
    """A recorder that takes each batched row through step, as solve did
    before rows were batched."""

    def repeat(self, op, value, inputs):
        for i in inputs:
            assert self.step(op, *i) is value


def one_by_one(kk, n_max=DEFAULT_WINDOW.n_max):
    record = OneByOne(kk, n_max)
    solver_mod._primitive_solutions(kk, n_max, record)
    return record.steps


@pytest.mark.parametrize("kk", [0, 1, 2, 7, 49])
def test_a_batched_block_is_the_one_step_per_row_block(kk):
    block, _ = solver_mod._instance(kk, DEFAULT_WINDOW.n_max, digit_limit())
    reference = one_by_one(kk)
    assert [s.op for s in block] == [s.op for s in reference]
    assert all(a.inputs == b.inputs for a, b in zip(block, reference))
    for mine, theirs in zip(block, reference):
        if mine.op == "mod19_forces_p":
            assert mine.value is theirs.value
        else:
            assert mine.value == theirs.value, mine.op
    # and so the same bytes
    mine, theirs = ProofTrace(kk, 30, list(block)), ProofTrace(kk, 30, reference)
    assert json.dumps(mine.to_jsonable()) == json.dumps(theirs.to_jsonable())


def test_a_cold_solve_asks_mod19_forces_p_once_per_instance_and_p(monkeypatch):
    calls = []
    real = caseworks.mod19_forces_p
    monkeypatch.setattr(
        caseworks, "mod19_forces_p", lambda p: calls.append(p) or real(p)
    )
    _, trace = solve(49, cross_check=False)
    # 49 * 50 / 2 = 1,225 rows for p = 19, one each per t; and one call per
    # (kk, p) for each of the eight other odd primes p <= 30 and kk >= 1
    assert calls.count(19) == 1225
    assert len(calls) == 1225 + 8 * 49 == 1617
    assert len(trace.find("mod19_forces_p")) == 11025


def batched_rows(trace):
    """The indices of the mod19_forces_p rows that repeat appended: every
    row of instance 3 after its first, for each p but 19."""
    return [
        i for i, s in enumerate(trace.steps)
        if s.op == "mod19_forces_p" and s.inputs["k"] == 3 and s.inputs["t"] > 0
        and s.inputs["p"] != 19
    ]


def test_a_tampered_batched_row_is_named_on_replay():
    _, trace = solve(3, cross_check=False)
    rows = batched_rows(trace)
    assert len(rows) == 2 * 8
    for i in (rows[0], rows[-1]):
        step = trace.steps[i]
        verdict = step.value
        edited = caseworks.CaseVerdict(
            verdict.outcome, verdict.reason + ".", trace=verdict.trace
        )
        moved = {**step.inputs, "t": 0}
        for tampered_step, expected in (
            (ProofStep(step.op, dict(step.inputs), edited), "value differs"),
            (ProofStep(step.op, moved, verdict), "solve passes"),
        ):
            steps = list(trace.steps)
            steps[i] = tampered_step
            tampered = ProofTrace(3, trace.n_max, steps, trace.solutions)
            for replayed in (tampered, rebuilt_from_json(tampered)):
                (bad,) = replayed.replay()
                assert bad.startswith(f"step {i} mod19_forces_p: {expected}")


def test_the_even_cases_of_one_k_share_its_split_and_mod3_entries():
    verdicts = [caseworks.even_case(5, m) for m in range(1, 16)]
    split, mod3, _ = verdicts[0].trace
    assert (split["check"], mod3["check"]) == ("coprime_factor_split", "mod3")
    assert all(v.trace[0] is split and v.trace[1] is mod3 for v in verdicts)
    assert len({id(v.trace[2]) for v in verdicts}) == 15  # one per m
    assert caseworks.even_case(4, 1).trace[0] is not split
    assert caseworks.even_case(4, 1).trace[0]["large_factor"] == 19**9


def test_even_case_refuses_bad_inputs_on_a_warm_cache(monkeypatch):
    assert caseworks.even_case(49, 1).outcome == caseworks.OUTCOME_SOLUTIONS
    assert caseworks.even_case(0, 1).outcome == caseworks.OUTCOME_SOLUTIONS
    for k, m in ((-1, 1), (0, 0), (49, -2)):
        with pytest.raises(ValueError, match="need k >= 0 and m >= 1"):
            caseworks.even_case(k, m)
    # D = 19^99 has 127 digits: a lowered limit refuses k = 49, cache or not
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100, raising=False)
    for m in (1, 2):
        with pytest.raises(ValueError, match="19\\^\\(2k\\+1\\) would have about 127"):
            caseworks.even_case(49, m)
    clear_caches()
    with pytest.raises(ValueError, match="about 127 digits"):
        caseworks.even_case(49, 1)
