"""Replay runs solve again on the trace's header, then compares the steps:
a proof that solve refuses part way is one entry, after the differences of
the steps solve took before it refused, with no entry for the trace's later
steps."""

import sys

from ln_kit.solver import ProofStep, ProofTrace, solve

REFUSAL = "solve refuses the header: u_n would have about 5 digits"


def refuse_u_13(monkeypatch):
    # 19^3 has 4 digits and u_13 of the instance pair 5: under a 4-digit
    # limit solve(1, n_max=13) takes its first step, then refuses u_13
    # inside instance 0's block
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4, raising=False)


def recorded():
    _, trace = solve(1, n_max=13, cross_check=False)
    return trace


def test_a_refusal_mid_proof_is_one_entry(monkeypatch):
    trace = recorded()
    assert len(trace.steps) == 48
    refuse_u_13(monkeypatch)
    (bad,) = trace.replay()
    assert bad.startswith(REFUSAL)


def test_a_step_tampered_before_the_refusal_is_named_first(monkeypatch):
    trace = recorded()
    (op, _, value), inputs = trace.steps[0], trace.steps[0].inputs
    for tampered_step, expected in (
        (ProofStep(op, {**inputs, "z_max": 10**4}, value), "solve passes"),
        (ProofStep(op, dict(inputs), ("edited",)), "value differs"),
    ):
        steps = [tampered_step, *trace.steps[1:]]
        tampered = ProofTrace(1, 13, steps, trace.solutions)
        with monkeypatch.context() as m:
            refuse_u_13(m)
            named, refused = tampered.replay()
        assert named.startswith(f"step 0 no_19z2_solutions: {expected}")
        assert refused.startswith(REFUSAL)


def test_a_step_solve_took_before_the_refusal_is_missing_from_an_empty_trace(
    monkeypatch,
):
    refuse_u_13(monkeypatch)
    missing, refused = ProofTrace(1, 13).replay()
    assert missing == "step 0 no_19z2_solutions: missing from the trace"
    assert refused.startswith(REFUSAL)
