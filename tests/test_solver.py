import dataclasses
import hashlib
import json
import time

import pytest

from ln_kit import caseworks
from ln_kit.equation_model import LNInstance, Solution, is_solution, theorem_solution_set
from ln_kit.lucas_engine import FACTORING_BUDGET, LucasPair, primitive_divisor
from ln_kit.oracle import SearchWindow, iroot, perfect_root
from ln_kit.solver import (
    STEP_BUDGET,
    OracleMismatchError,
    ProofStep,
    ProofTrace,
    always_primitive_closure,
    defect_table_route,
    defective_pair_expansion,
    solve,
    step_bound,
    verify_solution_completeness,
)


def test_solve_k0():
    sols, trace = solve(0, n_max=30, oracle_x_max=10**4)
    assert [s.as_tuple() for s in sols] == [(9, 5, 2), (559, 5, 7)]
    assert trace.oracle_checked


def test_solve_k1_no_n7():
    sols, _ = solve(1, n_max=30, oracle_x_max=10**4)
    assert [s.as_tuple() for s in sols] == [(171, 95, 2), (3429, 1715, 2)]
    assert all(s.n != 7 for s in sols)


def test_solve_k2_matches_theorem_set():
    sols, _ = solve(2, n_max=30, oracle_x_max=10**4)
    assert sols == theorem_solution_set(LNInstance(2), 30)
    assert len(sols) == 3


def test_solve_k7_contains_n7_member():
    sols, trace = solve(7, n_max=7, cross_check=False)
    assert (559 * 19**7, 5 * 19**2, 7) in {s.as_tuple() for s in sols}
    assert len(sols) == 9  # eight n2 members and one n7 member
    for s in sols:
        assert is_solution(LNInstance(7), *s.as_tuple())


def test_trace_k0_p7_lucas_realization():
    _, trace = solve(0, n_max=30, oracle_x_max=10**4)
    gates = trace.find("bhv_gate")
    assert any(s.result["route"] == "CheckDefectTable" and s.inputs["p"] == 7 for s in gates)
    lucas_steps = trace.find("lucas_u")
    assert any(
        s.inputs == {"P": 1, "Q": 5, "n": 7} and s.result == {"value": 1}
        for s in lucas_steps
    )


def test_trace_p_above_13_closed_without_solutions():
    sols, trace = solve(0, n_max=30, oracle_x_max=10**4)
    always = [
        s for s in trace.find("bhv_gate") if s.result["route"] == "AlwaysPrimitive"
    ]
    assert always  # 17, 19, 23, 29 all route there
    assert {s.inputs["p"] for s in always} >= {17, 19, 23, 29}
    assert trace.find("always_primitive_closure")
    assert all(s.n in (2, 7) for s in sols)


def test_trace_reductions_strictly_decrease_k():
    sols, trace = solve(3, n_max=10, oracle_x_max=10**3)
    # the scaled lifts reproduce the theorem families exactly
    assert sols == theorem_solution_set(LNInstance(3), 10)
    reductions = trace.find("valuation_trichotomy")
    assert reductions
    for step in reductions:
        assert step.result["outcome"] == "reduced"
        assert step.result["reduced_k"] == step.inputs["k"] - step.inputs["s"]
        assert step.result["reduced_k"] < step.inputs["k"]
    # reduction chains stay within depth k + 1
    assert len({s.inputs["s"] for s in reductions}) <= 3 + 1


def test_trace_contains_le_closure():
    _, trace = solve(1, n_max=10, oracle_x_max=10**3)
    le_steps = trace.find("no_19z2_solutions")
    assert len(le_steps) == 1
    assert le_steps[0].result["outcome"] == "contradiction"


def test_trace_replays_bit_for_bit():
    _, trace = solve(1, n_max=14, oracle_x_max=10**3)
    assert trace.replay() == []


def test_replay_names_tampered_steps():
    _, trace = solve(7, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("p3_case")
    flipped = {**steps[i].result, "outcome": "solutions"}
    steps[i] = ProofStep("p3_case", steps[i].inputs, flipped)
    j = [s.op for s in trace.steps].index("valuation_trichotomy")
    x_times_19 = {**steps[j].inputs, "X": steps[j].inputs["X"] * 19}
    steps[j] = ProofStep("valuation_trichotomy", x_times_19, steps[j].result)
    bad = ProofTrace(k=7, n_max=7, steps=steps).replay()
    assert [b.split(":")[0] for b in bad] == ["p3_case", "valuation_trichotomy"]
    assert trace.replay() == []


def test_replay_names_a_dropped_oracle_triple():
    _, trace = solve(1, n_max=10, oracle_x_max=10**4)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("oracle_cross_check")
    assert len(steps[i].result["solutions"]) == 2
    dropped = {"solutions": steps[i].result["solutions"][1:]}
    steps[i] = ProofStep("oracle_cross_check", steps[i].inputs, dropped)
    assert ProofTrace(k=1, n_max=10, steps=steps).replay() == ["oracle_cross_check"]
    assert trace.replay() == []


def test_replay_names_an_op_outside_the_step_table():
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    steps[0] = ProofStep("no_such_op", steps[0].inputs, steps[0].value)
    bad = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad == ["no_such_op: not replayable"]


def test_replay_refuses_a_tampered_huge_z_max():
    # the 19*Z^2 + 1 scan is under the oracle's scan budget: refused, not run
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("no_19z2_solutions")
    huge = {**steps[i].inputs, "z_max": 10**15}
    steps[i] = ProofStep("no_19z2_solutions", huge, steps[i].result)
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith("no_19z2_solutions:") and "scan budget" in bad


def test_replay_refuses_a_tampered_huge_p3_search_bound():
    # p3_case's box is under the oracle's scan budget too: refused, not run
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("p3_case")
    huge = {**steps[i].inputs, "search_bound": 10**15}
    steps[i] = ProofStep("p3_case", huge, steps[i].result)
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith("p3_case:") and "scan budget" in bad


def rebuilt_from_json(trace):
    return ProofTrace.from_jsonable(json.loads(json.dumps(trace.to_jsonable())))


def test_oracle_fields_survive_a_json_round_trip():
    for cross_check in (True, False):
        _, trace = solve(1, n_max=10, oracle_x_max=10**4, cross_check=cross_check)
        rebuilt = rebuilt_from_json(trace)
        assert rebuilt.oracle_checked is trace.oracle_checked is cross_check
        assert rebuilt.oracle_x_max == trace.oracle_x_max
        assert trace.oracle_x_max == (10**4 if cross_check else None)


def test_deep_trace_bytes_pinned():
    _, trace = solve(49, cross_check=False)
    blob = json.dumps(trace.to_jsonable()).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "b5ed29ef3f9896132bf7a3a4d2665a1d50370cdd34ad97fece5745c24242aa05"
    )


@pytest.mark.parametrize("x_max", [True, "+1000", " 1000"])
def test_oracle_x_max_reads_its_input_as_replay_does(x_max):
    # int() would read each as 1 or 1000; replay's step-input rule refuses them
    _, trace = solve(0, n_max=3, oracle_x_max=10**3)
    data = json.loads(json.dumps(trace.to_jsonable()))
    (step,) = [s for s in data["steps"] if s["op"] == "oracle_cross_check"]
    step["inputs"]["x_max"] = x_max
    rebuilt = ProofTrace.from_jsonable(data)
    with pytest.raises(ValueError, match="is not an integer"):
        rebuilt.oracle_x_max
    (bad,) = rebuilt.replay()
    assert bad.startswith("oracle_cross_check:") and "is not an integer" in bad


def test_replay_names_tampered_native_values():
    _, trace = solve(2, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("even_case")
    found = steps[i].value
    (sol,) = found.solutions
    moved = Solution(sol.x, sol.y + 2, sol.n)
    moved_found = dataclasses.replace(found, solutions=(moved,))
    steps[i] = ProofStep("even_case", steps[i].inputs, moved_found)
    j = [s.op for s in trace.steps].index("mod19_forces_p")
    sieve = steps[j].value
    (check,) = sieve.trace
    zeroed = {**check, "residues": [0, *check["residues"][1:]]}
    zeroed_sieve = dataclasses.replace(sieve, trace=(zeroed,))
    steps[j] = ProofStep("mod19_forces_p", steps[j].inputs, zeroed_sieve)
    tampered = ProofTrace(k=2, n_max=7, steps=steps)
    assert tampered.replay() == ["even_case", "mod19_forces_p"]
    assert rebuilt_from_json(tampered).replay() == ["even_case", "mod19_forces_p"]
    assert trace.replay() == [] and rebuilt_from_json(trace).replay() == []


def test_replay_names_a_valuation_step_tampered_to_a_bad_split():
    # x = 19^s * X leaves X odd and prime to 19; 19 | X or an even X diverges
    _, trace = solve(1, n_max=7, cross_check=False)
    i = [s.op for s in trace.steps].index("valuation_trichotomy")
    step = trace.steps[i]
    for X in (step.inputs["X"] * 19, step.inputs["X"] + 1):
        steps = list(trace.steps)
        steps[i] = ProofStep(step.op, {**step.inputs, "X": X}, step.value)
        tampered = ProofTrace(k=1, n_max=7, steps=steps)
        for replayed in (tampered, rebuilt_from_json(tampered)):
            (bad,) = replayed.replay()
            assert bad.startswith("valuation_trichotomy:"), (X, bad)


def with_inputs(trace, op, **inputs):
    """A copy of trace whose first op step has these inputs, its value kept."""
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index(op)
    steps[i] = ProofStep(op, {**steps[i].inputs, **inputs}, steps[i].value)
    return ProofTrace(k=trace.k, n_max=trace.n_max, steps=steps)


@pytest.mark.parametrize("n", [200_000, 10**9])
def test_replay_names_steps_tampered_past_the_digit_limit(n):
    # 19^40001 and u_n are too long to write: even_case's value fails to
    # encode, and lucas_u is refused from its bound before it runs
    _, trace = solve(0, n_max=7, cross_check=False)
    tampered = with_inputs(with_inputs(trace, "even_case", k=20000), "lucas_u", n=n)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        bad = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert [b.split(":")[0] for b in bad] == ["even_case", "lucas_u"]
        assert "digit limit of int-to-str conversion" in bad[1]


def test_replay_names_steps_tampered_to_a_huge_k():
    # even_case builds 19^(2k+1), p3_case 4*19^k and the oracle step D: each
    # refuses a k whose 19^(2k+1) solve would refuse, before building it
    _, trace = solve(0, n_max=3, oracle_x_max=10**3)
    tampered = trace
    for op in ("even_case", "p3_case", "oracle_cross_check"):
        tampered = with_inputs(tampered, op, k=10**7)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        bad = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert [b.split(":")[0] for b in bad] == [
            "even_case",
            "p3_case",
            "oracle_cross_check",
        ]
        assert all("19^(2k+1) would have about" in b for b in bad), bad


HUGE = 10**400  # past a float: (2k+1)*log10(19) and n*log10|alpha| overflow


@pytest.mark.parametrize(
    "op, field, value",
    [
        ("even_case", "k", HUGE),
        ("p3_case", "k", HUGE),
        ("oracle_cross_check", "k", HUGE),
        ("lucas_u", "n", HUGE),
        ("primitive_divisor", "n", HUGE),
        ("p3_case", "search_bound", 2**64),
        ("even_case", "inputs", []),
        ("even_case", "op", ["x"]),
    ],
    ids=[
        "even_case-huge-k",
        "p3_case-huge-k",
        "oracle_cross_check-huge-k",
        "lucas_u-huge-n",
        "primitive_divisor-huge-n",
        "p3_case-search_bound-2^64",
        "inputs-not-a-mapping",
        "op-unhashable",
    ],
)
def test_replay_names_a_huge_or_malformed_step(op, field, value):
    # past a float or a C index, or no step at all: named, not raised
    _, trace = solve(0, n_max=13, oracle_x_max=10**3)
    i = [s.op for s in trace.steps].index(op)
    steps = list(trace.steps)
    step = steps[i]
    if field == "op":
        steps[i] = ProofStep(value, step.inputs, step.value)
    elif field == "inputs":
        steps[i] = ProofStep(op, value, step.value)
    else:
        steps[i] = ProofStep(op, {**step.inputs, field: value}, step.value)
    in_memory = ProofTrace(k=0, n_max=13, steps=steps)
    # the same tamper made to the trace's JSON form, then rebuilt from it
    data = json.loads(json.dumps(trace.to_jsonable()))
    if field in ("op", "inputs"):
        data["steps"][i][field] = value
    else:
        data["steps"][i]["inputs"][field] = caseworks.json_safe(value)
    for replayed in (in_memory, ProofTrace.from_jsonable(data)):
        start = time.perf_counter()
        (bad,) = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert bad.startswith(f"{value}:" if field == "op" else f"{op}:"), bad
        if field == "search_bound":
            assert "scan budget" in bad


def test_replay_refuses_a_mod_pow2_prime_over_the_scan_budget():
    # p = 3 + 2^30 would list 2^30 odd residues
    _, trace = solve(1, n_max=30, cross_check=False)
    tampered = with_inputs(trace, "mod_pow2_insoluble", p=1_073_741_827)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        (bad,) = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert bad.startswith("mod_pow2_insoluble:") and "scan budget" in bad


@pytest.mark.parametrize(
    "inputs",
    [
        {"factoring_budget": FACTORING_BUDGET + 1},
        # u_3000 is short enough to write, but factoring it would run for as
        # long as the budget lets it
        {"n": 3000, "factoring_budget": 10**30},
    ],
)
def test_replay_refuses_a_factoring_budget_over_the_solvers(inputs):
    _, trace = solve(0, n_max=13, cross_check=False)
    tampered = with_inputs(trace, "primitive_divisor", **inputs)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        (bad,) = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert bad.startswith("primitive_divisor:") and "FACTORING_BUDGET" in bad


def test_replay_names_steps_whose_inputs_are_not_integers():
    # int() would read t = 0.9, p = 3.4 as the step's own t = 0, p = 3 and
    # m = True as m = 1; only an int or its exact decimal string is an input
    _, trace = solve(1, n_max=7, cross_check=False)
    assert trace.find("mod19_forces_p")[0].inputs == {"k": 1, "t": 0, "p": 3}
    assert trace.find("even_case")[0].inputs == {"k": 0, "m": 1}
    tampered = with_inputs(
        with_inputs(trace, "mod19_forces_p", t=0.9, p=3.4), "even_case", m=True
    )
    for replayed in (tampered, rebuilt_from_json(tampered)):
        bad = replayed.replay()
        assert [b.split(":")[0] for b in bad] == ["even_case", "mod19_forces_p"]
        assert "not an integer" in bad[0] and "not an integer" in bad[1]
    for m in (" 1", "+1", "01", "1.0", 1.0, None):
        (bad,) = with_inputs(trace, "even_case", m=m).replay()
        assert bad.startswith("even_case:"), m
    # the decimal string the writer emits for a large int replays
    assert with_inputs(trace, "even_case", m="1").replay() == []


def test_json_replay_encodes_each_shared_verdict_once(monkeypatch):
    _, trace = solve(7, cross_check=False)
    steps = trace.find("mod19_forces_p")
    shared = {id(s.value): s.value for s in steps}
    assert len(steps) > 2 * len(shared)
    rebuilt = rebuilt_from_json(trace)
    encoded = []
    json_safe = caseworks.json_safe

    def spy(value):
        encoded.append(value)
        return json_safe(value)

    monkeypatch.setattr(caseworks, "json_safe", spy)
    assert rebuilt.replay() == []
    assert [sum(v is value for v in encoded) for value in shared.values()] == [1] * len(
        shared
    )


def test_json_replay_names_only_the_step_whose_shared_verdict_was_tampered():
    _, trace = solve(7, cross_check=False)
    rebuilt = rebuilt_from_json(trace)
    ops = [s.op for s in rebuilt.steps]
    mod19 = [i for i, op in enumerate(ops) if op == "mod19_forces_p"]
    # the first step of a verdict, and a later step that shares it
    p = rebuilt.steps[mod19[0]].inputs["p"]
    same_p = [i for i in mod19 if rebuilt.steps[i].inputs["p"] == p]
    assert len(same_p) > 2
    for i in (same_p[0], same_p[len(same_p) // 2]):
        steps = list(rebuilt.steps)
        step = steps[i]
        (check,) = step.value["trace"]
        zeroed = {**check, "residues": [0, *check["residues"][1:]]}
        steps[i] = ProofStep(step.op, step.inputs, {**step.value, "trace": [zeroed]})
        assert ProofTrace(k=7, n_max=rebuilt.n_max, steps=steps).replay() == [
            "mod19_forces_p"
        ]


def test_replay_names_a_step_whose_value_is_another_verdict():
    # the value is another p's shared verdict: not the object replay gets back
    _, trace = solve(7, cross_check=False)
    mod19 = trace.find("mod19_forces_p")
    step = mod19[0]
    other = next(s.value for s in mod19 if s.inputs["p"] != step.inputs["p"])
    assert other.outcome == step.value.outcome == caseworks.OUTCOME_CONTRADICTION
    i = [s.op for s in trace.steps].index("mod19_forces_p")
    trace.steps[i] = ProofStep(step.op, step.inputs, other)
    assert trace.replay() == ["mod19_forces_p"]
    assert rebuilt_from_json(trace).replay() == ["mod19_forces_p"]


def test_replay_names_a_shared_verdict_step_tampered_to_p_19():
    # p = 19 with t < k is forced, not the contradiction the step still holds
    _, trace = solve(7, cross_check=False)
    step = trace.find("mod19_forces_p")[0]
    assert step.inputs["t"] < step.inputs["k"] and step.inputs["p"] != 19
    tampered = with_inputs(trace, "mod19_forces_p", p=19)
    i = [s.op for s in trace.steps].index("mod19_forces_p")
    assert tampered.steps[i].value is step.value
    assert tampered.replay() == ["mod19_forces_p"]
    assert rebuilt_from_json(tampered).replay() == ["mod19_forces_p"]


def test_replay_does_not_compare_a_verdict_with_itself(monkeypatch):
    _, trace = solve(7, cross_check=False)
    eq = caseworks.CaseVerdict.__eq__
    calls = []

    def spy(self, other):
        calls.append(self is other)
        return eq(self, other)

    monkeypatch.setattr(caseworks.CaseVerdict, "__eq__", spy)
    assert trace.replay() == []
    # the fresh verdicts (mod19_forces_kt, even_case, ...) are compared
    assert calls and not any(calls)


def test_composite_lift_is_recorded_and_replayed():
    # n = 49 = 7 * 7 is the first n that lifts the (k, p) = (0, 7) solution
    # y = 5, and 5 is no 7th power
    _, trace = solve(0, n_max=49, cross_check=False)
    (lift,) = trace.find("composite_lift")
    assert (lift.inputs, lift.result) == ({"y": 5, "j": 7, "n": 49}, {"root": None})
    assert trace.replay() == [] and rebuilt_from_json(trace).replay() == []
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("composite_lift")
    steps[i] = ProofStep("composite_lift", lift.inputs, {"root": 5})
    tampered = ProofTrace(k=0, n_max=49, steps=steps)
    assert tampered.replay() == ["composite_lift"]
    assert rebuilt_from_json(tampered).replay() == ["composite_lift"]


def scribble(obj):
    """Append to every list and add a key to every dict inside obj."""
    if isinstance(obj, list):
        for item in obj:
            scribble(item)
        obj.append("scribbled")
    elif isinstance(obj, dict):
        for item in obj.values():
            scribble(item)
        obj["scribbled"] = True


def test_step_result_shares_nothing_with_the_recorded_value():
    _, trace = solve(1, n_max=30, oracle_x_max=10**4)
    for t in (trace, rebuilt_from_json(trace)):
        for step in t.steps:
            scribble(step.result)
        assert t.replay() == []


@pytest.mark.parametrize("k", range(8))
def test_trace_json_equals_its_steps_serialized_one_by_one(k):
    # to_jsonable builds one result per distinct value object; each step
    # serialized on its own, with no memo, must give the same bytes
    _, trace = solve(k)
    for t in (trace, rebuilt_from_json(trace)):
        data = t.to_jsonable()
        alone = {**data, "steps": [s.to_jsonable() for s in t.steps]}
        assert json.dumps(data) == json.dumps(alone)
        assert [s["result"] for s in data["steps"]] == [s.result for s in t.steps]


def test_solve_and_replay_build_no_json(monkeypatch):
    # the JSON form is built only by to_jsonable
    def refuse(value):
        raise AssertionError("json_safe called")

    with monkeypatch.context() as patch:
        patch.setattr(caseworks, "json_safe", refuse)
        _, trace = solve(3, cross_check=False)
        assert trace.replay() == []
    blob = json.dumps(trace.to_jsonable()).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "29652c274cd6afeeaed26649b5b88ddc124cb9c3b460dd1ef62b110a136dd369"
    )


def test_always_primitive_closure_checks_its_precondition():
    assert always_primitive_closure(17).outcome == "contradiction"
    for p in (13, 21):
        with pytest.raises(ValueError):
            always_primitive_closure(p)


def test_trace_serializes(tmp_path):
    import json

    _, trace = solve(0, n_max=8, oracle_x_max=10**3)
    blob = json.dumps(trace.to_jsonable(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["k"] == 0
    assert parsed["solutions"][0] == {"x": "9", "y": "5", "n": 2}


def test_oracle_mismatch_raises(monkeypatch):
    import ln_kit.solver as solver_mod

    monkeypatch.setattr(solver_mod, "brute_force", lambda window: [])
    with pytest.raises(OracleMismatchError) as err:
        solve(0, n_max=10, oracle_x_max=10**3)
    assert (9, 5, 2) in err.value.only_pipeline
    assert str(err.value) == (
        "k=0: pipeline-only triples [(9, 5, 2), (559, 5, 7)], oracle-only triples []"
    )


def test_solve_raises_when_the_19z2_scan_finds_a_witness(monkeypatch):
    # plant x = 57 = 19*3, so Z = 3: the step's verdict is then forced
    scan = caseworks.generalized_scan
    monkeypatch.setattr(
        caseworks, "generalized_scan", lambda *window: [*scan(*window), (57, 7, 3)]
    )
    assert caseworks.no_19z2_solutions(3, 10).outcome == caseworks.OUTCOME_FORCED
    with pytest.raises(RuntimeError, match="soluble: scan found witnesses"):
        solve(0, cross_check=False)


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve(-1)
    with pytest.raises(ValueError):
        solve(0, n_max=1)
    with pytest.raises(ValueError, match="n_max must be at least 2, got 1"):
        solve(0, n_max=1, cross_check=False)


def test_step_bound_covers_every_recorded_step():
    for k in range(6):
        for n_max in (2, 3, 7, 14, 30):
            _, trace = solve(k, n_max, cross_check=False)
            # the oracle step is not recorded here but is counted in the bound
            assert len(trace.steps) + 1 <= step_bound(k, n_max)
    assert step_bound(49, 30) <= STEP_BUDGET


def test_solve_refuses_over_step_budget_before_any_step(monkeypatch):
    import ln_kit.solver as solver_mod

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(solver_mod.ProofTrace, "step", no_step)
    bound = step_bound(3000, 30)
    with pytest.raises(ValueError, match=f"{bound} steps.*{STEP_BUDGET}"):
        solve(3000, 30, cross_check=False)
    with pytest.raises(ValueError, match="step budget"):
        solve(0, 100000)


def test_solve_refuses_past_the_digit_limit_before_any_step(monkeypatch):
    # 3,403 steps fit the step budget, but 19^3401 has 4,350 digits
    import ln_kit.solver as solver_mod

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(solver_mod.ProofTrace, "step", no_step)
    assert step_bound(1700, 2) <= STEP_BUDGET
    with pytest.raises(ValueError, match=r"19\^\(2k\+1\) would have about 4350 digits"):
        solve(1700, n_max=2)


def test_solve_refuses_a_bad_oracle_window_before_any_step(monkeypatch):
    import ln_kit.solver as solver_mod

    def no_step(*args, **kwargs):
        raise AssertionError("a step ran")

    monkeypatch.setattr(solver_mod.ProofTrace, "step", no_step)
    with pytest.raises(ValueError, match="x_max must be positive, got 0"):
        solve(63, oracle_x_max=0)


def test_verify_completeness_k0():
    ok, report = verify_solution_completeness(0, SearchWindow(k=0, x_max=10**4))
    assert ok
    assert report["ok"] is True
    assert {tuple(map(int, (d["x"], d["y"]))) + (d["n"],) for d in report["oracle"]} == {
        (9, 5, 2),
        (559, 5, 7),
    }


def test_verify_completeness_window_excludes_both_sides():
    # x_max = 500 hides (559, 5, 7) from the oracle and the filtered theorem set
    ok, report = verify_solution_completeness(0, SearchWindow(k=0, x_max=500))
    assert ok
    triples = {d["x"] for d in report["oracle"]} | {d["x"] for d in report["theorem"]}
    assert "559" not in triples
    assert "9" in triples


def test_verify_completeness_rejects_a_window_of_another_k():
    # the scan would be of k = 1 and the theorem set of k = 0
    with pytest.raises(ValueError):
        verify_solution_completeness(0, SearchWindow(k=1, x_max=10**3))


def test_verify_theorem_side_matches_the_filtered_theorem_set(monkeypatch):
    import ln_kit.solver as solver_mod

    # only the theorem side is under test: the oracle cannot scan up to 19^41
    monkeypatch.setattr(solver_mod, "brute_force", lambda window: [])
    for k in range(21):
        for n_min, n_max in ((2, 30), (2, 6), (3, 30), (7, 7)):
            full = theorem_solution_set(LNInstance(k), n_max)
            for x_max in sorted({s.x + d for s in full for d in (-1, 0, 1)}):
                window = SearchWindow(k, n_min, n_max, x_max)
                _, report = verify_solution_completeness(k, window)
                expected = [
                    s.to_jsonable()
                    for s in full
                    if s.x <= x_max and n_min <= s.n <= n_max
                ]
                assert report["theorem"] == expected, (k, n_min, n_max, x_max)
                assert report["ok"] is (expected == [])


def test_defect_table_route():
    assert defect_table_route(13, 0).outcome == "contradiction"
    assert defect_table_route(11, 2).outcome == "contradiction"
    assert defect_table_route(5, 0).outcome == "contradiction"
    assert defect_table_route(7, 1).outcome == "contradiction"
    assert defect_table_route(7, 0).outcome == "forced"
    reasons = {
        5: "no defective pair of the required shape exists for p = 5",
        11: "no defective pair exists for p = 11",
        13: "the only defective pair for p = 13 lies in Q(sqrt(-7)), not Q(sqrt(-19))",
    }
    for p, reason in reasons.items():
        for k in (0, 3):
            assert defect_table_route(p, k).reason == reason
    with pytest.raises(ValueError):
        defect_table_route(3, 0)
    with pytest.raises(
        ValueError, match=r"defect table covers p in \{5, 7, 11, 13\}, got 17$"
    ):
        defect_table_route(17, 0)
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        defect_table_route(7, -1)


@pytest.mark.parametrize(
    "procedure, args, message",
    [
        # without its own check, even_case would fail in perfect_root, and
        # no_19z2_solutions in the oracle's window check, in other words
        (caseworks.even_case, (0, 0), "need k >= 0 and m >= 1, got k=0, m=0"),
        (caseworks.mod19_forces_kt, (2, 2), "requires 0 <= t < k, got t=2, k=2"),
        (caseworks.mod_pow2_insoluble, (7, -1), "t must be non-negative, got -1"),
        (caseworks.p3_case, (0, 0), "need k >= 0 and search_bound >= 1, got 0, 0"),
        (caseworks.no_19z2_solutions, (3, 0), "need n_max >= 3 and z_max >= 1"),
        (lambda n: primitive_divisor(LucasPair(1, 5), n), (1,), "n must be at least 2"),
        (iroot, (-1, 2), "v must be non-negative, got -1"),
        (iroot, (10, 0), "m must be positive, got 0"),
        (perfect_root, (0, 2), "v must be positive, got 0"),
        (perfect_root, (8, 1), "m must be at least 2, got 1"),
    ],
)
def test_step_procedures_refuse_bad_inputs(procedure, args, message):
    # a replay whose recorded inputs were tampered into these diverges here
    with pytest.raises(ValueError, match=message):
        procedure(*args)


def test_defective_pair_expansion_unique_solution():
    verdict = defective_pair_expansion(0, 7)
    assert [s.as_tuple() for s in verdict.solutions] == [(559, 5, 7)]
    # all four unit/sign candidates were expanded
    assert len(verdict.trace) == 4
    with pytest.raises(ValueError):
        defective_pair_expansion(1, 7)
