import hashlib
import json
import re
import time

import pytest
from conftest import clear_caches, rebuilt_from_json

import ln_kit.solver as solver_mod
from ln_kit import caseworks
from ln_kit.equation_model import (
    LNInstance,
    Solution,
    is_solution,
    json_safe,
    theorem_solution_set,
)
from ln_kit.lucas_engine import (
    FACTORING_BUDGET,
    LucasPair,
    PrimitiveDivisorVerdict,
    lucas_u,
    primitive_divisor,
)
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
    assert any(json_safe(s.value)["route"] == "CheckDefectTable" and s.inputs["p"] == 7 for s in gates)
    lucas_steps = trace.find("lucas_u")
    assert any(
        s.inputs == {"P": 1, "Q": 5, "n": 7} and json_safe(s.value) == {"value": 1}
        for s in lucas_steps
    )


def test_trace_p_above_13_closed_without_solutions():
    sols, trace = solve(0, n_max=30, oracle_x_max=10**4)
    always = [
        s for s in trace.find("bhv_gate") if json_safe(s.value)["route"] == "AlwaysPrimitive"
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
        assert json_safe(step.value)["outcome"] == "reduced"
        assert json_safe(step.value)["reduced_k"] == step.inputs["k"] - step.inputs["s"]
        assert json_safe(step.value)["reduced_k"] < step.inputs["k"]
    # reduction chains stay within depth k + 1
    assert len({s.inputs["s"] for s in reductions}) <= 3 + 1


def test_trace_contains_le_closure():
    _, trace = solve(1, n_max=10, oracle_x_max=10**3)
    le_steps = trace.find("no_19z2_solutions")
    assert len(le_steps) == 1
    assert json_safe(le_steps[0].value)["outcome"] == "contradiction"


def test_trace_replays_bit_for_bit():
    _, trace = solve(1, n_max=14, oracle_x_max=10**3)
    assert trace.replay() == []


def test_replay_names_tampered_steps():
    _, trace = solve(7, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("p3_case")
    flipped = {**json_safe(steps[i].value), "outcome": "solutions"}
    steps[i] = ProofStep("p3_case", steps[i].inputs, flipped)
    j = [s.op for s in trace.steps].index("valuation_trichotomy")
    x_times_19 = {**steps[j].inputs, "X": steps[j].inputs["X"] * 19}
    steps[j] = ProofStep("valuation_trichotomy", x_times_19, json_safe(steps[j].value))
    bad = ProofTrace(k=7, n_max=7, steps=steps).replay()
    assert [b.split(":")[0] for b in bad] == [
        f"step {i} p3_case",
        f"step {j} valuation_trichotomy",
    ]
    assert trace.replay() == []


def delete_every_step(data, ops):
    data["steps"] = []
    return f"step 0 {ops[0]}: missing from the trace"


def delete_all_but_the_first(data, ops):
    data["steps"] = data["steps"][:1]
    return f"step 1 {ops[1]}: missing from the trace"


def delete_the_closing_steps(data, ops):
    closing = {"p3_case", "defect_table", "always_primitive_closure"}
    assert sum(op in closing for op in ops) == 36
    data["steps"] = [s for s, op in zip(data["steps"], ops) if op not in closing]
    i = next(i for i, op in enumerate(ops) if op in closing)
    return f"step {i} {ops[i]}: solve passes"


def copy_the_k0_p3_step_over_the_k3_one(data, ops):
    first, *_, last = [i for i, op in enumerate(ops) if op == "p3_case"]
    data["steps"][last] = data["steps"][first]
    return f"step {last} p3_case: solve passes"


def set_the_header_k_to_10(data, ops):
    data["k"] = 10
    _, ten = solve(10, cross_check=False)
    _, three = solve(3, cross_check=False)
    i = next(i for i, (a, b) in enumerate(zip(ten.steps, three.steps)) if a != b)
    return f"step {i} {ten.steps[i].op}: solve passes"


def add_a_solution(data, ops):
    extra = Solution(9, 5, 2)  # k = 0's n = 2 member, no solution at k = 3
    sols = data["solutions"]
    sols.append(extra if isinstance(sols[0], Solution) else extra.to_jsonable())
    return f"solutions: the trace's {len(sols)} are not solve's {len(sols) - 1}"


def tampered_both_ways(trace, tamper):
    """(trace tampered in memory, trace tampered in its JSON form and read
    back, the first entry the tamper expects)."""
    ops = [s.op for s in trace.steps]
    fields = {
        "k": trace.k,
        "n_max": trace.n_max,
        "steps": list(trace.steps),
        "solutions": list(trace.solutions),
        "oracle_x_max": trace.oracle_x_max,
    }
    expected = tamper(fields, ops)
    data = json.loads(json.dumps(trace.to_jsonable()))
    assert tamper(data, ops) == expected
    return ProofTrace(**fields), ProofTrace.from_jsonable(data), expected


@pytest.mark.parametrize(
    "tamper",
    [
        delete_every_step,
        delete_all_but_the_first,
        delete_the_closing_steps,
        copy_the_k0_p3_step_over_the_k3_one,
        set_the_header_k_to_10,
        add_a_solution,
    ],
)
def test_replay_checks_the_whole_proof(tamper):
    # each of these replayed clean when every step was checked on its own
    _, trace = solve(3, cross_check=False)
    assert len(trace.steps) == 214
    in_memory, from_json, first = tampered_both_ways(trace, tamper)
    for replayed in (in_memory, from_json):
        bad = replayed.replay()
        assert bad and bad[0].startswith(first), bad[:2]
    assert trace.replay() == [] and rebuilt_from_json(trace).replay() == []


def test_replay_names_a_deleted_oracle_step():
    # the header asks for the cross-check, so the trace still claims it
    _, trace = solve(1, n_max=10, oracle_x_max=10**4)
    (i,) = first_steps(trace, "oracle_cross_check")
    assert i == len(trace.steps) - 1
    for replayed in (trace, rebuilt_from_json(trace)):
        replayed.steps.pop()
        assert replayed.oracle_checked
        assert replayed.replay() == [f"step {i} oracle_cross_check: missing from the trace"]


def test_replay_names_steps_past_the_end_of_the_proof():
    _, trace = solve(0, n_max=7, cross_check=False)
    n = len(trace.steps)
    for replayed in (trace, rebuilt_from_json(trace)):
        replayed.steps.extend(replayed.steps[:2])
        assert replayed.replay() == [
            f"step {n} no_19z2_solutions: past the end of solve's proof"
        ]


@pytest.mark.parametrize(
    "field, value",
    [("k", True), ("k", "3"), ("k", 3.0), ("n_max", None), ("oracle_x_max", 1e4)],
)
def test_replay_takes_a_header_of_ints_alone(field, value):
    _, trace = solve(0, n_max=7, cross_check=False)
    data = json.loads(json.dumps(trace.to_jsonable()))
    data[field] = value
    assert ProofTrace.from_jsonable(data).replay() == [
        f"header: {field}={value!r} is not an integer"
    ]


def test_a_header_claiming_a_cross_check_without_its_bound_is_refused():
    # oracle_checked true with oracle_x_max null: no oracle step to replay,
    # so the trace would replay clean while claiming a check that never ran
    _, trace = solve(1, cross_check=False)
    data = json.loads(json.dumps(trace.to_jsonable()))
    data["oracle_checked"] = True
    with pytest.raises(ValueError, match="oracle_checked .* oracle_x_max"):
        ProofTrace.from_jsonable(data)


@pytest.mark.parametrize(
    "step, error",
    [
        (ProofStep("no_such_op", (1, 2), None), KeyError),
        (ProofStep("even_case", (0, "x"), None), TypeError),
    ],
)
def test_the_writer_refuses_a_step_solve_never_records(step, error):
    _, trace = solve(0, n_max=3, cross_check=False)
    trace.steps.append(step)
    with pytest.raises(error):
        trace.to_jsonable()


@pytest.mark.parametrize("k", [0, 3, 7])
def test_a_trace_rebuilt_from_its_json_writes_the_same_bytes(k):
    _, trace = solve(k)
    text = json.dumps(trace.to_jsonable())
    assert json.dumps(rebuilt_from_json(trace).to_jsonable()) == text


@pytest.mark.parametrize("field", ["k", "n_max", "oracle_x_max"])
def test_replay_names_a_header_solve_refuses(field):
    # k or n_max = 10^400 is over the step budget, x_max = 0 no window:
    # one entry, at once, where solve would raise
    _, trace = solve(0, n_max=7, oracle_x_max=10**3)
    data = json.loads(json.dumps(trace.to_jsonable()))
    data[field] = 0 if field == "oracle_x_max" else 10**400
    start = time.perf_counter()
    (bad,) = ProofTrace.from_jsonable(data).replay()
    assert time.perf_counter() - start < 1.0
    assert bad.startswith("solve refuses the header: ")


def test_replay_runs_no_procedure_on_a_recorded_input(monkeypatch):
    # a step tampered to k = 10^400 never reaches even_case
    _, trace = solve(2, n_max=7, cross_check=False)
    tampered = with_inputs(trace, "even_case", k=10**400)
    seen = []
    real = caseworks.even_case

    def spy(k, m):
        seen.append(k)
        return real(k, m)

    monkeypatch.setattr(caseworks, "even_case", spy)
    clear_caches()  # so that replay decides each instance again, through spy
    (i,) = first_steps(trace, "even_case")
    for replayed in (tampered, rebuilt_from_json(tampered)):
        (bad,) = replayed.replay()
        assert bad.startswith(f"step {i} even_case: solve passes")
    assert seen and max(seen) <= 2


def test_replay_checks_recorded_solutions_unless_none():
    # a trace rebuilt without its solutions (None) leaves them unchecked;
    # a recorded list, even an empty one, must be solve's
    _, trace = solve(1, n_max=7, cross_check=False)
    bare = ProofTrace(k=1, n_max=7, steps=trace.steps)
    assert bare.solutions is None and bare.replay() == []
    bare.solutions = []
    assert bare.replay() == ["solutions: the trace's 0 are not solve's 2"]


@pytest.mark.parametrize("kept", [5, True, 1.5])
def test_replay_names_solutions_that_are_not_a_list(kept):
    _, trace = solve(1, n_max=7, cross_check=False)
    rebuilt = ProofTrace.from_jsonable({**trace.to_jsonable(), "solutions": kept})
    assert rebuilt.replay() == [f"solutions: the trace's {kept} is not solve's 2"]


def test_json_replay_holds_solutions_to_the_writers_types():
    # 2.0 == 2, so comparing the JSON forms by == let this one through
    _, trace = solve(1, cross_check=False)
    data = json.loads(json.dumps(trace.to_jsonable()))
    assert ProofTrace.from_jsonable(data).replay() == []
    assert data["solutions"][0]["n"] == 2
    data["solutions"][0]["n"] = 2.0
    assert ProofTrace.from_jsonable(data).replay() == [
        "solutions: the trace's 2 are not solve's 2"
    ]


def test_a_step_keeps_the_inputs_it_is_given():
    # a mapping stays that mapping, in its own order, and so differs from
    # the tuple solve records; replay reads it by the op's names
    _, trace = solve(2, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in steps].index("even_case")
    mapping = dict(reversed(steps[i].inputs.items()))
    steps[i] = ProofStep("even_case", mapping, steps[i].value)
    assert steps[i][1] is mapping and steps[i] != trace.steps[i]
    assert steps[i].inputs == trace.steps[i].inputs
    assert ProofTrace(2, 7, steps, trace.solutions).replay() == []


def test_replay_of_the_benchmarks_rebuilt_deep_trace():
    # the trace perfbench's replay_from_json builds: no solutions and no
    # x_max in the header, each step rebuilt from its JSON form
    _, trace = solve(49, cross_check=False)
    data = json.loads(json.dumps(trace.to_jsonable()))
    rebuilt = ProofTrace(
        k=49,
        n_max=30,
        steps=[ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]],
    )
    assert rebuilt.replay() == []


def test_replay_names_a_dropped_oracle_triple():
    _, trace = solve(1, n_max=10, oracle_x_max=10**4)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("oracle_cross_check")
    assert len(json_safe(steps[i].value)["solutions"]) == 2
    dropped = {"solutions": json_safe(steps[i].value)["solutions"][1:]}
    steps[i] = ProofStep("oracle_cross_check", steps[i].inputs, dropped)
    tampered = ProofTrace(k=1, n_max=10, steps=steps, oracle_x_max=10**4)
    assert tampered.replay() == [f"step {i} oracle_cross_check: value differs"]
    assert trace.replay() == []


def test_replay_names_an_op_outside_the_step_table():
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    steps[0] = ProofStep("no_such_op", steps[0].inputs, steps[0].value)
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith("step 0 no_19z2_solutions: solve passes") and "'no_such_op'" in bad


@pytest.mark.parametrize(
    "inputs, named",
    [
        ({"m": 1, "k": 0}, None),  # the op's names in another order
        ({"k": 0, "n": 1}, "{'k': 0, 'n': 1}"),
        ({"k": 0}, "{'k': 0}"),
        ({"k": 0, "m": 1, "t": 0}, "{'k': 0, 'm': 1, 't': 0}"),
    ],
    ids=["reordered", "renamed", "missing-name", "extra-name"],
)
def test_replay_reads_json_inputs_by_the_ops_names(inputs, named):
    _, trace = solve(2, n_max=7, cross_check=False)
    data = json.loads(json.dumps(trace.to_jsonable()))
    i = [s["op"] for s in data["steps"]].index("even_case")
    data["steps"][i]["inputs"] = inputs
    expected = [] if named is None else [
        f"step {i} even_case: solve passes {{'k': 0, 'm': 1}}, "
        f"the trace records 'even_case' {named}"
    ]
    assert ProofTrace.from_jsonable(data).replay() == expected


def test_replay_refuses_a_tampered_huge_z_max():
    # the recorded z_max is not solve's: diverged before any scan; called
    # directly, the 19*Z^2 + 1 scan is under the oracle's scan budget
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("no_19z2_solutions")
    huge = {**steps[i].inputs, "z_max": 10**15}
    steps[i] = ProofStep("no_19z2_solutions", huge, json_safe(steps[i].value))
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith(f"step {i} no_19z2_solutions: solve passes")
    with pytest.raises(ValueError, match="scan budget"):
        caseworks.no_19z2_solutions(3, 10**15)


def test_replay_refuses_a_tampered_huge_p3_search_bound():
    # p3_case's own refusal of this box: test_p3_case_refuses_over_the_scan_budget_with_its_count
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("p3_case")
    huge = {**steps[i].inputs, "search_bound": 10**15}
    steps[i] = ProofStep("p3_case", huge, json_safe(steps[i].value))
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith(f"step {i} p3_case: solve passes")


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
    # int() would read each as 1 or 1000; the header and the step inputs
    # both take an int alone (a step input also its exact decimal string)
    _, trace = solve(0, n_max=3, oracle_x_max=10**3)
    data = json.loads(json.dumps(trace.to_jsonable()))
    data["oracle_x_max"] = x_max
    assert ProofTrace.from_jsonable(data).replay() == [
        f"header: oracle_x_max={x_max!r} is not an integer"
    ]
    data["oracle_x_max"] = 10**3
    i = [s["op"] for s in data["steps"]].index("oracle_cross_check")
    data["steps"][i]["inputs"]["x_max"] = x_max
    (bad,) = ProofTrace.from_jsonable(data).replay()
    assert bad.startswith(f"step {i} oracle_cross_check: solve passes")


def with_fields(verdict, **changes):
    """A CaseVerdict with verdict's fields but for changes."""
    fields = {f: getattr(verdict, f) for f in verdict.__match_args__}
    return caseworks.CaseVerdict(**{**fields, **changes})


def test_replay_names_tampered_native_values():
    _, trace = solve(2, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("even_case")
    found = steps[i].value
    (sol,) = found.solutions
    moved = Solution(sol.x, sol.y + 2, sol.n)
    moved_found = with_fields(found, solutions=(moved,))
    steps[i] = ProofStep("even_case", steps[i].inputs, moved_found)
    j = [s.op for s in trace.steps].index("mod19_forces_p")
    sieve = steps[j].value
    (check,) = sieve.trace
    zeroed = {**check, "residues": [0, *check["residues"][1:]]}
    zeroed_sieve = with_fields(sieve, trace=(zeroed,))
    steps[j] = ProofStep("mod19_forces_p", steps[j].inputs, zeroed_sieve)
    tampered = ProofTrace(k=2, n_max=7, steps=steps)
    expected = [f"step {i} even_case: value differs", f"step {j} mod19_forces_p: value differs"]
    assert tampered.replay() == expected
    assert rebuilt_from_json(tampered).replay() == expected
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
            assert bad.startswith(f"step {i} valuation_trichotomy: solve passes"), (X, bad)


def with_inputs(trace, op, **inputs):
    """A copy of trace whose first op step has these inputs, its value kept."""
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index(op)
    steps[i] = ProofStep(op, {**steps[i].inputs, **inputs}, steps[i].value)
    return ProofTrace(trace.k, trace.n_max, steps, trace.solutions, trace.oracle_x_max)


def first_steps(trace, *ops):
    """The index of the first step of each op, in order."""
    return sorted([s.op for s in trace.steps].index(op) for op in ops)


@pytest.mark.parametrize("n", [200_000, 10**9])
def test_replay_names_steps_tampered_past_the_digit_limit(n):
    # 19^40001 and u_n are too long to write; neither procedure sees the
    # tampered input, and each refuses it from its bound when called on it
    _, trace = solve(0, n_max=7, cross_check=False)
    tampered = with_inputs(with_inputs(trace, "even_case", k=20000), "lucas_u", n=n)
    i, j = first_steps(trace, "even_case", "lucas_u")
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        bad = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert [b.split(":")[0] for b in bad] == [f"step {i} even_case", f"step {j} lucas_u"]
    with pytest.raises(ValueError, match="digit limit of int-to-str conversion"):
        lucas_u(LucasPair(1, 5), n)
    with pytest.raises(ValueError, match="digit limit of int-to-str conversion"):
        caseworks.even_case(20000, 1)


def test_replay_names_steps_tampered_to_a_huge_k():
    # even_case builds 19^(2k+1), p3_case 4*19^k and the oracle step D;
    # replay runs none of them on a recorded k, and even_case and p3_case,
    # called directly, refuse a k whose 19^(2k+1) solve would refuse
    _, trace = solve(0, n_max=3, oracle_x_max=10**3)
    ops = ("even_case", "p3_case", "oracle_cross_check")
    tampered = trace
    for op in ops:
        tampered = with_inputs(tampered, op, k=10**7)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        bad = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert [b.split(":")[0] for b in bad] == [
            f"step {i} {op}" for i, op in zip(first_steps(trace, *ops), ops)
        ]
    for refuses in (lambda: caseworks.even_case(10**7, 1), lambda: caseworks.p3_case(10**7, 1)):
        with pytest.raises(ValueError, match=r"19\^\(2k\+1\) would have about"):
            refuses()


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
    # past a float or a C index, or no step at all: named, not raised, and
    # no procedure is run on it
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
    in_memory = ProofTrace(k=0, n_max=13, steps=steps, oracle_x_max=10**3)
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
        assert bad.startswith(f"step {i} {op}: solve passes"), bad
    if field == "search_bound":
        with pytest.raises(ValueError, match="scan budget"):
            caseworks.p3_case(0, value)


def test_replay_refuses_a_mod_pow2_prime_over_the_scan_budget():
    # p = 3 + 2^30 would list 2^30 odd residues: not solve's p, so never
    # run by replay, and refused by the procedure called on it
    _, trace = solve(1, n_max=30, cross_check=False)
    tampered = with_inputs(trace, "mod_pow2_insoluble", p=1_073_741_827)
    (i,) = first_steps(trace, "mod_pow2_insoluble")
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        (bad,) = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert bad.startswith(f"step {i} mod_pow2_insoluble: solve passes")
    with pytest.raises(ValueError, match="mod_pow2_insoluble.*scan budget"):
        caseworks.mod_pow2_insoluble(1_073_741_827, 0)


@pytest.mark.parametrize(
    "inputs",
    [
        {"factoring_budget": FACTORING_BUDGET + 1},
        # u_3000 is short enough to write, but factoring it would run for as
        # long as the budget lets it
        {"n": 3000, "factoring_budget": 10**30},
    ],
)
def test_replay_refuses_a_factoring_budget_over_the_solvers(inputs, monkeypatch):
    # solve passes FACTORING_BUDGET: any other budget diverges, and
    # primitive_divisor only ever factors with solve's own
    _, trace = solve(0, n_max=13, cross_check=False)
    tampered = with_inputs(trace, "primitive_divisor", **inputs)
    (i,) = first_steps(trace, "primitive_divisor")
    budgets = []
    real = solver_mod.primitive_divisor

    def spy(pair, n, factoring_budget):
        budgets.append(factoring_budget)
        return real(pair, n, factoring_budget)

    monkeypatch.setattr(solver_mod, "primitive_divisor", spy)
    clear_caches()  # so that replay decides each instance again, through spy
    for replayed in (tampered, rebuilt_from_json(tampered)):
        start = time.perf_counter()
        (bad,) = replayed.replay()
        assert time.perf_counter() - start < 1.0
        assert bad.startswith(f"step {i} primitive_divisor: solve passes")
    assert budgets and set(budgets) == {FACTORING_BUDGET}


def test_replay_names_steps_tampered_to_a_negative_factoring_budget():
    _, trace = solve(0, n_max=13, oracle_x_max=10**3)
    steps = [
        ProofStep(s.op, {**s.inputs, "factoring_budget": -1}, s.value)
        if s.op == "primitive_divisor"
        else s
        for s in trace.steps
    ]
    tampered = ProofTrace(k=0, n_max=13, steps=steps, oracle_x_max=10**3)
    for replayed in (tampered, rebuilt_from_json(tampered)):
        bad = replayed.replay()
        assert len(bad) == 4
        for b in bad:
            assert re.match(r"step \d+ primitive_divisor: solve passes", b), b
    with pytest.raises(ValueError, match="factoring budget must be at least 0"):
        primitive_divisor(LucasPair(1, 5), 5, -1)


def test_replay_names_steps_whose_inputs_are_not_integers():
    # int() would read t = 0.9, p = 3.4 as the step's own t = 0, p = 3 and
    # m = True as m = 1; only the writer's form of an int is an input: the
    # int itself, or its exact decimal string from 2^53 on
    _, trace = solve(1, n_max=7, cross_check=False)
    assert trace.find("mod19_forces_p")[0].inputs == {"k": 1, "t": 0, "p": 3}
    assert trace.find("even_case")[0].inputs == {"k": 0, "m": 1}
    tampered = with_inputs(
        with_inputs(trace, "mod19_forces_p", t=0.9, p=3.4), "even_case", m=True
    )
    i, j = first_steps(trace, "even_case", "mod19_forces_p")
    for replayed in (tampered, rebuilt_from_json(tampered)):
        bad = replayed.replay()
        assert [b.split(":")[0] for b in bad] == [f"step {i} even_case", f"step {j} mod19_forces_p"]
        assert "solve passes" in bad[0] and "solve passes" in bad[1]
    for m in (" 1", "+1", "01", "1.0", 1.0, True, None):
        tampered = with_inputs(trace, "even_case", m=m)
        for replayed in (tampered, rebuilt_from_json(tampered)):
            (bad,) = replayed.replay()
            assert bad.startswith(f"step {i} even_case: solve passes"), m
    # the writer emits a decimal string only for an int of 2^53 or more
    (bad,) = with_inputs(trace, "even_case", m="1").replay()
    assert bad.startswith(f"step {i} even_case: solve passes")


def test_replay_names_a_step_whose_input_is_too_long_to_write():
    # an in-memory int past the int-to-str limit is named by its bit count
    _, trace = solve(0, n_max=3, cross_check=False)
    tampered = with_inputs(trace, "even_case", m=10**5000)
    (bad,) = tampered.replay()
    assert bad.startswith("step 1 even_case: solve passes")
    assert bad.endswith("{'k': 0, 'm': <int of 16610 bits>}")


def test_replay_names_a_list_holding_an_int_too_long_to_write_by_its_type():
    # in memory only: no writer emits such an int, so neither can JSON
    _, trace = solve(0, n_max=3, cross_check=False)
    (bad,) = with_inputs(trace, "even_case", m=[10**5000]).replay()
    assert bad.startswith("step 1 even_case: solve passes")
    assert bad.endswith("{'k': 0, 'm': <list holding an int too long to write>}")
    header = ProofTrace(0, [10**5000], trace.steps, trace.solutions)
    assert header.replay() == [
        "header: n_max=<list holding an int too long to write> is not an integer"
    ]


def test_json_replay_encodes_each_shared_verdict_once(monkeypatch):
    _, trace = solve(7, cross_check=False)
    steps = trace.find("mod19_forces_p")
    shared = {id(s.value): s.value for s in steps}
    assert len(steps) > 2 * len(shared)
    rebuilt = rebuilt_from_json(trace)
    encoded = []

    def spy(value):
        encoded.append(value)
        return json_safe(value)

    monkeypatch.setattr(solver_mod, "json_safe", spy)
    assert rebuilt.replay() == []
    assert [sum(v is value for v in encoded) for value in shared.values()] == [1] * len(
        shared
    )


@pytest.mark.parametrize(
    "op, path, value",
    [
        ("lucas_u", ("value",), True),
        ("lucas_u", ("value",), 1.0),
        ("primitive_divisor", ("n",), 5.0),
        ("primitive_divisor", ("exists",), 1),
        ("defective_pair_expansion", ("trace", 0, "a"), True),
    ],
    ids=["value-true", "value-float", "n-float", "exists-int", "qpow-a-true"],
)
def test_json_replay_holds_each_value_to_the_writers_types(op, path, value):
    # each rewrite equals what the writer emits (True == 1 == 1.0), as a
    # MappingProxyType or a verdict may equal a JSON dict, yet none is it
    _, trace = solve(3)
    data = json.loads(json.dumps(trace.to_jsonable()))
    assert ProofTrace.from_jsonable(data).replay() == []
    i = [s["op"] for s in data["steps"]].index(op)
    *keys, last = path
    held = data["steps"][i]["result"]
    for key in keys:
        held = held[key]
    assert held[last] == value and type(held[last]) is not type(value)
    held[last] = value
    assert ProofTrace.from_jsonable(data).replay() == [f"step {i} {op}: value differs"]


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
            f"step {i} mod19_forces_p: value differs"
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
    assert trace.replay() == [f"step {i} mod19_forces_p: value differs"]
    assert rebuilt_from_json(trace).replay() == [f"step {i} mod19_forces_p: value differs"]


def test_replay_names_a_shared_verdict_step_tampered_to_p_19():
    # the step still holds the shared verdict replay gets back for solve's
    # p; the recorded p = 19 is not solve's
    _, trace = solve(7, cross_check=False)
    step = trace.find("mod19_forces_p")[0]
    assert step.inputs["t"] < step.inputs["k"] and step.inputs["p"] != 19
    tampered = with_inputs(trace, "mod19_forces_p", p=19)
    i = [s.op for s in trace.steps].index("mod19_forces_p")
    assert tampered.steps[i].value is step.value
    for replayed in (tampered, rebuilt_from_json(tampered)):
        (bad,) = replayed.replay()
        assert bad.startswith(f"step {i} mod19_forces_p: solve passes")


def test_replay_names_a_bhv_gate_step_with_another_recorded_pair():
    # bhv_gate reads p alone, yet replay checks the recorded P and Q too
    _, trace = solve(1, n_max=7, cross_check=False)
    step = trace.find("bhv_gate")[0]
    assert step.inputs == {"P": 1, "Q": 5, "p": 3}
    i = [s.op for s in trace.steps].index("bhv_gate")
    (bad,) = rebuilt_from_json(with_inputs(trace, "bhv_gate", P=3)).replay()
    assert bad == (
        f"step {i} bhv_gate: solve passes {{'P': 1, 'Q': 5, 'p': 3}}, "
        "the trace records 'bhv_gate' {'P': 3, 'Q': 5, 'p': 3}"
    )


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
    assert (lift.inputs, json_safe(lift.value)) == ({"y": 5, "j": 7, "n": 49}, {"root": None})
    assert trace.replay() == [] and rebuilt_from_json(trace).replay() == []
    steps = list(trace.steps)
    i = [s.op for s in trace.steps].index("composite_lift")
    steps[i] = ProofStep("composite_lift", lift.inputs, {"root": 5})
    tampered = ProofTrace(k=0, n_max=49, steps=steps)
    assert tampered.replay() == [f"step {i} composite_lift: value differs"]
    assert rebuilt_from_json(tampered).replay() == [f"step {i} composite_lift: value differs"]


@pytest.mark.parametrize("y, lifted", [(27, [Solution(1, 3, 9)]), (25, [])])
def test_composite_lift_appends_the_root_of_a_planted_y(monkeypatch, y, lifted):
    # no instance has an odd-prime solution whose y is a perfect power, so
    # one is planted at p = 3: n = 9 = 3 * 3 lifts it through y^3 = 27
    planted = [Solution(1, y, 3)]
    monkeypatch.setattr(
        solver_mod, "_odd_prime_solutions", lambda kk, p, trace: planted if p == 3 else []
    )
    monkeypatch.setattr(solver_mod, "is_solution", lambda *args: True)
    trace = ProofTrace(0, 9)
    sols = solver_mod._primitive_solutions(0, 9, trace)
    (lift,) = trace.find("composite_lift")
    assert lift.inputs == {"y": y, "j": 3, "n": 9}
    assert lift.value["root"] == (3 if lifted else None)
    assert [s for s in sols if s.n == 9] == lifted
    assert planted[0] in sols


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
            scribble(json_safe(step.value))
        assert t.replay() == []


@pytest.mark.parametrize("k", range(8))
def test_trace_json_equals_its_steps_serialized_one_by_one(k):
    # to_jsonable builds one result per distinct value object; each step
    # serialized on its own, with no memo, must give the same bytes
    _, trace = solve(k)
    for t in (trace, rebuilt_from_json(trace)):
        data = t.to_jsonable()
        alone = {
            **data,
            "steps": [
                {"op": s.op, "inputs": json_safe(s.inputs), "result": json_safe(s.value)}
                for s in t.steps
            ],
        }
        assert json.dumps(data) == json.dumps(alone)
        assert [s["result"] for s in data["steps"]] == [json_safe(s.value) for s in t.steps]


def test_solve_and_replay_build_no_json(monkeypatch):
    # the JSON form is built only by to_jsonable
    def refuse(value):
        raise AssertionError("json_safe called")

    with monkeypatch.context() as patch:
        patch.setattr(solver_mod, "json_safe", refuse)
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
    # plant x = 57 = 19*3, so Z = 3: the scan itself raises, naming it
    scan = caseworks.generalized_scan
    monkeypatch.setattr(
        caseworks, "generalized_scan", lambda *window: [*scan(*window), (57, 7, 3)]
    )
    witness = re.escape("(Z, Y, n) in ((3, 7, 3),)")
    with pytest.raises(RuntimeError, match=witness):
        caseworks.no_19z2_solutions(3, 10)
    with pytest.raises(RuntimeError, match=witness):
        solve(0, cross_check=False)


def test_solve_raises_when_a_lift_does_not_reduce(monkeypatch):
    # every lift solve(6) tries reduces to k - s, so one that does not is a
    # fault: it raises, naming s, t and n; the cross-check cannot see it, as
    # every lifted x is above its default x_max of 10^7
    monkeypatch.setattr(
        caseworks,
        "valuation_trichotomy",
        lambda *inputs: caseworks.CaseVerdict(
            caseworks.OUTCOME_CONTRADICTION, reason="planted"
        ),
    )
    message = r"valuation_trichotomy\(s=1, t=1, n=2\) does not reduce to k - s = 5: "
    with pytest.raises(RuntimeError, match=message + "contradiction 'planted'"):
        solve(6)


@pytest.mark.parametrize(
    "name, p, planted",
    [
        # u_5, u_11 and u_13 of (1, 5) have the primitive divisors 11, 2,531
        # and 15,679, which the table's p in NO_DEFECTIVE_PAIR rests on
        ("primitive_divisor", 5, PrimitiveDivisorVerdict(5, exists=False)),
        ("primitive_divisor", 11, PrimitiveDivisorVerdict(11, False, None, "?", True)),
        ("primitive_divisor", 13, PrimitiveDivisorVerdict(13, False, obstruction="?")),
        # the defective route at (k, p) = (0, 7) rests on u_7 = 1
        ("primitive_divisor", 7, PrimitiveDivisorVerdict(7, exists=True, witness=29)),
        ("lucas_u", 7, 29),
    ],
)
def test_solve_raises_when_a_lucas_value_contradicts_the_defect_table(
    monkeypatch, name, p, planted
):
    plant(monkeypatch, name, p, planted)
    with pytest.raises(RuntimeError, match=f"for p = {p}, yet"):
        solve(0, cross_check=False)


def plant(monkeypatch, name, p, planted):
    """Make the solver's name (lucas_u or primitive_divisor) return planted
    at index p, and the true value elsewhere."""
    real = getattr(solver_mod, name)

    def planted_at_p(pair, n, *budget):
        return planted if n == p else real(pair, n, *budget)

    monkeypatch.setattr(solver_mod, name, planted_at_p)


def test_solve_takes_u7_of_either_sign(monkeypatch):
    # u_7 = -1 makes (1, 5) as defective for p = 7 as u_7 = 1 does
    plant(monkeypatch, "lucas_u", 7, -1)
    sols, _ = solve(0, cross_check=False)
    assert (559, 5, 7) in [s.as_tuple() for s in sols]


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


def test_the_step_budget_refusal_writes_a_long_bound_as_its_bit_count():
    # step_bound(10^2200, 30) has about 4,400 digits, past the int-to-str
    # limit; the refusal states itself, writing each int over 1,024 bits by
    # its bit count, whether solve or replay meets it
    message = (
        r"solve\(k=<int of 7309 bits>, n_max=30\) may take up to "
        r"<int of \d+ bits> steps, over the step budget of 100000"
    )
    with pytest.raises(ValueError, match=message):
        solve(10**2200, cross_check=False)
    (bad,) = ProofTrace(0, 10**4400).replay()
    assert re.fullmatch(
        r"solve refuses the header: solve\(k=0, n_max=<int of 14617 bits>\) may "
        r"take up to <int of \d+ bits> steps, over the step budget of 100000",
        bad,
    )


def test_solve_builds_the_instance_pair_and_the_odd_prime_table_once(monkeypatch):
    pairs, tested = [], []
    monkeypatch.setattr(
        solver_mod, "LucasPair", lambda P, Q: pairs.append((P, Q)) or LucasPair(P, Q)
    )
    real = solver_mod.is_probable_prime
    monkeypatch.setattr(
        solver_mod, "is_probable_prime", lambda n: tested.append(n) or real(n)
    )
    _, trace = solve(49)
    # only the primitive_divisor and lucas_u steps build a pair, from their
    # recorded inputs; the 50 instances share the one table of odd primes
    steps = len(trace.find("primitive_divisor")) + len(trace.find("lucas_u"))
    assert len(pairs) == steps == 152
    assert set(pairs) == {(1, 5)}
    assert len(tested) < 50


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
        (perfect_root, (8, 0), "m must be positive, got 0"),
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
