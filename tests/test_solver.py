import dataclasses
import hashlib
import json

import pytest

from ln_kit import caseworks
from ln_kit.equation_model import LNInstance, Solution, is_solution, theorem_solution_set
from ln_kit.oracle import SearchWindow
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
    i = trace.ops().index("p3_case")
    flipped = {**steps[i].result, "outcome": "solutions"}
    steps[i] = ProofStep("p3_case", steps[i].inputs, flipped)
    j = trace.ops().index("valuation_trichotomy")
    x_times_19 = {**steps[j].inputs, "X": steps[j].inputs["X"] * 19}
    steps[j] = ProofStep("valuation_trichotomy", x_times_19, steps[j].result)
    bad = ProofTrace(k=7, n_max=7, steps=steps).replay()
    assert [b.split(":")[0] for b in bad] == ["p3_case", "valuation_trichotomy"]
    assert trace.replay() == []


def test_replay_names_a_dropped_oracle_triple():
    _, trace = solve(1, n_max=10, oracle_x_max=10**4)
    steps = list(trace.steps)
    i = trace.ops().index("oracle_cross_check")
    assert len(steps[i].result["solutions"]) == 2
    dropped = {"solutions": steps[i].result["solutions"][1:]}
    steps[i] = ProofStep("oracle_cross_check", steps[i].inputs, dropped)
    assert ProofTrace(k=1, n_max=10, steps=steps).replay() == ["oracle_cross_check"]
    assert trace.replay() == []


def test_replay_refuses_a_tampered_huge_z_max():
    # the 19*Z^2 + 1 scan is under the oracle's scan budget: refused, not run
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = trace.ops().index("no_19z2_solutions")
    huge = {**steps[i].inputs, "z_max": 10**15}
    steps[i] = ProofStep("no_19z2_solutions", huge, steps[i].result)
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith("no_19z2_solutions:") and "scan budget" in bad


def test_replay_refuses_a_tampered_huge_p3_search_bound():
    # p3_case's box is under the oracle's scan budget too: refused, not run
    _, trace = solve(0, n_max=3, cross_check=False)
    steps = list(trace.steps)
    i = trace.ops().index("p3_case")
    huge = {**steps[i].inputs, "search_bound": 10**15}
    steps[i] = ProofStep("p3_case", huge, steps[i].result)
    (bad,) = ProofTrace(k=0, n_max=3, steps=steps).replay()
    assert bad.startswith("p3_case:") and "scan budget" in bad


def test_oracle_fields_survive_a_json_round_trip():
    for cross_check in (True, False):
        _, trace = solve(1, n_max=10, oracle_x_max=10**4, cross_check=cross_check)
        data = json.loads(json.dumps(trace.to_jsonable()))
        rebuilt = ProofTrace(
            k=data["k"],
            n_max=data["n_max"],
            steps=[ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]],
        )
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


def rebuilt_from_json(trace):
    data = json.loads(json.dumps(trace.to_jsonable()))
    return ProofTrace(
        k=data["k"],
        n_max=data["n_max"],
        steps=[ProofStep(s["op"], s["inputs"], s["result"]) for s in data["steps"]],
    )


def test_replay_names_tampered_native_values():
    _, trace = solve(2, n_max=7, cross_check=False)
    steps = list(trace.steps)
    i = trace.ops().index("even_case")
    found = steps[i].value
    (sol,) = found.solutions
    moved = Solution(sol.x, sol.y + 2, sol.n)
    moved_found = dataclasses.replace(found, solutions=(moved,))
    steps[i] = ProofStep("even_case", steps[i].inputs, moved_found)
    j = trace.ops().index("mod19_forces_p")
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
    i = trace.ops().index("valuation_trichotomy")
    step = trace.steps[i]
    for X in (step.inputs["X"] * 19, step.inputs["X"] + 1):
        steps = list(trace.steps)
        steps[i] = ProofStep(step.op, {**step.inputs, "X": X}, step.value)
        tampered = ProofTrace(k=1, n_max=7, steps=steps)
        for replayed in (tampered, rebuilt_from_json(tampered)):
            (bad,) = replayed.replay()
            assert bad.startswith("valuation_trichotomy:"), (X, bad)


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


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve(-1)
    with pytest.raises(ValueError):
        solve(0, n_max=1)


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
    with pytest.raises(ValueError):
        defect_table_route(3, 0)


def test_defective_pair_expansion_unique_solution():
    verdict = defective_pair_expansion(0, 7)
    assert [s.as_tuple() for s in verdict.solutions] == [(559, 5, 7)]
    # all four unit/sign candidates were expanded
    assert len(verdict.trace) == 4
    with pytest.raises(ValueError):
        defective_pair_expansion(1, 7)
