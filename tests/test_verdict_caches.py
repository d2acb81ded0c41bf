"""Verdicts decided once per process: every cache is bounded by the one
constant and cleared before each test, every shared verdict is read-only,
each procedure still refuses bad inputs on a cache hit, and replay names a
tampered step that holds a shared verdict."""

import sys
from collections import defaultdict
from types import MappingProxyType

import pytest
from conftest import package_caches, package_modules, rebuilt_from_json

from ln_kit import caseworks, lucas_engine, oracle
from ln_kit.caseworks import CaseVerdict, mod_pow2_insoluble, no_19z2_solutions
from ln_kit.lucas_engine import (
    VERDICT_CACHE_SIZE,
    LucasPair,
    PrimitiveDivisorVerdict,
    is_probable_prime,
    primitive_divisor,
)
from ln_kit.solver import (
    NO_DEFECTIVE_PAIR,
    STEP_BUDGET,
    ProofStep,
    ProofTrace,
    always_primitive_closure,
    solve,
    step_bound,
)


def test_every_verdict_cache_is_bounded_and_cleared_before_each_test():
    # a direct caller may name any number of distinct inputs
    caches = package_caches()
    assert len(caches) >= 5
    assert {
        name: cache.cache_info().maxsize for name, cache in caches.items()
    } == dict.fromkeys(caches, VERDICT_CACHE_SIZE)
    # the conftest fixture has cleared every one
    assert all(cache.cache_info().currsize == 0 for cache in caches.values())
    # and the bound is the package's one such constant
    assert {
        name for module in package_modules() for name in vars(module)
        if name.endswith("CACHE_SIZE")
    } == {"VERDICT_CACHE_SIZE"}


def test_the_bound_holds_every_p_one_solve_asks_about():
    # each instance asks about the odd primes <= n_max in turn, so a smaller
    # bound evicts each verdict before the next instance asks; k = 1 admits
    # the most such primes (k >= 2 fewer, and k = 0 has one instance)
    n_max = 2
    while step_bound(1, n_max + 1) <= STEP_BUDGET:
        n_max += 1
    primes = sum(map(is_probable_prime, range(3, n_max + 1, 2)))
    assert (n_max, primes) == (7144, 913)
    assert primes <= VERDICT_CACHE_SIZE


def test_the_instances_of_one_solve_share_each_closure_verdict():
    _, trace = solve(1, n_max=1700, cross_check=False)
    by_p = defaultdict(set)
    for step in trace.find("always_primitive_closure"):
        by_p[step.inputs["p"]].add(id(step.value))
    assert len(by_p) == 260
    assert all(len(ids) == 1 for ids in by_p.values())


def test_a_primitive_divisor_cache_hit_builds_no_u_n(monkeypatch):
    built = []
    lucas_u = lucas_engine.lucas_u
    monkeypatch.setattr(
        lucas_engine, "lucas_u", lambda pair, n: built.append(n) or lucas_u(pair, n)
    )
    first = primitive_divisor(LucasPair(1, 5), 13)
    assert built == [13]
    assert primitive_divisor(LucasPair(1, 5), 13) is first
    assert built == [13]


def mod_pow2_key(inputs):
    """(p, target): t enters mod_pow2_insoluble's verdict through the target."""
    p, t = inputs["p"], inputs["t"]
    s = ((p - 3) & -(p - 3)).bit_length() - 1
    modulus = 2 ** (s + 1)
    return p, pow(19, 2 * t, modulus) * (2 + 2 ** (s - 1)) % modulus


# op -> the part of a step's inputs its shared verdict depends on
SHARED = {
    "no_19z2_solutions": lambda i: (i["n_max"], i["z_max"]),
    "mod19_forces_p": lambda i: i["p"],
    "mod_pow2_insoluble": mod_pow2_key,
    "primitive_divisor": lambda i: (i["P"], i["Q"], i["n"], i["factoring_budget"]),
    "always_primitive_closure": lambda i: i["p"],
    "defect_table": lambda i: i["p"],
}


def test_steps_asking_one_question_hold_one_verdict():
    _, trace = solve(49, cross_check=False)
    objects = {}
    for op, key in SHARED.items():
        by_key = defaultdict(set)
        for step in trace.find(op):
            if op != "defect_table" or step.inputs["p"] in NO_DEFECTIVE_PAIR:
                by_key[key(step.inputs)].add(id(step.value))
        assert all(len(ids) == 1 for ids in by_key.values()), op
        # distinct questions, distinct verdicts
        assert len(set().union(*by_key.values())) == len(by_key), op
        objects[op] = (len(trace.find(op)), len(by_key))
    assert objects == {
        "no_19z2_solutions": (1, 1),
        "mod19_forces_p": (11025, 9),
        "mod_pow2_insoluble": (49, 2),
        "primitive_divisor": (151, 4),
        "always_primitive_closure": (200, 4),
        "defect_table": (200, 3),
    }


def test_solves_in_one_process_share_the_19z2_verdict():
    (first,) = solve(0)[1].find("no_19z2_solutions")
    (second,) = solve(1)[1].find("no_19z2_solutions")
    assert second.value is first.value
    assert first.value.outcome == caseworks.OUTCOME_CONTRADICTION


def shared_verdicts():
    _, trace = solve(7, cross_check=False)
    return [
        trace.find(op)[0].value for op in SHARED if op != "defect_table"
    ] + list(NO_DEFECTIVE_PAIR.values())


def read_only(value):
    """Whether value and everything it holds is immutable."""
    if value is None or type(value) in (int, str, bool):
        return True
    if type(value) is tuple:
        return all(map(read_only, value))
    if type(value) is MappingProxyType:
        return all(map(read_only, value.values()))
    if type(value) in (CaseVerdict, PrimitiveDivisorVerdict):
        return all(read_only(getattr(value, f)) for f in value.__slots__)
    return False


def test_shared_verdicts_are_read_only():
    verdicts = shared_verdicts()
    assert len(verdicts) == 8
    assert all(map(read_only, verdicts))
    for verdict in verdicts:
        with pytest.raises(AttributeError):
            verdict.n = 0
        for check in getattr(verdict, "trace", ()):
            with pytest.raises(TypeError):
                check["extra"] = 0
            with pytest.raises(TypeError):
                del check["check"]


@pytest.mark.parametrize(
    "verdict, field",
    [
        (lambda: no_19z2_solutions(4, 10), "witnesses"),
        (lambda: mod_pow2_insoluble(19, 1), "square_residues"),
        (lambda: mod_pow2_insoluble(19, 1), "solutions"),
    ],
)
def test_a_shared_verdicts_containers_refuse_edits(verdict, field):
    (check,) = verdict().trace
    with pytest.raises(TypeError):
        check[field] = []
    with pytest.raises(AttributeError):
        check[field].append(0)
    assert verdict() is verdict()


def test_json_safe_writes_shared_verdicts_as_before():
    # a read-only trace entry becomes a dict and a tuple a list, so no byte
    # of a trace changes
    (check,) = no_19z2_solutions(4, 10).to_jsonable()["trace"]
    assert type(check) is dict and check["witnesses"] == []
    (check,) = mod_pow2_insoluble(19, 1).to_jsonable()["trace"]
    assert check["square_residues"] == [1, 9, 17, 25] and check["solutions"] == []
    assert mod_pow2_insoluble(19, 1).reason.endswith("are [1, 9, 17, 25])")


def test_a_cache_hit_still_refuses_bad_inputs(monkeypatch):
    pair = LucasPair(1, 5)
    assert primitive_divisor(pair, 5).exists
    with pytest.raises(ValueError, match="at least 0, got -1"):
        primitive_divisor(pair, 5, -1)
    assert no_19z2_solutions(3, 10).outcome == caseworks.OUTCOME_CONTRADICTION
    for _ in range(2):
        with pytest.raises(ValueError, match="need n_max >= 3 and z_max >= 1"):
            no_19z2_solutions(2, 10)
    assert always_primitive_closure(17) is always_primitive_closure(17)
    with pytest.raises(ValueError, match="prime above 13, got 21"):
        always_primitive_closure(21)
    assert mod_pow2_insoluble(7, 0) is mod_pow2_insoluble(7, 4)  # one target
    with pytest.raises(ValueError, match="t must be non-negative"):
        mod_pow2_insoluble(7, -4)
    # limits read on each call: the scan budget and the digit limit
    monkeypatch.setattr(oracle, "SCAN_BUDGET", 3)
    with pytest.raises(ValueError, match="needs 4 candidates"):
        mod_pow2_insoluble(7, 0)
    assert primitive_divisor(pair, 400, 0).n == 400  # u_400 has 140 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 100, raising=False)
    with pytest.raises(ValueError, match="u_n would have about 140 digits"):
        primitive_divisor(pair, 400, 0)


def test_a_cache_keeps_an_int_and_an_equal_float_apart():
    # 17.0 passes the check as 17 does; its verdict is its own, as in a
    # process that never asked about 17
    assert always_primitive_closure(17).reason.startswith("u_17 has")
    assert always_primitive_closure(17.0).reason.startswith("u_17.0 has")
    # and a p = 7.0 that passes mod19_forces_p's checks fails in pow, not
    # on the verdict cached for 7
    assert caseworks.mod19_forces_p(7).outcome == caseworks.OUTCOME_CONTRADICTION
    with pytest.raises(TypeError):
        caseworks.mod19_forces_p(7.0)


def altered(value):
    """value with one field changed, in memory and in its JSON form."""
    if type(value) is PrimitiveDivisorVerdict:
        return PrimitiveDivisorVerdict(value.n, value.exists, 3, value.obstruction)
    if type(value) is CaseVerdict:
        return CaseVerdict(value.outcome, value.reason + ".", trace=value.trace)
    if "witness" in value:
        return {**value, "witness": "3"}
    return {**value, "reason": value["reason"] + "."}


@pytest.mark.parametrize("op", [op for op in SHARED if op != "mod19_forces_p"])
def test_replay_names_only_the_tampered_step_of_a_shared_verdict(op):
    # test_solver's json_replay test covers mod19_forces_p
    _, trace = solve(3, cross_check=False)
    rebuilt = rebuilt_from_json(trace)
    for replayed in (trace, rebuilt):
        where = [i for i, s in enumerate(replayed.steps) if s.op == op]
        # the first step of a verdict, and the last one, which may share it
        for i in sorted({where[0], where[-1]}):
            steps = list(replayed.steps)
            steps[i] = ProofStep(op, steps[i].inputs, altered(steps[i].value))
            tampered = ProofTrace(3, replayed.n_max, steps)
            assert tampered.replay() == [f"step {i} {op}: value differs"]
