import json
import math
import re
import time
from types import MappingProxyType

import pytest

from ln_kit import caseworks, lucas_engine, oracle
from ln_kit.caseworks import (
    OUTCOME_CONTRADICTION,
    OUTCOME_FORCED,
    OUTCOME_REDUCED,
    OUTCOME_SOLUTIONS,
    CaseVerdict,
    even_case,
    mod19_forces_kt,
    mod19_forces_p,
    mod_pow2_insoluble,
    no_19z2_solutions,
    _cubic_witnesses,
    p3_case,
    valuation_trichotomy,
)
from ln_kit.equation_model import LNInstance, Solution, instantiate_family
from ln_kit.lucas_engine import (
    BhvRoute,
    LucasPair,
    is_probable_prime,
    primitive_divisor,
)


@pytest.mark.parametrize(
    "k, t, expected",
    [(0, 0, (1, 5, 1)), (0, 1, (3, 7, 1)), (1, 0, (1, 1715, 1))],
)
def test_n1_parametric(k, t, expected):
    assert instantiate_family(LNInstance(k), "n1", t).as_tuple() == expected


def test_even_case_m1_gives_n2_family():
    verdict = even_case(0, 1)
    assert verdict.outcome == OUTCOME_SOLUTIONS
    assert [s.as_tuple() for s in verdict.solutions] == [(9, 5, 2)]
    verdict = even_case(1, 1)
    assert [s.as_tuple() for s in verdict.solutions] == [(3429, 1715, 2)]


def test_even_case_matches_family_generator():
    for k in range(7):
        verdict = even_case(k, 1)
        expected = instantiate_family(LNInstance(k), "n2", 0)
        assert list(verdict.solutions) == [expected]


def test_even_case_m2_contradiction():
    verdict = even_case(0, 2)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert "perfect 2-th power" in verdict.reason
    checks = [step["check"] for step in verdict.trace]
    assert "coprime_factor_split" in checks
    assert "perfect_power" in checks


def test_even_case_x_never_divisible_by_19():
    for k in range(5):
        verdict = even_case(k, 1)
        assert verdict.solutions[0].x % 19 != 0


def test_mod19_forces_p_examples():
    assert mod19_forces_p(19).outcome == OUTCOME_FORCED
    assert mod19_forces_p(19).assignments == (("p", 19),)
    assert mod19_forces_p(7).outcome == OUTCOME_CONTRADICTION
    assert mod19_forces_p(3).outcome == OUTCOME_CONTRADICTION


def test_mod19_forces_p_iff_19_over_all_small_primes():
    primes = [p for p in range(3, 101, 2) if all(p % f for f in range(3, p, 2))]
    for p in primes:
        verdict = mod19_forces_p(p)
        if p == 19:
            assert verdict.outcome == OUTCOME_FORCED
        else:
            assert verdict.outcome == OUTCOME_CONTRADICTION
        assert len(verdict.trace[0]["residues"]) == 18


def test_mod19_forces_p_precondition():
    # a bad p is refused on every call: a call that raised is never cached
    mod19_forces_p(19)
    mod19_forces_p(7)
    for p in (4, 8, 1, -7):
        with pytest.raises(ValueError):
            mod19_forces_p(p)


def test_mod19_forces_p_shares_one_verdict_per_p():
    for p in (3, 19, 29):
        first = mod19_forces_p(p)
        assert mod19_forces_p(p) is first
    assert mod19_forces_p(3) is not mod19_forces_p(5)


def test_mod19_forces_p_verdict_is_immutable():
    verdict = mod19_forces_p(7)
    (check,) = verdict.trace
    with pytest.raises(TypeError):
        check["residues"] = []
    with pytest.raises(TypeError):
        check["extra"] = 0
    with pytest.raises(TypeError):
        del check["check"]
    with pytest.raises(TypeError):
        check["residues"][0] = 0
    with pytest.raises(AttributeError):
        check["residues"].append(0)
    assert mod19_forces_p(7).trace[0]["residues"] == tuple(
        7 * pow(a, 6, 19) % 19 for a in range(1, 19)
    )


def test_mod19_forces_kt():
    assert mod19_forces_kt(2, 1).outcome == OUTCOME_FORCED
    assert mod19_forces_kt(3, 0).outcome == OUTCOME_CONTRADICTION


@pytest.mark.parametrize("t", range(1, 7))
def test_mod_pow2_insoluble_p19(t):
    verdict = mod_pow2_insoluble(19, t)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    step = verdict.trace[0]
    assert step["modulus"] == 32
    assert step["odd_residues_checked"] == 16
    assert step["square_residues"] == (1, 9, 17, 25)
    assert step["target"] not in step["square_residues"]


def test_mod_pow2_insoluble_targets():
    # 19^2 * 10 = 26 and 19^4 * 10 = 10 mod 32
    assert mod_pow2_insoluble(19, 1).trace[0]["target"] == 26
    assert mod_pow2_insoluble(19, 2).trace[0]["target"] == 10


def test_mod_pow2_insoluble_p7():
    verdict = mod_pow2_insoluble(7, 1)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.trace[0]["modulus"] == 8
    assert verdict.trace[0]["target"] == 4


def test_mod_pow2_insoluble_t0_route():
    # the b = +-1 route hits the same congruence with 19^(2t) collapsed
    verdict = mod_pow2_insoluble(19, 0)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.trace[0]["target"] == 10


def test_mod_pow2_insoluble_prices_its_residues_before_listing_them(monkeypatch):
    # p = 3 + 2^20 * 5 lists the 2^20 odd residues mod 2^21: over a budget of
    # 2^19 it is refused before the first one
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", 2**19)
    with pytest.raises(ValueError, match="mod_pow2_insoluble.*scan budget"):
        mod_pow2_insoluble(5_242_883, 0)
    assert mod_pow2_insoluble(19, 0).trace[0]["odd_residues_checked"] == 16


def test_mod_pow2_insoluble_is_priced_at_its_odd_residues(monkeypatch):
    # p = 7: s = 2, modulus 8, so 4 odd residues
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", 3)
    with pytest.raises(ValueError, match="needs 4 candidates"):
        mod_pow2_insoluble(7, 0)
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", 4)
    assert mod_pow2_insoluble(7, 0).trace[0]["odd_residues_checked"] == 4


def test_mod_pow2_insoluble_rejects_wrong_residue_class():
    with pytest.raises(ValueError):
        mod_pow2_insoluble(13, 1)  # 1 mod 4
    with pytest.raises(ValueError, match="congruent to 3 mod 4 and > 3, got 3"):
        mod_pow2_insoluble(3, 1)  # s undefined


def test_mod_pow2_insoluble_contradicts_every_prime_it_accepts():
    # the target 19^(2t) * (2 + 2^(s-1)) is even mod 2^(s+1) and an odd
    # square is odd, so no accepted (p, t) is soluble
    primes = [p for p in range(7, 3000, 4) if is_probable_prime(p)]
    assert len(primes) == 217
    for p in primes:
        for t in range(12):
            verdict = mod_pow2_insoluble(p, t)
            assert verdict.outcome == OUTCOME_CONTRADICTION, (p, t)
            assert verdict.trace[0]["solutions"] == (), (p, t)


def test_the_power_of_two_sieve_raises_where_it_finds_an_odd_root():
    # p = 19: s = 4, modulus 32; 1 is an odd square, a target no t builds
    with pytest.raises(RuntimeError, match=r"a\^2 = 1 \(mod 32\) is soluble"):
        caseworks._pow2_verdict(19, 4, 1)


@pytest.mark.parametrize("p", [15, 27, 35])
@pytest.mark.parametrize("t", [0, 1])
def test_mod_pow2_insoluble_rejects_composite_p(p, t):
    # 3 mod 4 and above 3, but not prime
    with pytest.raises(ValueError, match="prime"):
        mod_pow2_insoluble(p, t)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_p3_case(k):
    verdict = p3_case(k, 500)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    by_check = {step["check"]: step for step in verdict.trace}
    assert by_check["mod3_forces_b"]["b_mod_3"] == (2,)
    assert by_check["mod9_reduction"]["a_square_forced_mod_3"] == 2
    assert by_check["mod9_reduction"]["a_mod_3_solutions"] == ()
    assert by_check["mod9_reduction"]["squares_mod_3"] == (0, 1)
    assert by_check["exhaustive_search"]["witnesses"] == ()
    # 250 odd a, 250 odd |b|, both signs of b: every pair of the odd box is
    # decided (one b at a time) and counted
    assert by_check["exhaustive_search"]["candidates_checked"] == 250 * 250 * 2


def residues_by_enumeration(target):
    """What 3a^2 b - 19b^3 = target allows, by enumerating (a, b) mod 9: the
    b mod 3, the a mod 9 with some b = 2 (mod 3), and those a mod 3."""
    def holds(a, b, m):
        return (3 * a * a * b - 19 * b**3 - target) % m == 0

    b_mod3 = {b % 3 for a in range(9) for b in range(9) if holds(a, b, 3)}
    a_mod9 = {a for a in range(9) for b in range(2, 9, 3) if holds(a, b, 9)}
    return b_mod3, a_mod9, {a % 3 for a in a_mod9}


def test_p3_cases_residue_reduction_matches_enumeration():
    # p3_case reads its mod-3 and mod-9 reduction from _cubic_residues; its own
    # target 4*19^k is 4 mod 9, and 4 or 6 mod 10, so it cannot tell a reduction
    # of target % 9 from one of target % 10.  Targets 1..200 can.
    formula_mod10 = []
    for target in range(1, 201):
        b_mod3, forced_square, a_mod3 = caseworks._cubic_residues(target)
        b_seen, a_mod9, a_seen = residues_by_enumeration(target)
        assert set(b_mod3) == b_seen and set(a_mod3) == a_seen, target
        if target % 3 != 1:  # b = 2 (mod 3) is ruled out: no square is forced
            continue
        # with b = 2 (mod 3), exactly the a whose square is the forced one
        assert a_mod9 == {a for a in range(9) if a * a % 3 == forced_square}, target
        formula_mod10.append(2 * ((target % 10 + 8) // 3) % 3 == forced_square)
    assert len(formula_mod10) == 67 and not all(formula_mod10)
    assert caseworks._cubic_residues(4 * 19**5) == ((2,), 2, ())


def test_p3_case_at_its_least_bound():
    # search_bound = 1: one odd a, b = +-1; 0 is refused
    by_check = {step["check"]: step for step in p3_case(0, 1).trace}
    assert by_check["exhaustive_search"] == {
        "check": "exhaustive_search",
        "bound": 1,
        "candidates_checked": 2,
        "witnesses": (),
    }
    with pytest.raises(ValueError, match="search_bound >= 1, got 0, 0"):
        p3_case(0, 0)


@pytest.mark.parametrize(
    "helper, planted",
    [
        ("_cubic_witnesses", lambda target, bound: [(1, -1)]),
        ("_cubic_residues", lambda target: ((2,), 2, (1,))),
    ],
)
def test_p3_case_raises_when_its_two_paths_disagree(helper, planted, monkeypatch):
    # a witness from the search, or an a mod 3 left by the residue path,
    # contradicts the other path: p3_case refuses rather than close the case
    monkeypatch.setattr(caseworks, helper, planted)
    with pytest.raises(RuntimeError, match="disagree for k=3"):
        p3_case(3, 50)


def test_p3_case_paths_agree_up_to_k4():
    for k in range(5):
        verdict = p3_case(k, 200)
        by_check = {step["check"]: step for step in verdict.trace}
        assert by_check["mod9_reduction"]["a_mod_3_solutions"] == ()
        assert by_check["exhaustive_search"]["witnesses"] == ()


def naive_cubic_witnesses(target, bound):
    """Reference: every odd a, then every odd b in the order 1, -1, 3, -3, ..."""
    odd = range(1, bound + 1, 2)
    return [
        (a, b)
        for a in odd
        for b_abs in odd
        for b in (b_abs, -b_abs)
        if 3 * a * a * b - 19 * b**3 == target
    ]


def test_cubic_witnesses_match_naive_search():
    bound = 39
    # two witnesses each: one a with two b, and a order against b order
    targets = {0, 1, -1, 4, 76, 1064, -1064, 13176, -13176}
    for a in (1, 3, 19, bound, bound + 2, 2, 4, 38, 40):  # odd, past the bound, even
        for b in (1, -1, 3, -3, 9, -9, bound, -bound, bound + 2, 2, -4):
            for delta in (0, 1, 2, -1, -2):
                targets.add(3 * a * a * b - 19 * b**3 + delta)
    for target in sorted(targets):
        assert _cubic_witnesses(target, bound) == naive_cubic_witnesses(target, bound)
    assert _cubic_witnesses(1064, bound) == [(19, 1), (19, 7)]
    assert _cubic_witnesses(-13176, bound) == [(5, 9), (39, -3)]


def test_cubic_witnesses_reject_what_the_box_excludes():
    assert _cubic_witnesses(3 * 15**2 * 1 - 19, 15) == [(15, 1)]  # a = bound
    assert _cubic_witnesses(3 * 15**2 * -1 + 19, 15) == [(15, -1)]  # b < 0
    assert _cubic_witnesses(3 * 17**2 * 1 - 19, 15) == []  # a = 17 > bound
    assert _cubic_witnesses(3 * 4**2 * 1 - 19, 15) == []  # a = 4 is even
    assert _cubic_witnesses(-19, 15) == []  # a^2 = 0 at b = 1
    assert _cubic_witnesses(-22, 15) == []  # a^2 = -1 at b = 1
    assert _cubic_witnesses(-18, 15) == []  # 3b does not divide at b = +-1
    # a = 1, b = 5: |b| = 5 is past a bound of 4
    assert _cubic_witnesses(-2360, 4) == []
    assert _cubic_witnesses(-2360, 5) == [(1, 5)]


def test_cubic_witnesses_none_for_the_p3_targets():
    for k in range(61):
        assert _cubic_witnesses(4 * 19**k, 501) == []


def test_p3_cross_check_against_ring_power():
    # the cubic identity is the imaginary part of the ring cube: for odd a, b,
    # qpow((a,b),3).b * 4 == 3a^2 b - 19 b^3
    from ln_kit.quadratic_integers import QuadInt19, qpow

    for a in range(-9, 10, 2):
        for b in range(-9, 10, 2):
            assert 4 * qpow(QuadInt19(a, b), 3).b == 3 * a * a * b - 19 * b**3


def test_valuation_split_validation():
    with pytest.raises(ValueError):
        valuation_trichotomy(1, 1, 1, 19, 5, 2)  # 19 | X
    with pytest.raises(ValueError):
        valuation_trichotomy(1, 1, 1, 9, 38, 2)  # 19 | Y
    with pytest.raises(ValueError):
        valuation_trichotomy(1, 1, 1, 4, 5, 2)  # even X
    with pytest.raises(ValueError):
        valuation_trichotomy(1, -1, 1, 9, 5, 2)


def test_trichotomy_at_X_and_Y_equal_to_1():
    # the least X and Y its checks admit; 0 is refused
    verdict = valuation_trichotomy(1, 1, 1, 1, 1, 2)
    assert verdict.outcome == OUTCOME_REDUCED and verdict.reduced_k == 0
    for X, Y in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="X >= 1, Y >= 1"):
            valuation_trichotomy(1, 1, 1, X, Y, 2)


def test_trichotomy_reduces_n2_scaling():
    verdict = valuation_trichotomy(1, 1, 1, 9, 5, 2)
    assert verdict.outcome == OUTCOME_REDUCED
    assert verdict.reduced_k == 0
    assert any("2*s" in c for c in verdict.constraints)


def test_trichotomy_min_2s_records_constraint():
    # min = 2s with t*n != 2s: X^2 + 19 = 76*Y^3 forces 19 | X, so the branch
    # closes, with the failed forcing recorded
    verdict = valuation_trichotomy(1, 1, 1, 9, 5, 3)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.reduced_k is None
    forcing = [s for s in verdict.trace if s["check"] == "mod19_forcing"]
    assert forcing and forcing[0]["holds"] is False


def test_trichotomy_reduces_iff_2s_equals_tn_below_2k1():
    # after dividing by 19^min, one term is prime to 19 unless the two
    # smallest valuations tie, and only 2s = t*n < 2k+1 can tie
    for k in range(6):
        for s_val in range(1, k + 3):
            for t in range(7):
                for n in range(2, 11):
                    verdict = valuation_trichotomy(k, s_val, t, 9, 5, n)
                    if 2 * s_val == t * n < 2 * k + 1:
                        assert verdict.outcome == OUTCOME_REDUCED, (k, s_val, t, n)
                        assert verdict.reduced_k == k - s_val
                    else:
                        assert verdict.outcome == OUTCOME_CONTRADICTION, (k, s_val, t, n)


def test_trichotomy_min_2k1_le_branch():
    # min = 2k+1 = t*n: closes on the cited 19Z^2+1 = 4Y^n dead end
    verdict = valuation_trichotomy(1, 2, 1, 9, 5, 3)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert "19*Z^2" in verdict.reason


def test_trichotomy_min_2k1_forcing_violated():
    verdict = valuation_trichotomy(1, 2, 2, 9, 5, 2)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert "t*n = 2k+1" in verdict.reason or "forces t*n" in verdict.reason


def test_trichotomy_min_tn_mismatch():
    verdict = valuation_trichotomy(3, 2, 1, 9, 5, 3)
    assert verdict.outcome == OUTCOME_CONTRADICTION


def test_trichotomy_n7_scaling_needs_7_dividing_s():
    # k = 7, s = 7, n = 7: t = 2 satisfies t*n = 2s, reduction hits k' = 0
    verdict = valuation_trichotomy(7, 7, 2, 559, 5, 7)
    assert verdict.outcome == OUTCOME_REDUCED
    assert verdict.reduced_k == 0


def test_trichotomy_t0_is_contradiction():
    # t = 0 means 19 divides x but not y: impossible, caught by min = tn = 0
    verdict = valuation_trichotomy(2, 1, 0, 9, 5, 2)
    assert verdict.outcome == OUTCOME_CONTRADICTION


def test_trichotomy_preconditions():
    with pytest.raises(ValueError):
        valuation_trichotomy(1, 0, 1, 9, 5, 2)
    with pytest.raises(ValueError, match="need k >= 0 and n >= 2, got k=1, n=1"):
        valuation_trichotomy(1, 1, 1, 9, 5, 1)


def test_no_19z2_small_scan():
    verdict = no_19z2_solutions(3, 10)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.trace[0]["witnesses"] == ()


def test_no_19z2_wider_scan():
    verdict = no_19z2_solutions(20, 10**3)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.trace[0]["candidates_checked"] > 0


def reference_no_19z2(n_max, z_max):
    """Reference: the y-loop no_19z2_solutions ran before it used the oracle's
    scan, trying every y >= 1 with 4*y^n <= 19*z_max^2 + 1."""
    limit = 19 * z_max * z_max + 1
    witnesses = []
    checked = 0
    for n in range(3, n_max + 1):
        y = 1
        while 4 * y**n <= limit:
            checked += 1
            m = 4 * y**n - 1
            if m % 19 == 0:
                z = math.isqrt(m // 19)
                if z * z == m // 19 and z % 2 == 1:
                    witnesses.append((z, y, n))
            y += 1
    trace = (
        {
            "check": "exhaustive_scan",
            "n_min": 3,
            "n_max": n_max,
            "z_max": z_max,
            "candidates_checked": checked,
            "witnesses": [list(w) for w in witnesses],
        },
    )
    if witnesses:
        return CaseVerdict(
            OUTCOME_FORCED,
            assignments=[("witness_count", len(witnesses))],
            reason="scan found witnesses; the cited insolubility would be violated",
            trace=trace,
        )
    return CaseVerdict(
        OUTCOME_CONTRADICTION,
        reason=f"19*Z^2 + 1 = 4*Y^n has no solution with odd Z <= {z_max}, "
        f"3 <= n <= {n_max} (unbounded claim cited, not reproved)",
        trace=trace,
    )


def test_no_19z2_matches_the_reference_loop():
    for n_max in range(3, 21):
        for z_max in (1, 2, 3, 10, 100, 10**3, 10**5):
            got = no_19z2_solutions(n_max, z_max).to_jsonable()
            assert got == reference_no_19z2(n_max, z_max).to_jsonable()


def test_no_19z2_counts_every_n_up_to_n_max():
    # each n whose root is 1 counts one candidate, however far n_max reaches
    for z_max in (1, 10, 10**5):
        limit = 19 * z_max * z_max + 1
        per_n = [oracle.iroot(limit // 4, n) for n in range(3, 201)]
        for n_max in range(3, 201):
            (check,) = no_19z2_solutions(n_max, z_max).trace
            assert check["candidates_checked"] == sum(per_n[: n_max - 2]), (n_max, z_max)


def test_no_19z2_counts_a_huge_n_max_without_a_root_per_n():
    start = time.perf_counter()
    (check,) = no_19z2_solutions(10**8, 1).trace
    assert time.perf_counter() - start < 1.0
    assert check["candidates_checked"] == 10**8 - 2


def test_no_19z2_reads_witnesses_off_the_scan(monkeypatch):
    # the equation has no solutions, so plant x = 19*3 in the scan's output;
    # a witness raises on every call, as a call that raised is never cached
    calls = []

    def planted(*window):
        calls.append(window)
        return [(19 * 3, 5, 3)]

    monkeypatch.setattr(caseworks, "generalized_scan", planted)
    for _ in range(2):
        with pytest.raises(RuntimeError, match=re.escape("((3, 5, 3),)")):
            no_19z2_solutions(4, 10)
    assert calls == [(19, 76, 3, 4, 190)] * 2


def test_verdict_serialization_roundtrips_json():
    for verdict in [
        even_case(0, 2),
        mod19_forces_p(19),
        mod_pow2_insoluble(19, 1),
        p3_case(0, 50),
        valuation_trichotomy(1, 1, 1, 9, 5, 2),
        no_19z2_solutions(3, 10),
    ]:
        blob = json.dumps(verdict.to_jsonable(), sort_keys=True)
        assert json.loads(blob)["outcome"] == verdict.outcome


def test_verdict_big_int_stringified():
    verdict = even_case(9, 1)
    blob = verdict.to_jsonable()
    split = [s for s in blob["trace"] if s["check"] == "coprime_factor_split"][0]
    assert isinstance(split["large_factor"], str)  # 19^19 exceeds 2^53


def reference_json_safe(v):
    # json_safe as it was before its fast paths, kept as the reference
    if isinstance(v, bool):
        return v
    if isinstance(v, int) and abs(v) >= 2**53:
        return str(v)
    if isinstance(v, (list, tuple)):
        return [reference_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: reference_json_safe(x) for k, x in v.items()}
    return v


def test_json_safe_matches_the_reference():
    edges = [2**53 - 1, 2**53, -(2**53) + 1, -(2**53), 0, 1, -1, 19**19, -(19**19)]
    values = [
        *edges,
        True,
        False,
        None,
        "19",
        1.5,
        [],
        (),
        edges,
        tuple(edges),
        [3, 12, 8],
        [True, 2],
        [[1, 2**60], (3, -5)],
        [1, "a", None],
        [2**53 - 1, -(2**53) + 1],
        {},
        {"a": 2**53, "b": 2**53 - 1, "c": True, "d": "19", "e": None},
        {"a": {"b": [1, 2**60], "c": (3, -(19**19))}, "d": {"e": {"f": 2**53}}},
        [{"x": 1}, {"y": -(2**53)}, ()],
        [1, 2**53],  # the list fast path stops below 2^53, as the int rule does
        [-(2**53), 1],
    ]
    for v in values:
        got = caseworks.json_safe(v)
        # json.dumps tells True from 1 and "1" from 1
        assert json.dumps(got) == json.dumps(reference_json_safe(v)), v
        if isinstance(v, (list, tuple)):
            assert type(got) is list and got is not v
        if isinstance(v, dict):
            assert type(got) is dict and got is not v
    nested = [[1, 2], [3]]
    got = caseworks.json_safe(nested)
    got[0].append(4)
    assert nested == [[1, 2], [3]]


def test_json_safe_of_dicts_shares_nothing():
    nested = {"a": [1, 2], "b": {"c": [3, {"d": 4}], "e": (5,)}, "f": 19**19}
    got = caseworks.json_safe(nested)
    assert got == {"a": [1, 2], "b": {"c": [3, {"d": 4}], "e": [5]}, "f": str(19**19)}
    got["a"].append(0)
    got["b"]["c"][1]["d"] = 0
    got["b"]["c"].append(0)
    got["b"]["g"] = 0
    got["h"] = 0
    assert nested == {"a": [1, 2], "b": {"c": [3, {"d": 4}], "e": (5,)}, "f": 19**19}


def test_json_safe_of_a_read_only_mapping_is_a_fresh_dict():
    inner = {"e": [1, 2**60]}
    plain = {"z": 1, "a": (3, 19**19), "m": inner, "b": [4]}
    proxy = MappingProxyType(plain)
    got = caseworks.json_safe(proxy)
    assert type(got) is dict
    assert got == caseworks.json_safe(plain)
    assert list(got) == ["z", "a", "m", "b"]
    assert json.dumps(got) == json.dumps(caseworks.json_safe(plain))
    assert got["m"] is not inner and got["b"] is not plain["b"]
    got["m"]["e"].append(0)
    got["b"].append(0)
    got["n"] = 0
    assert plain == {"z": 1, "a": (3, 19**19), "m": {"e": [1, 2**60]}, "b": [4]}


def test_json_safe_encodes_what_has_to_jsonable():
    objects = [
        Solution(9, 5, 2),
        Solution(19**19, 5, 7),
        even_case(9, 1),
        mod19_forces_p(19),
        BhvRoute.SMALL_PRIME,
        primitive_divisor(LucasPair(1, 5), 13),
        primitive_divisor(LucasPair(2, 9), 61, 0),
    ]
    for obj in objects:
        assert caseworks.json_safe(obj) == obj.to_jsonable(), obj
    assert caseworks.json_safe({"solutions": objects[:2]}) == {
        "solutions": [objects[0].to_jsonable(), objects[1].to_jsonable()]
    }


def test_p3_case_refuses_over_the_scan_budget_with_its_count():
    # 10^15 odd values of |b|, each with both signs
    with pytest.raises(ValueError, match="needs 1000000000000000 candidates.*scan budget"):
        p3_case(0, 10**15)
