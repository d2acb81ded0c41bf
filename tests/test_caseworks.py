import json
import math

import pytest

from ln_kit import caseworks
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
from ln_kit.lucas_engine import BhvRoute, LucasPair, primitive_divisor


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
    assert mod19_forces_p(2, 0, 19).outcome == OUTCOME_FORCED
    assert mod19_forces_p(2, 0, 19).assignments == (("p", 19),)
    assert mod19_forces_p(2, 0, 7).outcome == OUTCOME_CONTRADICTION
    assert mod19_forces_p(2, 0, 3).outcome == OUTCOME_CONTRADICTION


def test_mod19_forces_p_iff_19_over_all_small_primes():
    primes = [p for p in range(3, 101, 2) if all(p % f for f in range(3, p, 2))]
    for p in primes:
        verdict = mod19_forces_p(5, 2, p)
        if p == 19:
            assert verdict.outcome == OUTCOME_FORCED
        else:
            assert verdict.outcome == OUTCOME_CONTRADICTION
        assert len(verdict.trace[0]["residues"]) == 18


def test_mod19_forces_p_precondition():
    with pytest.raises(ValueError):
        mod19_forces_p(2, 2, 19)  # t == k not allowed
    with pytest.raises(ValueError):
        mod19_forces_p(1, 0, 4)


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
    assert step["square_residues"] == [1, 9, 17, 25]
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


def test_mod_pow2_insoluble_rejects_wrong_residue_class():
    with pytest.raises(ValueError):
        mod_pow2_insoluble(13, 1)  # 1 mod 4
    with pytest.raises(ValueError):
        mod_pow2_insoluble(3, 1)  # s undefined


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
    assert by_check["mod3_forces_b"]["b_mod_3"] == [2]
    assert by_check["mod9_reduction"]["a_square_forced_mod_3"] == 2
    assert by_check["mod9_reduction"]["a_mod_3_solutions"] == []
    assert by_check["mod9_reduction"]["squares_mod_3"] == [0, 1]
    assert by_check["exhaustive_search"]["witnesses"] == []
    # 250 odd a, 250 odd |b|, both signs of b: every pair of the odd box is
    # decided (one b at a time) and counted
    assert by_check["exhaustive_search"]["candidates_checked"] == 250 * 250 * 2


def test_p3_case_paths_agree_up_to_k4():
    for k in range(5):
        verdict = p3_case(k, 200)
        by_check = {step["check"]: step for step in verdict.trace}
        assert by_check["mod9_reduction"]["a_mod_3_solutions"] == []
        assert by_check["exhaustive_search"]["witnesses"] == []


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


def test_no_19z2_small_scan():
    verdict = no_19z2_solutions(3, 10)
    assert verdict.outcome == OUTCOME_CONTRADICTION
    assert verdict.trace[0]["witnesses"] == []


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
        return CaseVerdict.forced(
            [("witness_count", len(witnesses))],
            reason="scan found witnesses; the cited insolubility would be violated",
            trace=trace,
        )
    return CaseVerdict.contradiction(
        f"19*Z^2 + 1 = 4*Y^n has no solution with odd Z <= {z_max}, "
        f"3 <= n <= {n_max} (unbounded claim cited, not reproved)",
        trace,
    )


def test_no_19z2_matches_the_reference_loop():
    for n_max in range(3, 21):
        for z_max in (1, 2, 3, 10, 100, 10**3, 10**5):
            got = no_19z2_solutions(n_max, z_max).to_jsonable()
            assert got == reference_no_19z2(n_max, z_max).to_jsonable()


def test_no_19z2_reads_witnesses_off_the_scan(monkeypatch):
    # the equation has no solutions, so plant x = 19*3 in the scan's output
    calls = []

    def planted(*window):
        calls.append(window)
        return [(19 * 3, 5, 3)]

    monkeypatch.setattr(caseworks, "generalized_scan", planted)
    verdict = no_19z2_solutions(4, 10)
    assert calls == [(19, 76, 3, 4, 190)]
    assert verdict.outcome == OUTCOME_FORCED
    assert verdict.trace[0]["witnesses"] == [[3, 5, 3]]


def test_verdict_serialization_roundtrips_json():
    for verdict in [
        even_case(0, 2),
        mod19_forces_p(2, 0, 19),
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


def test_json_safe_encodes_what_has_to_jsonable():
    objects = [
        Solution(9, 5, 2),
        Solution(19**19, 5, 7),
        even_case(9, 1),
        mod19_forces_p(2, 0, 19),
        BhvRoute.SMALL_PRIME,
        primitive_divisor(LucasPair(1, 5), 13),
        primitive_divisor(LucasPair(2, 9), 61, 0),
    ]
    for obj in objects:
        assert caseworks.json_safe(obj) == obj.to_jsonable(), obj
    assert caseworks.json_safe({"solutions": objects[:2]}) == {
        "solutions": [objects[0].to_jsonable(), objects[1].to_jsonable()]
    }
