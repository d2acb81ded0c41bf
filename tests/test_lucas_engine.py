import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ln_kit import lucas_engine
from ln_kit.caseworks import mod_pow2_insoluble, p3_case
from ln_kit.lucas_engine import (
    FACTORING_BUDGET,
    BhvRoute,
    LucasPair,
    _factorize,
    bhv_gate,
    check_digits,
    is_probable_prime,
    lucas_u,
    primitive_divisor,
    trial_divide,
    u_n_log10,
)
from ln_kit.oracle import SearchWindow, brute_force, generalized_scan
from ln_kit.quadratic_integers import QuadInt19, class_number_imag, qpow


def recurrence_terms(P, Q, n):
    """u_0 .. u_n straight from u_0 = 0, u_1 = 1, u_i = P*u_{i-1} - Q*u_{i-2}."""
    us = [0, 1]
    while len(us) <= n:
        us.append(P * us[-1] - Q * us[-2])
    return us[: n + 1]


def closed_form_u(P, Q, n):
    """Independent oracle: expand (P + w)^n in Z[w]/(w^2 - d) with d = P^2 - 4Q.

    (2*alpha)^n = A + B*w gives u_n = B / 2^(n-1); pure polynomial identity,
    no recurrence involved.
    """
    if n == 0:
        return 0
    d = P * P - 4 * Q

    def mul(u, v):
        return (u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    acc, base, e = (1, 0), (P, 1), n
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    assert acc[1] % 2 ** (n - 1) == 0
    return acc[1] // 2 ** (n - 1)


def valid_pair(P, Q):
    try:
        return LucasPair(P, Q)
    except ValueError:
        return None


def test_lucas_terms_for_paper_pair():
    pair = LucasPair(1, 5)
    assert recurrence_terms(1, 5, 7) == [0, 1, 1, -4, -9, 11, 56, 1]
    assert [lucas_u(pair, n) for n in range(8)] == recurrence_terms(1, 5, 7)
    assert lucas_u(pair, 7) == 1
    assert lucas_u(pair, 3) == -4


def test_lucas_u1_is_one_for_any_pair():
    for P, Q in [(1, 5), (3, -7), (5, 2), (-3, 7)]:
        assert lucas_u(LucasPair(P, Q), 1) == 1
    assert lucas_u(LucasPair(1, 5), 0) == 0


def test_lucas_u_rejects_negative_index():
    # u_{-n} = -u_n / Q^n, e.g. 4/125 at n = 3 for (1, 5): not an integer
    for n in (-1, -3):
        with pytest.raises(ValueError):
            lucas_u(LucasPair(1, 5), n)


def test_degenerate_pairs_rejected():
    for P, Q in [(1, 1), (-1, 1), (2, 1), (-2, 1)]:
        with pytest.raises(ValueError, match="degenerate Lucas pair"):
            LucasPair(P, Q)
    with pytest.raises(ValueError):
        LucasPair(0, 1)  # zero trace
    with pytest.raises(ValueError):
        LucasPair(2, 4)  # not coprime
    with pytest.raises(ValueError):
        LucasPair(3, 0)  # zero product


def test_closed_form_agreement_small_pairs():
    # u_n from the recurrence equals the quadratic-expansion quotient
    for P in range(-20, 21):
        for Q in range(-20, 21):
            pair = valid_pair(P, Q)
            if pair is None:
                continue
            seq = recurrence_terms(P, Q, 25)
            for n in range(26):
                assert seq[n] == closed_form_u(P, Q, n), (P, Q, n)
                assert lucas_u(pair, n) == seq[n], (P, Q, n)


def test_closed_form_via_ring_of_q_sqrt_minus19():
    # pairs with discriminant exactly -19: u_n is the sqrt(-19)-coefficient
    # of ((P + sqrt(-19))/2)^n, reusing the quadratic-integer arithmetic
    for P in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9):
        Q = (P * P + 19) // 4
        pair = LucasPair(P, Q)
        assert pair.disc == -19
        for n in range(16):
            assert lucas_u(pair, n) == qpow(QuadInt19(P, 1), n).b


@settings(max_examples=300)
@given(
    st.integers(-12, 12).filter(lambda p: p != 0),
    st.integers(-12, 12).filter(lambda q: q != 0),
    st.integers(1, 8),
    st.integers(2, 4),
)
def test_divisibility_u_m_divides_u_n(P, Q, m, mult):
    pair = valid_pair(P, Q)
    if pair is None:
        return
    n = m * mult
    um, un = lucas_u(pair, m), lucas_u(pair, n)
    if um != 0:
        assert un % um == 0


def test_bhv_gate_routes():
    assert bhv_gate(17) is BhvRoute.ALWAYS_PRIMITIVE
    assert bhv_gate(19) is BhvRoute.ALWAYS_PRIMITIVE
    assert bhv_gate(7) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(5) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(13) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(3) is BhvRoute.SMALL_PRIME
    assert bhv_gate(2) is BhvRoute.SMALL_PRIME
    with pytest.raises(ValueError):
        bhv_gate(9)


def test_primitive_divisor_unit_term():
    # u_7 = 1 for the pair of the n = 7 solution: no prime can divide it
    verdict = primitive_divisor(LucasPair(1, 5), 7)
    assert verdict.exists is False
    assert verdict.indeterminate is False
    assert verdict.witness is None
    assert "unit" in verdict.obstruction


def test_primitive_divisor_small_witness():
    verdict = primitive_divisor(LucasPair(1, 5), 3)
    assert verdict.exists is True
    assert verdict.witness == 2  # u_3 = -4; 2 divides neither -19 nor u_2 = 1


@pytest.mark.parametrize("n, witness", [(3, 2), (5, 11), (11, 2531), (13, 15679)])
def test_primitive_divisor_exists_for_paper_pair(n, witness):
    verdict = primitive_divisor(LucasPair(1, 5), n)
    assert verdict.exists is True
    assert verdict.witness == witness


def test_primitive_divisor_obstruction_by_the_discriminant():
    # Fibonacci: u_5 = 5, and 5 divides the discriminant 1 + 4 = 5
    verdict = primitive_divisor(LucasPair(1, -1), 5)
    assert (verdict.exists, verdict.indeterminate) == (False, False)
    assert verdict.obstruction == "5 divides the discriminant 5"


def test_primitive_divisor_obstruction_bookkeeping():
    # u_6 = 56 = 2^3 * 7 for (1, 5): 2 divides u_3, 7 divides u_6 first
    verdict = primitive_divisor(LucasPair(1, 5), 6)
    assert verdict.exists is True
    assert verdict.witness == 7
    verdict12 = primitive_divisor(LucasPair(1, 5), 12)
    assert verdict12.indeterminate is False  # factored fine at desk scale


def test_primitive_divisor_indeterminate_on_zero_budget():
    # |u_61| for (2, 9) is a 29-digit semiprime with no factor below 10^6:
    # with no splitting budget the verdict must be indeterminate, not false
    verdict = primitive_divisor(LucasPair(2, 9), 61, factoring_budget=0)
    assert verdict.exists is False
    assert verdict.indeterminate is True
    assert "unfactored" in verdict.obstruction


def test_primitive_divisor_budget_resolves_indeterminate():
    verdict = primitive_divisor(LucasPair(2, 9), 61, factoring_budget=10**6)
    assert verdict.indeterminate is False
    assert verdict.exists is True
    assert verdict.witness == 55001102182751


def test_primality_tests_are_paid_from_the_budget(monkeypatch):
    # u_4000 of (1, 5) leaves a 4,333-bit cofactor whose 12-base test costs
    # about 2.3e8 multiplications; run unpaid, that test took about 0.3 s
    import ln_kit.lucas_engine as engine

    tested = []
    passes_base = engine._passes_base

    def spy(n, a):
        tested.append(n.bit_length())
        return passes_base(n, a)

    monkeypatch.setattr(engine, "_passes_base", spy)
    verdict = primitive_divisor(LucasPair(1, 5), 4000)
    assert verdict.indeterminate is True
    # every base run, on every piece, was paid from the one budget
    assert sum(bits * max(1, (bits // 64) ** 2) for bits in tested) <= FACTORING_BUDGET


def test_an_unpaid_primality_test_leaves_the_cofactor_unfactored():
    # |u_37| of (1, 5) is the 41-bit prime 1841983774399; its 12-base test
    # costs 12 * 41 multiplications
    unpaid = primitive_divisor(LucasPair(1, 5), 37, factoring_budget=12 * 41 - 1)
    assert unpaid.indeterminate is True
    assert unpaid.obstruction == "cofactor 1841983774399 unfactored within budget"
    paid = primitive_divisor(LucasPair(1, 5), 37, factoring_budget=12 * 41)
    assert (paid.exists, paid.witness) == (True, 1841983774399)


def test_a_composite_pays_only_for_the_bases_it_runs():
    # |u_637| of (1, 5) has the primitive divisor 3740298379, which the
    # default budget reaches only when each composite piece pays for the
    # Miller-Rabin bases it runs, not for all 12 up front
    verdict = primitive_divisor(LucasPair(1, 5), 637)
    assert (verdict.exists, verdict.indeterminate) == (True, False)
    assert verdict.witness == 3740298379


def test_is_probable_prime_matches_trial_division():
    for n in range(-2, 5000):
        assert is_probable_prime(n) == (n > 1 and reference_factorization(n) == {n: 1})
    # strong pseudoprimes to base 2, and the prime 2^61 - 1
    assert not any(is_probable_prime(n) for n in (2047, 3277, 4033, 3215031751))
    assert is_probable_prime(2**61 - 1)


def test_primitive_divisor_deterministic():
    a = primitive_divisor(LucasPair(2, 9), 61, factoring_budget=10**6)
    b = primitive_divisor(LucasPair(2, 9), 61, factoring_budget=10**6)
    assert a == b


def reference_factorization(n):
    """Trial division by every integer from 2 up: slow, but plainly right."""
    factors = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**13))
def test_factorize_matches_reference(n):
    assert _factorize(n, FACTORING_BUDGET) == (reference_factorization(n), 1)


@pytest.mark.parametrize(
    "p, q, needs_rho",
    [
        # the last trial divisor below the limit, then a survivor below the
        # limit squared, which is prime without a test
        (999_983, 1_000_003, False),
        # two primes above the limit: only rho splits them
        (1_000_003, 1_000_033, True),
        # rho on a prime square
        (1_000_003, 1_000_003, True),
    ],
)
def test_factorize_planted_paths(p, q, needs_rho):
    n = p * q
    expected = {p: 1, q: 1} if p != q else {p: 2}
    assert _factorize(n, FACTORING_BUDGET) == (expected, 1)
    # with no rho budget, what needs rho stays a composite leftover
    assert _factorize(n, 0) == (({}, n) if needs_rho else (expected, 1))


def test_factorize_keeps_what_a_failed_rho_leaves():
    # 500 pays the first Miller-Rabin base (40) and leaves rho too little to
    # split: the cofactor must come back as leftover, not vanish
    assert _factorize(1_000_003 * 1_000_033, 500) == ({}, 1_000_036_000_099)


REFERENCE_UP_TO_10K = {n: reference_factorization(n) for n in range(1, 10**4 + 1)}


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 25, 101, 10**4])
def test_trial_divide_finishes_exactly_when_the_rest_is_proven(limit):
    for n, expected in REFERENCE_UP_TO_10K.items():
        factors, rest, finished = trial_divide(n, limit)
        assert math.prod(p**e for p, e in factors.items()) * rest == n
        assert all(p < limit and expected[p] == e for p, e in factors.items())
        if finished:
            # what is left is 1 or prime, so factors and rest are all of n
            whole = dict(factors)
            if rest > 1:
                whole[rest] = whole.get(rest, 0) + 1
            assert whole == expected
        else:
            # the limit stopped the loop: nothing below it divides what is
            # left, and f^2 <= rest for an untried f >= limit
            assert rest >= max(limit * limit, 4)
            assert all(p >= limit for p in REFERENCE_UP_TO_10K[rest])
        # a limit past sqrt(n) always finishes
        assert finished or limit * limit <= n


@pytest.mark.parametrize(
    "n, limit, expected",
    [
        # f^2 = rest: p^2 left whole is not proven prime
        (1_000_003**2, 1_000_003, None),
        (1_000_003**2, 1_000_004, {1_000_003: 2}),
        # p*q with p the first untried candidate: p^2 <= p*q, not proven
        (1_000_003 * 1_000_033, 1_000_003, None),
        (1_000_003 * 1_000_033, 1_000_004, {1_000_003: 1, 1_000_033: 1}),
        # 25 = 5^2 with 5 untried at limit 5, then tried at limit 6
        (25, 5, None),
        (25, 6, {5: 2}),
    ],
)
def test_trial_divide_at_the_square_edge(n, limit, expected):
    factors, rest, finished = trial_divide(n, limit)
    if expected is None:
        assert (factors, rest, finished) == ({}, n, False)
    else:
        assert finished
        assert {**factors, **({rest: 1} if rest > 1 else {})} == expected


def fresh_tracemalloc_peak(call):
    """tracemalloc's peak, in bytes, of one lucas_engine call made first
    thing in a fresh interpreter."""
    code = (
        "import tracemalloc\n"
        "from ln_kit.lucas_engine import LucasPair, lucas_u, primitive_divisor\n"
        "tracemalloc.start()\n"
        f"{call}\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_first_primitive_divisor_call_builds_no_prime_table():
    assert fresh_tracemalloc_peak("primitive_divisor(LucasPair(1, 5), 13)") < 256 * 1024


def test_lucas_u_keeps_no_sequence():
    # the whole list u_0 .. u_n would take about 10 MB at n = 12000, whose
    # u_n is near the digit limit that lucas_u refuses past
    assert fresh_tracemalloc_peak("lucas_u(LucasPair(1, 5), 12000)") < 256 * 1024


def test_primitive_divisor_keeps_no_sequence():
    # the whole list u_0 .. u_n peaked near 1.4 MB at n = 4000
    call = "primitive_divisor(LucasPair(1, 5), 4000, 0)"
    assert fresh_tracemalloc_peak(call) < 256 * 1024


def test_u_n_log10_bounds_every_term():
    for P in range(-9, 10):
        for Q in range(-9, 10):
            try:
                pair = LucasPair(P, Q)
            except ValueError:
                continue
            each, more = u_n_log10(pair)
            for n, u in enumerate(recurrence_terms(P, Q, 40)):
                if u:
                    assert math.log10(abs(u)) <= n * each + more, (P, Q, n)


@pytest.mark.parametrize("n", [13_000, 10**9])
def test_lucas_u_refuses_past_the_digit_limit_before_the_recurrence(n):
    # lucas_u holds the one check of u_n's length: the CLI, the solver's
    # lucas_u step and primitive_divisor are refused through it
    start = time.perf_counter()
    with pytest.raises(ValueError, match="u_n would have about .* int-to-str conversion"):
        lucas_u(LucasPair(1, 5), n)
    assert time.perf_counter() - start < 1.0


def refused_digits(n):
    with pytest.raises(ValueError, match="int-to-str conversion") as refused:
        lucas_u(LucasPair(1, 5), n)
    return int(re.search(r"about (\d+) digits", str(refused.value))[1])


def test_lucas_u_refuses_from_the_least_n_past_the_limit_in_exact_digits():
    # 10^400 overflows a float: its digits are counted in exact integers
    assert str(refused_digits(10**400)).startswith("349485002168009")
    # the least n whose exact estimate n * each + more reaches the limit
    each, more = map(Fraction, u_n_log10(LucasPair(1, 5)))
    n = math.ceil((sys.get_int_max_str_digits() - more) / each)
    assert refused_digits(n) == math.floor(n * each + more) + 1
    lucas_u(LucasPair(1, 5), n - 1)


def test_primitive_divisor_refuses_past_the_digit_limit_before_factoring():
    # |u_13000| of (1, 5) would have about 4,543 digits; factoring it took
    # seconds before the verdict's text failed to convert
    start = time.perf_counter()
    with pytest.raises(ValueError, match="about 4543 digits.*int-to-str conversion"):
        primitive_divisor(LucasPair(1, 5), 13000, 0)
    assert time.perf_counter() - start < 1.0


def test_check_digits_returns_without_a_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    check_digits("19^(2k+1)", 10**400, math.log10(19))


# each consumer of check_budget: what it names, the count a call charges,
# counted here, the call, and what the call gives within the budget
BUDGET_EDGES = {
    # one window: y = 2..70 at n = 2 (7 < 2y^2 <= 100^2 + 7), even y kept,
    # as 2*2^2 - 7 = 1 is a square mod 8; the x are worked by hand
    "generalized_scan": (
        "the window", 69, lambda: generalized_scan(7, 2, 2, 2, 100),
        [(1, 2, 2), (5, 4, 2), (11, 8, 2), (31, 22, 2), (65, 46, 2)],
    ),
    # 19^201 has at most 201 * 17 // 4 = 854 bits: (854 // 64)^2 words
    "brute_force": (
        "building 19^(2k+1)", 169,
        lambda: brute_force(SearchWindow(100, 2, 2, 1)), [],
    ),
    # the odd b in [1, 9], either sign
    "p3_case": (
        "p3_case(search_bound=9)", 10, lambda: p3_case(0, 9).outcome, "contradiction",
    ),
    # p = 7 = 3 + 2^2: the 4 odd residues mod 2^3
    "mod_pow2_insoluble": (
        "mod_pow2_insoluble(p=7)", 4, lambda: mod_pow2_insoluble(7, 0).outcome,
        "contradiction",
    ),
    # A <= isqrt(23 // 3) = 2, and 2A + 1 values of B for each; h(-23) = 3
    "class_number_imag": (
        "discriminant -23", 3 + 5, lambda: class_number_imag(-23),
        [(1, 1, 6), (2, -1, 3), (2, 1, 3)],
    ),
}


@pytest.mark.parametrize("consumer", BUDGET_EDGES)
def test_check_budget_edge_of_each_consumer(monkeypatch, consumer):
    what, count, call, within = BUDGET_EDGES[consumer]
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", count - 1)
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == (
        f"{what} needs {count} candidates (y-scan units), "
        f"over the scan budget of {count - 1}"
    )
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", count)
    assert call() == within


def test_check_digits_refuses_from_the_least_count_past_the_limit():
    # the least count whose exact estimate count * each reaches the limit
    each = math.log10(19)
    limit = sys.get_int_max_str_digits()
    count = math.ceil(limit / Fraction(each))
    digits = math.floor(count * Fraction(each)) + 1
    with pytest.raises(ValueError, match=f"19\\^n would have about {digits} digits"):
        check_digits("19^n", count, each)
    check_digits("19^n", count - 1, each)
