import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ln_kit.lucas_engine import (
    FACTORING_BUDGET,
    BhvRoute,
    DegenerateSequenceError,
    LucasPair,
    _factorize,
    bhv_gate,
    lucas_u,
    primitive_divisor,
)
from ln_kit.quadratic_integers import QuadInt19, qpow


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
        with pytest.raises(DegenerateSequenceError):
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
    pair = LucasPair(1, 5)
    assert bhv_gate(pair, 17) is BhvRoute.ALWAYS_PRIMITIVE
    assert bhv_gate(pair, 19) is BhvRoute.ALWAYS_PRIMITIVE
    assert bhv_gate(pair, 7) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(pair, 5) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(pair, 13) is BhvRoute.CHECK_DEFECT_TABLE
    assert bhv_gate(pair, 3) is BhvRoute.SMALL_PRIME
    assert bhv_gate(pair, 2) is BhvRoute.SMALL_PRIME
    with pytest.raises(ValueError):
        bhv_gate(pair, 9)


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
    # the whole list u_0 .. u_n would peak near 20 MB at n = 16000
    assert fresh_tracemalloc_peak("lucas_u(LucasPair(1, 5), 16000)") < 256 * 1024


def test_primitive_divisor_keeps_no_sequence():
    # the whole list u_0 .. u_n peaked near 1.4 MB at n = 4000
    call = "primitive_divisor(LucasPair(1, 5), 4000, 0)"
    assert fresh_tracemalloc_peak(call) < 256 * 1024
