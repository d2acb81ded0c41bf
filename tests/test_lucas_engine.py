import pytest
from hypothesis import given, settings, strategies as st

from ln_kit.lucas_engine import (
    BhvRoute,
    DegenerateSequenceError,
    LucasPair,
    bhv_gate,
    lehmer_u,
    lucas_sequence,
    lucas_u,
    primitive_divisor,
)
from ln_kit.quadratic_integers import QuadInt19, qpow


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


def test_lucas_sequence_for_paper_pair():
    pair = LucasPair(1, 5)
    assert lucas_sequence(pair, 7) == [0, 1, 1, -4, -9, 11, 56, 1]
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
            seq = lucas_sequence(pair, 25)
            for n in range(26):
                assert seq[n] == closed_form_u(P, Q, n), (P, Q, n)


def test_closed_form_via_ring_of_q_sqrt_minus19():
    # pairs with discriminant exactly -19: u_n is the sqrt(-19)-coefficient
    # of ((P + sqrt(-19))/2)^n, reusing the quadratic-integer arithmetic
    for P in (-9, -7, -5, -3, -1, 1, 3, 5, 7, 9):
        Q = (P * P + 19) // 4
        pair = LucasPair(P, Q)
        assert pair.disc == -19
        for n in range(16):
            assert lucas_u(pair, n) == qpow(QuadInt19(P, 1), n).b


def test_lehmer_examples():
    assert lehmer_u(1, 5, 7) == 1
    assert lehmer_u(1, 5, 1) == 1
    assert lehmer_u(1, 5, 2) == 1


def test_lehmer_matches_lucas():
    # R = P^2 with P > 0: lehmer equals lucas on odd indices and lucas/P on even
    for P, Q in [(1, 5), (3, 7), (5, -3), (3, -8)]:
        pair = LucasPair(P, Q)
        for n in range(1, 20):
            lu = lucas_u(pair, n)
            le = lehmer_u(P * P, Q, n)
            if n % 2 == 1:
                assert le == lu
            else:
                assert lu == le * P


def test_lehmer_validation():
    with pytest.raises(ValueError):
        lehmer_u(0, 5, 3)
    with pytest.raises(ValueError):
        lehmer_u(4, 2, 3)  # not coprime
    with pytest.raises(DegenerateSequenceError):
        lehmer_u(1, 1, 3)  # R == Q
    with pytest.raises(DegenerateSequenceError):
        lehmer_u(4, 1, 3)  # R == 4Q


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
    assert verdict12.factors  # factored fine at desk scale


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
