import random

import pytest
from hypothesis import given, strategies as st

from ln_kit.quadratic_integers import (
    ONE,
    QuadInt19,
    class_number_imag,
    qmul,
    qpow,
)


def qelt(a, b):
    return QuadInt19(a, b)


def conj(u):
    return QuadInt19(u.a, -u.b)


same_parity_pair = st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.booleans()).map(
    lambda t: QuadInt19(2 * t[0] + t[2], 2 * t[1] + t[2])
)


def test_parity_invariant_enforced():
    with pytest.raises(ValueError):
        QuadInt19(1, 0)
    with pytest.raises(ValueError):
        QuadInt19(1118, 1)


def test_qmul_examples():
    # ((1+sqrt(-19))/2)^2 = (-9+sqrt(-19))/2
    assert qmul(qelt(1, 1), qelt(1, 1)) == qelt(-9, 1)
    # (2, 0) is the multiplicative identity
    u = qelt(3, -5)
    assert qmul(u, qelt(2, 0)) == u
    # alpha times its conjugate is the rational integer 5 = (10, 0)
    assert qmul(qelt(1, -1), qelt(1, 1)) == qelt(10, 0)


def test_qpow_trivial_exponents():
    u = qelt(3, 1)
    assert qpow(u, 0) == ONE == qelt(2, 0)
    assert qpow(u, 1) == u
    with pytest.raises(ValueError):
        qpow(u, -1)


def test_qpow_seventh_power_of_half_unit():
    # ((1 - sqrt(-19))/2)^7 = (-559 - sqrt(-19))/2; absorbing the unit -1
    # gives (559 + sqrt(-19))/2, the x = 559 member of the n = 7 family.
    w = qpow(qelt(1, -1), 7)
    assert w == qelt(-559, -1)
    assert qpow(qelt(-1, 1), 7) == qelt(559, 1)
    assert abs(w.a) == 559
    assert qelt(1, -1).norm == 5


def test_norm_and_conj():
    u = qelt(3, 1)
    assert u.norm == (9 + 19) // 4
    assert conj(u) == qelt(3, -1)
    assert conj(conj(u)) == u


@given(same_parity_pair, same_parity_pair)
def test_parity_closure_and_norm_multiplicativity(u, v):
    w = qmul(u, v)
    assert (w.a - w.b) % 2 == 0
    assert w.norm == u.norm * v.norm


def test_parity_closure_bulk():
    rng = random.Random(19)
    for _ in range(1000):
        e = rng.randrange(2)
        u = QuadInt19(2 * rng.randrange(-99, 100) + e, 2 * rng.randrange(-99, 100) + e)
        f = rng.randrange(2)
        v = QuadInt19(2 * rng.randrange(-99, 100) + f, 2 * rng.randrange(-99, 100) + f)
        w = qmul(u, v)
        assert (w.a - w.b) % 2 == 0
        assert w.norm == u.norm * v.norm


@given(same_parity_pair, st.integers(0, 12))
def test_conjugation_commutes_with_powers(u, e):
    assert qpow(conj(u), e) == conj(qpow(u, e))


@pytest.mark.parametrize(
    "a, b, p, expected",
    [
        (1, 1, 3, -16),
        (3, 1, 3, 8),
        (1, -1, 7, 64),
    ],
)
def test_imag_binomial_sum_values(imag_binomial_sum, a, b, p, expected):
    assert imag_binomial_sum(a, b, p) == expected


def test_imag_binomial_sum_contract_at_known_solution(imag_binomial_sum):
    # b*S = 2^(p-1) * B with (A, B) the p-th power coefficients
    a, b, p = 1, -1, 7
    S = imag_binomial_sum(a, b, p)
    w = qpow(qelt(a, b), p)
    assert b * S == 2 ** (p - 1) * w.b == -64
    # the sign-absorbed pair (-1, 1) realizes +2^(p-1)*19^0 exactly
    assert 1 * imag_binomial_sum(-1, 1, 7) == 2**6 * 19**0


def test_imag_identity_moderate_grid(imag_binomial_sum):
    for p in (3, 5, 7):
        for a in range(-15, 16, 2):
            for b in range(-15, 16, 2):
                S = imag_binomial_sum(a, b, p)
                w = qpow(qelt(a, b), p)
                assert b * S == 2 ** (p - 1) * w.b


def test_class_number_minus_19():
    assert class_number_imag(-19) == [(1, 1, 5)]


def test_class_number_minus_4():
    assert class_number_imag(-4) == [(1, 0, 1)]


def test_class_number_minus_23():
    assert class_number_imag(-23) == [(1, 1, 6), (2, -1, 3), (2, 1, 3)]


def test_class_number_minus_7():
    assert len(class_number_imag(-7)) == 1


def test_class_number_known_table():
    # classical h(-d) values for small discriminants
    known = {-3: 1, -8: 1, -11: 1, -15: 2, -20: 2, -24: 2, -31: 3, -43: 1, -67: 1, -163: 1}
    # [(1,0,3)], [(1,0,4)] and [(1,0,12), (3,0,4)]: (2,2,2), (2,0,2), (2,0,6)
    # and (4,4,4) are not primitive, and (4,0,3) has C < A
    known |= {-12: 1, -16: 1, -48: 2}
    for disc, h in known.items():
        assert len(class_number_imag(disc)) == h, disc


def test_class_number_imag_validation():
    with pytest.raises(ValueError):
        class_number_imag(-5)  # 3 mod 4
    with pytest.raises(ValueError):
        class_number_imag(19)
    for A, B, C in class_number_imag(-71):
        assert B * B - 4 * A * C == -71
        assert abs(B) <= A <= C
        if abs(B) == A or A == C:
            assert B >= 0


def test_class_number_refuses_over_the_scan_budget_with_its_count():
    # a = isqrt(|disc| / 3) = 182,574 gives a^2 + 2a pairs (A, B)
    with pytest.raises(ValueError, match="needs 33333630624 candidates.*scan budget"):
        class_number_imag(-100000000003)
