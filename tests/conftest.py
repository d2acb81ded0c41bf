import math

import pytest

from ln_kit import caseworks, lucas_engine, solver

# every verdict cache of the package (tests/test_verdict_caches.py finds
# them all and checks this list against them)
VERDICT_CACHES = (
    caseworks.mod19_forces_p,
    caseworks.no_19z2_solutions,
    caseworks._pow2_verdict,
    lucas_engine._primitive_divisor_verdict,
    solver.always_primitive_closure,
)


@pytest.fixture(autouse=True)
def fresh_verdicts():
    """Each test starts with every verdict cache empty, so a verdict an
    earlier test computed (or planted through a patched scan) never stands
    in for the procedure a test runs."""
    for cache in VERDICT_CACHES:
        cache.cache_clear()


def _imag_binomial_sum(a, b, p):
    """S = sum_{r=0}^{(p-1)/2} C(p, 2r+1) * a^(p-2r-1) * (-19)^r * b^(2r).

    The binomial expansion of the p-th power in Z[(1+sqrt(-19))/2] (cf.
    Cohn, Acta Arith. 65, 1993): for odd a, b and odd prime p,
    b*S == 2^(p-1) * B where (A, B) = qpow(QuadInt19(a, b), p).
    """
    return sum(
        math.comb(p, 2 * r + 1) * a ** (p - 2 * r - 1) * (-19) ** r * b ** (2 * r)
        for r in range((p + 1) // 2)
    )


@pytest.fixture
def imag_binomial_sum():
    """The expansion above, the reference the tests check qpow against."""
    return _imag_binomial_sum
