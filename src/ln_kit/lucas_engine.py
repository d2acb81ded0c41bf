"""Lucas sequences, the u_p = +-1 criterion, and primitive divisors.

A prime q is a primitive divisor of u_n when q | u_n but q divides neither
the discriminant (alpha - beta)^2 nor any earlier term u_2 ... u_{n-1}.
Factoring trial-divides in place by 2, 3 and then 6j +- 1, up to the square
root of what is left or TRIAL_DIVISION_LIMIT, whichever comes first, and
then splits what survives by deterministically seeded Brent-Pollard under a
budget of word-size multiplications (FACTORING_BUDGET unless given); an
unfactored composite cofactor yields an explicit indeterminate verdict, never
a silent negative.
is_probable_prime is the package's one primality test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Any

TRIAL_DIVISION_LIMIT = 10**6

# Word-size multiplications primitive_divisor may spend in Brent-rho on a
# cofactor that trial division leaves composite; an iteration on a b-bit
# cofactor costs max(1, (b // 64)^2) of them, so the budget bounds time.
# The solver's steps record it as their input; the Lucas numbers they factor
# (|u_5| .. |u_13| of the pair (1, 5), all at most 15,679) never get past
# trial division, so it changes none of them.
FACTORING_BUDGET = 10**6

# Bases giving a deterministic Miller-Rabin answer for n < 3.317e24; for
# larger n the same bases act as a strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DegenerateSequenceError(ValueError):
    """The pair's root ratio alpha/beta is a root of unity."""


@dataclass(frozen=True)
class LucasPair:
    """(P, Q) = (alpha + beta, alpha * beta), coprime, nonzero, nondegenerate."""

    P: int
    Q: int

    def __post_init__(self) -> None:
        if self.P == 0 or self.Q == 0:
            raise ValueError(f"P and Q must both be nonzero, got ({self.P}, {self.Q})")
        if math.gcd(self.P, self.Q) != 1:
            raise ValueError(f"P and Q must be coprime, got ({self.P}, {self.Q})")
        # alpha/beta is a root of unity exactly when P^2 / Q is 0, 1, 2, 3 or 4;
        # P^2 = 4Q is also the zero-discriminant case.
        if self.P * self.P in (self.Q, 2 * self.Q, 3 * self.Q, 4 * self.Q):
            raise DegenerateSequenceError(
                f"({self.P}, {self.Q}) is a degenerate Lucas pair"
            )

    @property
    def disc(self) -> int:
        return self.P * self.P - 4 * self.Q


class BhvRoute(str, Enum):
    ALWAYS_PRIMITIVE = "AlwaysPrimitive"
    CHECK_DEFECT_TABLE = "CheckDefectTable"
    SMALL_PRIME = "SmallPrime"

    def to_jsonable(self) -> dict[str, str]:
        return {"route": self.value}


@dataclass(frozen=True)
class PrimitiveDivisorVerdict:
    """Outcome of the primitive-divisor test at index n.

    exists is meaningful only when indeterminate is False; witness is the
    smallest verified prime that passes, and obstruction explains how each
    failing factor is absorbed (by the discriminant or an earlier term).
    """

    n: int
    exists: bool
    witness: int | None = None
    obstruction: str | None = None
    indeterminate: bool = False

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "exists": self.exists,
            "witness": None if self.witness is None else str(self.witness),
            "obstruction": self.obstruction,
            "indeterminate": self.indeterminate,
        }


def lucas_u(pair: LucasPair, n: int) -> int:
    """u_n for n >= 0, where u_0 = 0, u_1 = 1, u_i = P*u_{i-1} - Q*u_{i-2};
    u_{-n} = -u_n / Q^n is not an integer in general.  Only the last two
    terms are kept, so memory grows with n, not n^2."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    u, u_next = 0, 1
    for _ in range(n):
        u, u_next = u_next, pair.P * u_next - pair.Q * u
    return u


def bhv_gate(pair: LucasPair, p: int) -> BhvRoute:
    """Route the u_p = +-1 question: p > 13 never happens (primitive divisors
    always exist), p in {5, 7, 11, 13} needs the defective-pair tables, and
    p <= 3 is handled by dedicated congruence casework."""
    if not is_probable_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p > 13:
        return BhvRoute.ALWAYS_PRIMITIVE
    if p >= 5:
        return BhvRoute.CHECK_DEFECT_TABLE
    return BhvRoute.SMALL_PRIME


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES: exact below 3.317e24, probable above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, budget: int, rng: random.Random) -> tuple[int | None, int]:
    """One Brent-Pollard attempt on an odd n; returns (factor or None,
    word-size multiplications used), charging max(1, (bits // 64)^2) for
    each iteration."""
    cost = max(1, (n.bit_length() // 64) ** 2)
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        ys = x = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                used += cost * min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1 and used < budget:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += cost
        if 1 < g < n:
            return g, used
    return None, used


def _factorize(n: int, budget: int) -> tuple[dict[int, int], int]:
    """Factor n by trial division then budgeted rho splitting.

    Returns (verified prime factors with multiplicity, leftover cofactor);
    leftover > 1 means a composite piece survived the budget.
    """
    factors: dict[int, int] = {}
    # candidates 2, 3, then 6j - 1 and 6j + 1: every prime below the limit is
    # one, and a composite candidate never divides, its primes being gone
    f, gap = 2, 1
    while f < TRIAL_DIVISION_LIMIT and f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += gap
        gap = 2 if f <= 5 else 6 - gap
    leftover = 1
    stack = [n] if n > 1 else []
    remaining = budget
    while stack:
        m = stack.pop()
        # m has no prime factor trial division tried, so below the trial
        # limit squared it is prime; each m is tested for primality once
        if m < TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT or is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g, used = _brent_rho(m, remaining, random.Random(m))
        remaining -= used
        if g is None:
            leftover *= m
            continue
        stack.extend((g, m // g))
    return factors, leftover


def primitive_divisor(
    pair: LucasPair, n: int, factoring_budget: int = FACTORING_BUDGET
) -> PrimitiveDivisorVerdict:
    """Decide whether u_n has a primitive divisor, factoring within budget.

    u_n comes from lucas_u.  One more pass of the recurrence finds, for each
    prime factor q of u_n, the first j in [2, n) with q | u_j and that u_j,
    which the obstruction quotes.  No list of terms is kept, so memory grows
    with n, not n^2.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    value = abs(lucas_u(pair, n))  # never 0: LucasPair rejects degenerate pairs
    if value == 1:
        return PrimitiveDivisorVerdict(
            n=n, exists=False, obstruction="u_n is a unit: no prime factors at all"
        )
    factors, leftover = _factorize(value, factoring_budget)
    disc = pair.disc
    earlier: dict[int, tuple[int, int]] = {}  # q -> (j, u_j), j least
    u, u_next = 1, pair.P  # u_1, u_2
    for j in range(2, n):
        u, u_next = u_next, pair.P * u_next - pair.Q * u
        for q in factors:
            if q not in earlier and u % q == 0:
                earlier[q] = (j, u)
    reasons = []
    for q in sorted(factors):
        if disc % q == 0:
            reasons.append(f"{q} divides the discriminant {disc}")
        elif q in earlier:
            j, u_j = earlier[q]
            reasons.append(f"{q} divides u_{j} = {u_j}")
        else:
            return PrimitiveDivisorVerdict(n=n, exists=True, witness=q)
    if leftover > 1:
        return PrimitiveDivisorVerdict(
            n=n,
            exists=False,
            obstruction="; ".join(
                reasons + [f"composite cofactor {leftover} unfactored within budget"]
            ),
            indeterminate=True,
        )
    return PrimitiveDivisorVerdict(n=n, exists=False, obstruction="; ".join(reasons))
