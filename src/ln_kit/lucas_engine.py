"""Lucas and Lehmer sequences, the u_p = +-1 criterion, and primitive divisors.

A prime q is a primitive divisor of u_n when q | u_n but q divides neither
the discriminant (alpha - beta)^2 nor any earlier term u_2 ... u_{n-1}.
Factoring is trial division below 10^6 followed by deterministically seeded
Brent-Pollard splitting under an iteration budget; an unfactored composite
cofactor yields an explicit indeterminate verdict, never a silent negative.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import Any

TRIAL_DIVISION_LIMIT = 10**6

# Bases giving a deterministic Miller-Rabin answer for n < 3.317e24; for
# larger n the same bases act as a strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class DegenerateSequenceError(ValueError):
    """The pair's root ratio alpha/beta is a root of unity (or u_n = 0)."""


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
    factors: tuple[int, ...] = ()

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "exists": self.exists,
            "witness": None if self.witness is None else str(self.witness),
            "obstruction": self.obstruction,
            "indeterminate": self.indeterminate,
        }


def lucas_sequence(pair: LucasPair, n: int) -> list[int]:
    """u_0 .. u_n with u_0 = 0, u_1 = 1, u_i = P*u_{i-1} - Q*u_{i-2}."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    us = [0, 1]
    for _ in range(n - 1):
        us.append(pair.P * us[-1] - pair.Q * us[-2])
    return us[: n + 1]


def lucas_u(pair: LucasPair, n: int) -> int:
    """u_n for n >= 0; u_{-n} = -u_n / Q^n is not an integer in general."""
    return lucas_sequence(pair, n)[n]


def lehmer_u(R: int, Q: int, n: int) -> int:
    """Lehmer number for (alpha+beta)^2 = R: the (alpha^n - beta^n) quotient
    by (alpha - beta) for odd n and by (alpha^2 - beta^2) for even n."""
    if R == 0:
        raise ValueError("R = (alpha+beta)^2 must be nonzero")
    if Q == 0:
        raise ValueError("Q = alpha*beta must be nonzero")
    if math.gcd(R, Q) != 1:
        raise ValueError(f"R and Q must be coprime, got ({R}, {Q})")
    if R in (Q, 2 * Q, 3 * Q, 4 * Q):
        raise DegenerateSequenceError(f"(R, Q) = ({R}, {Q}) is a degenerate pair")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    us = [0, 1]
    for i in range(2, n + 1):
        if i % 2 == 0:
            us.append(us[-1] - Q * us[-2])
        else:
            us.append(R * us[-1] - Q * us[-2])
    return us[n]


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


@cache
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * TRIAL_DIVISION_LIMIT
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(TRIAL_DIVISION_LIMIT) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * ((TRIAL_DIVISION_LIMIT - 1 - start) // p + 1)
    return tuple(i for i, v in enumerate(sieve) if v)


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
    """One Brent-Pollard attempt; returns (factor or None, iterations used)."""
    if n % 2 == 0:
        return 2, 0
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
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1 and used < budget:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if 1 < g < n:
            return g, used
    return None, used


def _factorize(n: int, budget: int) -> tuple[dict[int, int], int]:
    """Factor n by trial division then budgeted rho splitting.

    Returns (verified prime factors with multiplicity, leftover cofactor);
    leftover > 1 means a composite piece survived the budget.
    """
    factors: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n == 1:
        return factors, 1
    if n < TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT or is_probable_prime(n):
        # below the trial limit squared any survivor is prime
        factors[n] = factors.get(n, 0) + 1
        return factors, 1
    leftover = 1
    stack = [n]
    remaining = budget
    while stack:
        m = stack.pop()
        if is_probable_prime(m):
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
    pair: LucasPair, n: int, factoring_budget: int = 10**6
) -> PrimitiveDivisorVerdict:
    """Decide whether u_n has a primitive divisor, factoring within budget."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    us = lucas_sequence(pair, n)
    if us[n] == 0:
        raise DegenerateSequenceError(f"u_{n} = 0 for pair {pair}")
    value = abs(us[n])
    if value == 1:
        return PrimitiveDivisorVerdict(
            n=n, exists=False, obstruction="u_n is a unit: no prime factors at all"
        )
    factors, leftover = _factorize(value, factoring_budget)
    disc = pair.disc
    reasons = []
    for q in sorted(factors):
        if disc % q == 0:
            reasons.append(f"{q} divides the discriminant {disc}")
            continue
        j = next((j for j in range(2, n) if us[j] % q == 0), None)
        if j is not None:
            reasons.append(f"{q} divides u_{j} = {us[j]}")
            continue
        return PrimitiveDivisorVerdict(
            n=n, exists=True, witness=q, factors=tuple(sorted(factors))
        )
    if leftover > 1:
        return PrimitiveDivisorVerdict(
            n=n,
            exists=False,
            obstruction="; ".join(
                reasons + [f"composite cofactor {leftover} unfactored within budget"]
            ),
            indeterminate=True,
            factors=tuple(sorted(factors)),
        )
    return PrimitiveDivisorVerdict(
        n=n,
        exists=False,
        obstruction="; ".join(reasons),
        factors=tuple(sorted(factors)),
    )
