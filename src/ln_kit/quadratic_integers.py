"""Exact arithmetic in the ring of integers of Q(sqrt(-19)).

Elements are stored as coefficient pairs (a, b) meaning (a + b*sqrt(-19))/2
with a == b (mod 2), so rational integers m are (2m, 0).  Everything here is
exact integer arithmetic; no floating point.

The only units of this ring are +-1 (assumed, not computed): odd powers
absorb them, which is why power-extraction callers may flip the sign of a
base element freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lucas_engine import is_probable_prime
from .oracle import SCAN_BUDGET


@dataclass(frozen=True)
class QuadInt19:
    """(a + b*sqrt(-19)) / 2, valid only when a and b share parity."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if (self.a - self.b) % 2 != 0:
            raise ValueError(
                f"(a, b) = ({self.a}, {self.b}) is not a ring element: a != b (mod 2)"
            )

    @property
    def norm(self) -> int:
        return (self.a * self.a + 19 * self.b * self.b) // 4

    @property
    def conj(self) -> QuadInt19:
        return QuadInt19(self.a, -self.b)


ONE = QuadInt19(2, 0)


def qmul(u: QuadInt19, v: QuadInt19) -> QuadInt19:
    """Exact product; the shared-parity invariant guarantees both halvings."""
    return QuadInt19(
        (u.a * v.a - 19 * u.b * v.b) // 2,
        (u.a * v.b + u.b * v.a) // 2,
    )


def qpow(u: QuadInt19, e: int) -> QuadInt19:
    """u^e for e >= 0 by square-and-multiply over qmul."""
    if e < 0:
        raise ValueError(f"exponent must be non-negative, got {e}")
    acc = ONE
    base = u
    while e:
        if e & 1:
            acc = qmul(acc, base)
        base = qmul(base, base)
        e >>= 1
    return acc


def imag_binomial_sum(a: int, b: int, p: int) -> int:
    """S = sum_{r=0}^{(p-1)/2} C(p, 2r+1) * a^(p-2r-1) * (-19)^r * b^(2r).

    For odd a, b and odd prime p this is the expanded imaginary part of the
    p-th power: b*S == 2^(p-1) * B where (A, B) = qpow(QuadInt19(a, b), p).
    """
    if a % 2 == 0 or b % 2 == 0:
        raise ValueError(f"a and b must be odd, got a={a}, b={b}")
    if p % 2 == 0 or not is_probable_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return sum(
        math.comb(p, 2 * r + 1) * a ** (p - 2 * r - 1) * (-19) ** r * b ** (2 * r)
        for r in range((p + 1) // 2)
    )


def class_number_imag(disc: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (A, B, C) of a negative discriminant, sorted.

    Reduced means |B| <= A <= C with B >= 0 whenever |B| = A or A = C:
    exactly one per equivalence class, so their count is the class number.
    The enumeration is exhaustive, exact and bit-stable.  Raises ValueError
    before it starts when its (A, B) pairs are more than the oracle's
    SCAN_BUDGET.
    """
    if disc >= 0:
        raise ValueError(f"discriminant must be negative, got {disc}")
    if disc % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {disc}")
    a_max = math.isqrt(-disc // 3)
    pairs = a_max * a_max + 2 * a_max  # 2A + 1 values of B for each A
    if pairs > SCAN_BUDGET:
        raise ValueError(
            f"discriminant {disc} needs {pairs} (A, B) pairs, "
            f"over the scan budget of {SCAN_BUDGET}"
        )
    out = []
    for A in range(1, a_max + 1):
        for B in range(-A, A + 1):
            if (B - disc) % 2 != 0:
                continue
            num = B * B - disc
            if num % (4 * A) != 0:
                continue
            C = num // (4 * A)
            if C < A:
                continue
            if B < 0 and (A == -B or A == C):
                continue
            if math.gcd(A, B, C) != 1:
                continue
            out.append((A, B, C))
    out.sort()
    return out
