"""Exact arithmetic in the ring of integers of Q(sqrt(-19)).

Elements are stored as coefficient pairs (a, b) meaning (a + b*sqrt(-19))/2
with a == b (mod 2), so rational integers m are (2m, 0).  Everything here is
exact integer arithmetic; no floating point.  class_number_imag prices its
enumeration by lucas_engine.check_budget: nothing here comes from the oracle.

The only units of this ring are +-1 (assumed, not computed): odd powers
absorb them, which is why power-extraction callers may flip the sign of a
base element freely.
"""

from __future__ import annotations

import math

from .lucas_engine import Frozen, check_budget


class QuadInt19(Frozen):
    """(a + b*sqrt(-19)) / 2, valid only when a and b share parity."""

    __slots__, __match_args__ = (), ("a", "b")

    def __new__(cls, a: int, b: int) -> QuadInt19:
        if (a - b) % 2 != 0:
            raise ValueError(
                f"(a, b) = ({a}, {b}) is not a ring element: a != b (mod 2)"
            )
        return tuple.__new__(cls, (a, b))

    @property
    def norm(self) -> int:
        return (self.a * self.a + 19 * self.b * self.b) // 4


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


def class_number_imag(disc: int) -> list[tuple[int, int, int]]:
    """The reduced primitive forms (A, B, C) of a negative discriminant, sorted.

    Reduced means |B| <= A <= C with B >= 0 whenever |B| = A or A = C:
    exactly one per equivalence class, so their count is the class number.
    The enumeration is exhaustive, exact and bit-stable.  Raises ValueError
    before it starts when its (A, B) pairs are over the scan budget
    (lucas_engine.check_budget).
    """
    if disc >= 0:
        raise ValueError(f"discriminant must be negative, got {disc}")
    if disc % 4 not in (0, 1):
        raise ValueError(f"discriminant must be 0 or 1 mod 4, got {disc}")
    a_max = math.isqrt(-disc // 3)
    # 2A + 1 values of B for each A
    check_budget(f"discriminant {disc}", a_max * a_max + 2 * a_max)
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
