"""Assumption-free brute-force enumeration of the equation within a window.

The scan iterates n outer, y inner, with early exit once lambda*y^n outgrows
x_max^2 + D.  Composite n are scanned too: the oracle is the ground truth and
must not inherit the theorem's reductions.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equation_model import LNInstance, Solution, is_solution


@dataclass(frozen=True)
class SearchWindow:
    """Finite search region; n = 1 is excluded (infinite parametric family)."""

    k: int
    n_min: int = 2
    n_max: int = 30
    x_max: int = 10**7

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")
        if self.n_min < 2:
            raise ValueError(f"n_min must be at least 2, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ValueError(f"empty n range [{self.n_min}, {self.n_max}]")
        if self.x_max < 1:
            raise ValueError(f"x_max must be positive, got {self.x_max}")


def perfect_root(v: int, m: int) -> int | None:
    """The exact r with r^m == v, if one exists; bisection, no floating point."""
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    lo, hi = 1, 1 << ((v.bit_length() + m - 1) // m)
    while lo < hi:  # invariant: lo^m <= v < (hi+1)^m
        mid = (lo + hi + 1) // 2
        if mid**m <= v:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**m == v else None


def _scan_one_n(D: int, n: int, x_max: int) -> list[Solution]:
    # y restricted to odd values: x is odd, so 4 | x^2 + D forces y odd
    limit = x_max * x_max + D
    out = []
    y = 1
    while True:
        v = 4 * y**n
        if v > limit:
            break
        c = v - D
        if c > 0:
            x = math.isqrt(c)
            if x * x == c:
                out.append(Solution(x, y, n))
        y += 2
    return out


def brute_force(window: SearchWindow) -> list[Solution]:
    """Every solution with n in [n_min, n_max] and x <= x_max, sorted by (n, y)."""
    inst = LNInstance(window.k)
    out = [
        s
        for n in range(window.n_min, window.n_max + 1)
        for s in _scan_one_n(inst.D, n, window.x_max)
    ]
    for s in out:
        assert is_solution(inst, *s.as_tuple())
    out.sort(key=lambda s: s.sort_key)
    return out


def generalized_scan(
    D: int, lam: int, n_min: int, n_max: int, x_max: int
) -> list[tuple[int, int, int]]:
    """Positive triples (x, y, n) with x^2 + D = lam * y^n in the window.

    Neighbouring-equation sanity checks; no parity restriction on y here
    because that argument is specific to D odd with lam = 4.
    """
    if D < 1 or lam < 1:
        raise ValueError(f"D and lambda must be positive, got D={D}, lambda={lam}")
    if n_min < 1 or n_max < n_min or x_max < 1:
        raise ValueError(f"bad window n=[{n_min},{n_max}], x_max={x_max}")
    limit = x_max * x_max + D
    out = []
    for n in range(n_min, n_max + 1):
        y = 1
        while True:
            v = lam * y**n
            if v > limit:
                break
            c = v - D
            if c > 0:
                x = math.isqrt(c)
                if x * x == c:
                    out.append((x, y, n))
            y += 1
    out.sort(key=lambda s: (s[2], s[1], s[0]))
    return out
