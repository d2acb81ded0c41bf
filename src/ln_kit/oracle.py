"""Assumption-free brute-force enumeration of x^2 + D = lambda*y^n within a
window; the main equation is D = 19^(2k+1), lambda = 4.

One scan serves every (D, lambda): n outer, y inner, with early exit once
lambda*y^n outgrows x_max^2 + D.  Even y are skipped only for an n where a
mod-8 check on the inputs shows none can give a square.  Composite n are
scanned too: the oracle is the ground truth and must not inherit the
theorem's reductions.  All arithmetic is exact.
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


def _y_step(D: int, lam: int, n: int) -> int:
    """2 when no even y can make lam*y^n - D a square, else 1.

    For even y = r (mod 8), lam*y^n - D = lam*r^n - D (mod 8); when that is
    never a square mod 8 (0, 1 or 4) for r in {0, 2, 4, 6}, only odd y remain.
    """
    even_y = any((lam * pow(r, n, 8) - D) % 8 in (0, 1, 4) for r in (0, 2, 4, 6))
    return 1 if even_y else 2


def generalized_scan(
    D: int, lam: int, n_min: int, n_max: int, x_max: int
) -> list[tuple[int, int, int]]:
    """Positive triples (x, y, n) with x^2 + D = lam * y^n in the window.

    Emitted in ascending (n, y) order; x is fixed by y and n.
    """
    if D < 1 or lam < 1:
        raise ValueError(f"D and lambda must be positive, got D={D}, lambda={lam}")
    if n_min < 2 or n_max < n_min or x_max < 1:
        raise ValueError(f"bad window n=[{n_min},{n_max}], x_max={x_max}")
    limit = x_max * x_max + D
    out = []
    for n in range(n_min, n_max + 1):
        step = _y_step(D, lam, n)
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
            y += step
    return out


def brute_force(window: SearchWindow) -> list[Solution]:
    """Every solution with n in [n_min, n_max] and x <= x_max, sorted by (n, y)."""
    inst = LNInstance(window.k)
    scan = generalized_scan(
        inst.D, LNInstance.LAMBDA, window.n_min, window.n_max, window.x_max
    )
    out = [Solution(*t) for t in scan]
    for s in out:
        assert is_solution(inst, *s.as_tuple())
    return out
