"""Assumption-free brute-force enumeration of x^2 + D = lambda*y^n within a
window; the main equation is D = 19^(2k+1), lambda = 4.

Two exact enumerations serve every (D, lambda); for each n the scan runs
whichever costs less, known before either starts:

- the y-scan tries every y with D < lambda*y^n <= x_max^2 + D, the window
  where x is positive and at most x_max.  Even y are skipped only for an n
  where a mod-8 check on the inputs shows none can give a square;
- the divisor walk, for even n = 2m and lambda = c^2, uses
  x^2 + D = z^2 with z = c*y^m: d = z - x is a divisor of D below sqrt(D),
  so trial division finds every pair, and y is read off z.  A walk
  candidate is one modulo, far cheaper than a y-scan candidate, so the walk
  runs unless it has WALK_PER_Y times as many candidates as the y-scan.

Neither uses coprimality or the theorem, and composite n are scanned too:
the oracle is the ground truth and must not inherit the theorem's
reductions.  All arithmetic is exact.  A window whose cost, summed over n
in y-candidate units (WALK_PER_Y walk candidates make one), exceeds
SCAN_BUDGET is refused before any candidate is tried.

The same scan decides the bounded closure of 19*Z^2 + 1 = 4*Y^n in
caseworks.no_19z2_solutions: multiplied by 19 it reads
(19Z)^2 + 19 = 76*Y^n, so it is the window D = 19, lambda = 76.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equation_model import LNInstance, Solution, is_solution

# Most candidates one scan may try, in y-candidate units; every n counts as
# at least one.
SCAN_BUDGET = 10**8

# Walk candidates that cost about one y-scan candidate.  A walk candidate is
# one modulo; a y-candidate is a power, an isqrt and a product.  At D = 19^11,
# lambda = 4, n = 2, x_max = 10^7 the 3,039,730-candidate walk took 0.23-0.28 s
# and the 980,136-candidate y-scan 0.61-0.86 s (Python 3.11, 2-CPU host); on
# D near 10^10 and 10^11 the ratio per candidate was 7 to 9 as well.  4 errs
# towards the y-scan.
WALK_PER_Y = 4


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


def iroot(v: int, m: int) -> int:
    """The largest r with r^m <= v; integer Newton, no floating point."""
    if v < 0:
        raise ValueError(f"v must be non-negative, got {v}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if v < 2 or m == 1:
        return v
    if v.bit_length() <= m:  # v < 2^m, so the root is 1; a large m builds nothing
        return 1
    # 2^ceil(bits/m) is above the root, and from above each Newton step
    # falls strictly until it reaches the floor root, where it stops falling
    r = 1 << -(-v.bit_length() // m)
    while True:
        s = ((m - 1) * r + v // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def perfect_root(v: int, m: int) -> int | None:
    """The exact r with r^m == v, if one exists."""
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    r = iroot(v, m)
    return r if r**m == v else None


def _y_step(D: int, lam: int, n: int) -> int:
    """2 when no even y can make lam*y^n - D a square, else 1.

    For even y = r (mod 8), lam*y^n - D = lam*r^n - D (mod 8); when that is
    never a square mod 8 (0, 1 or 4) for r in {0, 2, 4, 6}, only odd y remain.
    """
    even_y = any((lam * pow(r, n, 8) - D) % 8 in (0, 1, 4) for r in (0, 2, 4, 6))
    return 1 if even_y else 2


def _y_window(D: int, lam: int, n: int, limit: int) -> range:
    """The y with D < lam*y^n <= limit, less those _y_step rules out."""
    step = _y_step(D, lam, n)
    y0 = iroot(D // lam, n) + 1
    return range(y0 | 1 if step == 2 else y0, iroot(limit // lam, n) + 1, step)


def _divisor_window(D: int, x_max: int) -> range:
    """The d that can be z - x for x^2 + D = z^2 with 0 < x <= x_max.

    d*(D/d) = D with d < D/d = z + x <= isqrt(x_max^2 + D) + x_max, and
    every divisor of an odd D is odd.
    """
    z_plus_x = math.isqrt(x_max * x_max + D) + x_max
    d0 = max(1, D // (z_plus_x + 1))
    if D % 2:
        return range(d0 | 1, math.isqrt(D) + 1, 2)
    return range(d0, math.isqrt(D) + 1)


def _square_pairs(D: int, x_max: int, ds: range) -> list[tuple[int, int]]:
    """(x, z) with x^2 + D = z^2 and 0 < x <= x_max, ascending in z."""
    out = []
    for d in reversed(ds):  # z = (d + D/d)/2 grows as d falls below sqrt(D)
        if D % d == 0:
            e = D // d
            if (e - d) % 2 == 0 and 0 < e - d <= 2 * x_max:
                out.append(((e - d) // 2, (e + d) // 2))
    return out


def _size(r: range) -> int:
    """len(r), without its overflow past sys.maxsize."""
    return max(0, -((r.start - r.stop) // r.step))


def _check_budget(candidates: int) -> None:
    if candidates > SCAN_BUDGET:
        raise ValueError(
            f"the window needs {candidates} candidates (y-scan units), "
            f"over the scan budget of {SCAN_BUDGET}"
        )


def _paths(
    D: int, lam: int, n_min: int, n_max: int, x_max: int, ds: range | None
) -> list[tuple[int, range | None]]:
    """Per n: (n, the y-window to scan), or (n, None) where walking ds costs less."""
    limit = x_max * x_max + D
    out = []
    for n in range(n_min, n_max + 1):
        ys = _y_window(D, lam, n, limit)
        walk = ds is not None and n % 2 == 0 and _size(ds) < WALK_PER_Y * _size(ys)
        out.append((n, None if walk else ys))
    return out


def generalized_scan(
    D: int, lam: int, n_min: int, n_max: int, x_max: int
) -> list[tuple[int, int, int]]:
    """Positive triples (x, y, n) with x^2 + D = lam * y^n in the window.

    Emitted in ascending (n, y) order; x is fixed by y and n.  Only the n
    with lam * 2^n <= x_max^2 + D are scanned: above them only y = 1 is
    left, and it solves every n at once or none.  Raises ValueError when the
    window costs more than SCAN_BUDGET y-candidates.
    """
    if D < 1 or lam < 1:
        raise ValueError(f"D and lambda must be positive, got D={D}, lambda={lam}")
    if n_min < 2 or n_max < n_min or x_max < 1:
        raise ValueError(f"bad window n=[{n_min},{n_max}], x_max={x_max}")
    _check_budget(n_max - n_min + 1)
    # the last n where some y >= 2 fits: lam * 2^n <= x_max^2 + D
    n_top = min(n_max, ((x_max * x_max + D) // lam).bit_length() - 1)
    c = math.isqrt(lam)
    ds = _divisor_window(D, x_max) if c * c == lam else None
    paths = _paths(D, lam, n_min, n_top, x_max, ds)
    _check_budget(
        sum(
            max(1, -(-_size(ds) // WALK_PER_Y) if ys is None else _size(ys))
            for _, ys in paths
        )
        # each n above n_top costs one: its y-window holds y = 1 at most
        + n_max - max(n_min, n_top + 1) + 1
    )
    pairs = None  # the walk runs at most once, for the first n that takes it
    out = []
    for n, ys in paths:
        if ys is None:
            if pairs is None:
                pairs = _square_pairs(D, x_max, ds)
            m = n // 2
            for x, z in pairs:
                if z % c == 0:
                    y = iroot(z // c, m)
                    if y**m * c == z:
                        out.append((x, y, n))
            continue
        for y in ys:
            v = lam * y**n - D
            x = math.isqrt(v)
            if x * x == v:
                out.append((x, y, n))
    # y = 1 above n_top: x^2 = lam - D, the same x for every n
    r = math.isqrt(lam - D) if lam > D else 0
    if 0 < r <= x_max and r * r == lam - D:
        out.extend((r, 1, n) for n in range(max(n_min, n_top + 1), n_max + 1))
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
