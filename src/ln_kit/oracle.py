"""Assumption-free brute-force enumeration of x^2 + D = lambda*y^n within a
window; the main equation is D = 19^(2k+1), lambda = 4.

Two exact enumerations serve every (D, lambda); the scan runs whichever
costs less, known before either starts:

- the y-scan covers the y with D < lambda*y^n <= x_max^2 + D, the window
  where x is positive and at most x_max, and runs the exact test only on the
  y that a residue sieve keeps (_sieved).  For q = 8 and then the primes
  up to 47 (SIEVE_MODULI), a table keeps the residues y mod q at which
  lambda*y^n - D can be a square mod q, as the bits of one int; the sieve
  ANDs the tables' periodic patterns over the window, CHUNK y at a time,
  as far as a table costs less than the exact tests it saves.  An n whose
  table mod some q keeps no residue is skipped.  A table rests on D and
  lambda mod q and the class of n alone, so a scan builds it once per
  class (_table).  The tables decide nothing: the exact test decides every
  y they keep;
- the divisor walk, for even n = 2m and lambda = c^2, uses
  x^2 + D = z^2 with z = c*y^m: d = z - x is a divisor of D below sqrt(D),
  so the divisors of D in the window give every pair; perfect_root reads y off z.
  They are built from D's factorization when trial division, capped at a
  tenth of the walk's cost, proves it (lucas_engine.trial_divide, no
  primality test); otherwise every d in the window is tried.  The main
  equation's D = 19^(2k+1) factors at once: k+1 divisors lie below sqrt(D).
  One walk serves every even n of the window, so it runs unless it has
  WALK_PER_Y times as many candidates as their y-scans together; its
  price, charged once, is that of the full window, factored or not.  The
  even n's y-windows are built in ascending order only until the walk
  wins, and an even n the walk serves has none.

Neither uses coprimality or the theorem, and composite n are scanned too:
the oracle is the ground truth and must not inherit the theorem's
reductions.  All arithmetic is exact.  A window whose cost, summed over n
in y-candidate units (WALK_PER_Y walk candidates make one), exceeds
lucas_engine.SCAN_BUDGET is refused by check_budget before any candidate
is tried, and so is a k whose D = 19^(2k+1) costs more than that to build.  A
y-scan is priced at its whole window, less the even y when the mod-8 table
rules every even y out (_y_window), however few y its sieve keeps; that
price also sets the walk-or-scan choice.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .equation_model import LNInstance, Solution, is_solution
from .lucas_engine import Frozen, check_budget, trial_divide

# Walk candidates that cost about one y-scan candidate.  A walk candidate is
# one modulo; a y-candidate is a power, an isqrt and a product.  Trying every
# d of the window at D = 19^11, lambda = 4, n = 2, x_max = 10^7, the
# 3,039,730-candidate walk took 0.23-0.28 s and the 980,136-candidate y-scan
# 0.61-0.86 s (Python 3.11, 2-CPU host); on D near 10^10 and 10^11 the ratio
# per candidate was 7 to 9 as well.  4 errs towards the y-scan, which the walk
# is set against summed over the even n it serves; the choice reads their
# y-windows in ascending n only until the walk wins.  That timing is of the
# walk that tries every d, which runs only where D does not factor within the
# cap; 19^11 factors, and its walk tests only the divisors of D in the window
# (none at x_max = 10^7).  It also predates the y-scan's residue sieve, which
# runs the exact test on only the y it keeps and is not priced, so neither
# side is priced at what it now runs (ROADMAP item 25).
WALK_PER_Y = 4

# The moduli whose residue tables (_kept) a y-scan's sieve (_sieved) may
# use, in order: 8, then the primes 3 to 47 (H. Cohen, GTM 138, 1993,
# 1.7.2).  A table of q residues costs about q exact tests to build and
# rules out about half of the y that reach it, so 8 is always used and each
# prime only while 2*q is at most the y expected to reach its table.  At
# k = 5, n = 3 and x_max = 10^7 the tables of 8, 3, 5, 11, 13, 17, 19 and 23
# leave 25 of the 3,530 odd y; at k = 1, n = 3 and x_max = 10^12 all 15 leave
# 7,351 of 31,498,020, sieved in about 0.1 s against about 5 ms of exact
# tests (Python 3.11, 2-CPU host).
SIEVE_MODULI = (8, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# The most y a y-scan's sieve ANDs in one int, so that a mask is at most
# 8 KB (R. Crandall and C. Pomerance, Prime Numbers, 2005, 3.2).
CHUNK = 2**16


class SearchWindow(Frozen):
    """Finite search region; n = 1 is excluded (infinite parametric family).
    The defaults, written once here, are read off DEFAULT_WINDOW."""

    __slots__, __match_args__ = (), ("k", "n_min", "n_max", "x_max")

    def __new__(cls, k: int, n_min=2, n_max=30, x_max=10**7) -> SearchWindow:
        LNInstance(k)  # refuses a negative k
        _check_window(n_min, n_max, x_max)
        return tuple.__new__(cls, (k, n_min, n_max, x_max))


def _check_window(n_min: int, n_max: int, x_max: int) -> None:
    """Refuse an n range that is empty or reaches below 2, or x_max < 1."""
    if n_min < 2:
        raise ValueError(f"n_min must be at least 2, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"empty n range [{n_min}, {n_max}]")
    if x_max < 1:
        raise ValueError(f"x_max must be positive, got {x_max}")


# The default window: the CLI's flags, solve and the scripts read theirs here.
DEFAULT_WINDOW = SearchWindow(0)


def iroot(v: int, m: int) -> int:
    """The largest r with r^m <= v: a root of at most 48 bits by exact steps
    of 1 from a float estimate, a longer one by integer Newton.  A float may
    choose where either starts, never what it returns."""
    if v < 0:
        raise ValueError(f"v must be non-negative, got {v}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if v < 2 or m == 1:
        return v
    if m == 2:
        return math.isqrt(v)
    if v.bit_length() <= m:  # v < 2^m, so the root is 1; a large m builds nothing
        return 1
    bits = v.bit_length() // m
    if bits <= 48:  # a double's 53 bits put the estimate a few units off the root
        r = int(2 ** (math.log2(v) / m))
        while r**m > v:
            r -= 1
        while (r + 1) ** m <= v:
            r += 1
        return r
    # Newton starts next to the root, to take few steps: at the exact root of
    # v's top half, shifted back
    r = iroot(v >> m * (bits // 2), m) << bits // 2
    # one Newton step from any r > 0 lands at or above the floor root (the
    # arithmetic mean of the m factors bounds their geometric mean); from
    # there each step falls strictly until it reaches it, and stops falling
    r = ((m - 1) * r + v // r ** (m - 1)) // m
    while True:
        s = ((m - 1) * r + v // r ** (m - 1)) // m
        if s >= r:
            return r
        r = s


def perfect_root(v: int, m: int) -> int | None:
    """The exact r with r^m == v, if one exists; iroot checks m."""
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")
    r = iroot(v, m)
    return r if r**m == v else None


def _kept(D: int, lam: int, n: int, q: int) -> int:
    """The q-bit int whose bit r is set when lam*r^n - D is a square mod q.

    lam*y^n - D mod q depends on y mod q alone, so a y whose residue r is not
    kept gives no square, and no x.  Built afresh on each call; a scan uses
    _table.
    """
    squares = {i * i % q for i in range(q // 2 + 1)}  # i and q - i: one square
    lam, D = lam % q, D % q
    return sum(1 << r for r in range(q) if (lam * pow(r, n, q) - D) % q in squares)


def _table(D: int, lam: int, n: int, q: int, tables: dict) -> int:
    """_kept(D, lam, n, q), built in tables (one scan's) once per class of n.
    For n >= 2, r^n mod q rests on n mod (q - 1) for an odd prime q, and for
    q = 8 on n odd and n = 2 (odd r^2 = 1, even r^3 = 0)."""
    key = (q, n % 2, n == 2) if q == 8 else (q, n % (q - 1))
    if key not in tables:
        tables[key] = _kept(D, lam, n, q)
    return tables[key]


def _sieved(D: int, lam: int, n: int, ys: range, tables: dict) -> Iterator[int]:
    """The y of [ys.start, ys.stop), ascending, whose residue mod each
    modulus the sieve uses its table keeps; ys.step is not read, as the
    mod-8 table drops the even y that a step of 2 skips.

    The sieve walks SIEVE_MODULI in order: 8 always, then each prime while
    2*q is at most reach, the y expected to reach its table.  It passes
    over a table that keeps every residue and yields nothing once one keeps
    none.  Each table it uses is doubled out by shift-and-OR to q - 1 bits
    past a chunk, so that a right shift by the chunk's start mod q rotates
    it into place; each chunk of at most CHUNK y is the AND of those
    shifted patterns, whose set bits bin() and str.rfind read.
    """
    span = ys.stop - ys.start
    width = min(span, CHUNK)
    reach, patterns = span, []
    for q in SIEVE_MODULI:
        if q != 8 and 2 * q > reach:
            break
        pattern = _table(D, lam, n, q, tables)
        kept = pattern.bit_count()
        if kept == 0:
            return
        if kept == q:
            continue
        reach = reach * kept // q
        bits = q
        while bits < width + q - 1:
            pattern |= pattern << bits
            bits *= 2
        patterns.append((q, pattern))
    for y0 in range(ys.start, ys.stop, CHUNK):
        mask = (1 << min(CHUNK, ys.stop - y0)) - 1
        for q, pattern in patterns:
            mask &= pattern >> y0 % q
        found = bin(mask)  # "0b", then bit i of mask at index top - i
        top = len(found) - 1
        i = found.rfind("1")
        while i > 1:
            yield y0 + top - i
            i = found.rfind("1", 0, i)


def _y_window(D: int, lam: int, n: int, limit: int, tables: dict) -> range:
    """The y with D < lam*y^n <= limit, less the even y when no even y can
    make lam*y^n - D a square mod 8."""
    step = 1 if _table(D, lam, n, 8, tables) & 0b01010101 else 2  # bits 0, 2, 4, 6
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


def _divisors_in(D: int, ds: range) -> list[int] | None:
    """The divisors of D in ds, descending, read off D's trial factorization.

    None when trial division stops at its cap before D is factored: then
    every d of ds is walked.
    """
    # one integer in three is a trial candidate and costs about three walk
    # candidates, so trial division up to a cap costs about cap walk
    # candidates; |ds| / (3 * WALK_PER_Y) adds under a tenth to a walk it
    # cannot shorten
    factors, rest, finished = trial_divide(D, _size(ds) // (3 * WALK_PER_Y))
    if not finished:
        return None
    if rest > 1:
        factors[rest] = 1
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    return sorted((d for d in divisors if d in ds), reverse=True)


def _square_pairs(D: int, x_max: int, ds: range) -> list[tuple[int, int]]:
    """(x, z) with x^2 + D = z^2 and 0 < x <= x_max, ascending in z."""
    divisors = _divisors_in(D, ds)
    out = []
    # z = (d + D/d)/2 grows as d falls below sqrt(D)
    for d in reversed(ds) if divisors is None else divisors:
        if D % d == 0:
            e = D // d
            if (e - d) % 2 == 0 and 0 < e - d <= 2 * x_max:
                out.append(((e - d) // 2, (e + d) // 2))
    return out


def _size(r: range) -> int:
    """len(r), without its overflow past sys.maxsize."""
    return max(0, -((r.start - r.stop) // r.step))


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
    _check_window(n_min, n_max, x_max)
    check_budget("the window", n_max - n_min + 1)
    limit = x_max * x_max + D
    # the last n where some y >= 2 fits: lam * 2^n <= x_max^2 + D
    n_top = min(n_max, (limit // lam).bit_length() - 1)
    tables: dict = {}  # this scan's residue tables (_table), dropped with it
    c = math.isqrt(lam)
    ds = _divisor_window(D, x_max)
    # one walk serves every even n, so it runs when it costs less than their
    # y-scans together, and it is charged once.  The even n's y-windows are
    # built in ascending order only until it does: sizes are never negative,
    # so no later window could undo the choice, and the walk serves them all
    windows, even_size, walk = {}, 0, False  # the y-window of each y-scanned n
    for n in range(n_min, n_top + 1):
        if walk and n % 2 == 0:
            continue
        windows[n] = ys = _y_window(D, lam, n, limit, tables)
        if c * c == lam and n % 2 == 0:
            even_size += _size(ys)
            walk = _size(ds) < WALK_PER_Y * even_size
    if walk:
        windows = {n: ys for n, ys in windows.items() if n % 2}
    check_budget(
        "the window",
        sum(max(1, _size(ys)) for ys in windows.values())
        + (max(1, -(-_size(ds) // WALK_PER_Y)) if walk else 0)
        # each n above n_top costs one: its y-window holds y = 1 at most
        + n_max - max(n_min, n_top + 1) + 1
    )
    pairs = _square_pairs(D, x_max, ds) if walk else []
    out = []
    for n in range(n_min, n_top + 1):
        if walk and n % 2 == 0:
            m = n // 2
            for x, z in pairs:
                y = perfect_root(z // c, m) if z % c == 0 else None
                if y is not None:
                    out.append((x, y, n))
            continue
        ys = windows[n]
        if not ys:
            continue
        for y in _sieved(D, lam, n, ys, tables):
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
    """Every solution with n in [n_min, n_max] and x <= x_max, sorted by (n, y).

    D = 19^(2k+1) is priced before it is built, at its last squaring: D has
    at most (2k+1)*17/4 bits (19 < 2^4.25), and a b-bit square costs about
    (b // 64)^2 word multiplications.
    """
    words = (2 * window.k + 1) * 17 // 4 // 64
    check_budget("building 19^(2k+1)", words * words)
    inst = LNInstance(window.k)
    scan = generalized_scan(
        inst.D, LNInstance.LAMBDA, window.n_min, window.n_max, window.x_max
    )
    out = [Solution(*t) for t in scan]
    for s in out:
        assert is_solution(inst, *s.as_tuple())
    return out
