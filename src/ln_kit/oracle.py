"""Assumption-free brute-force enumeration of x^2 + D = lambda*y^n within a
window; the main equation is D = 19^(2k+1), lambda = 4.

Two exact enumerations serve every (D, lambda); the scan runs whichever
costs less, known before either starts:

- the y-scan covers the y with D < lambda*y^n <= x_max^2 + D, the window
  where x is positive and at most x_max, and runs the exact test only on the
  y that a residue wheel and then a few residue filters keep.  For q = 8
  and then a few small primes, the wheel keeps the residues y mod q at
  which lambda*y^n - D can be a square mod q, combined into one modulus M
  (Chinese remainder theorem), no larger than the window's length or the
  product 2,042,040 of 8 and every prime of WHEEL_PRIMES.  Each y it keeps
  is then looked up in the same table mod a few more primes, those the
  wheel left out and then FILTER_PRIMES, as far as a table costs less than
  the exact tests it saves.  An n whose wheel keeps no residue is skipped.
  A table rests on D and lambda mod q and the class of n alone, so a scan
  builds it once per class (_table).  The tables decide nothing: the exact
  test decides every y they keep;
- the divisor walk, for even n = 2m and lambda = c^2, uses
  x^2 + D = z^2 with z = c*y^m: d = z - x is a divisor of D below sqrt(D),
  so the divisors of D in the window give every pair, and y is read off z.
  They are built from D's factorization when trial division, capped at a
  tenth of the walk's cost, proves it (lucas_engine.trial_divide, no
  primality test); otherwise every d in the window is tried.  The main
  equation's D = 19^(2k+1) factors at once: k+1 divisors lie below sqrt(D).
  One walk serves every even n of the window, so it runs unless it has
  WALK_PER_Y times as many candidates as their y-scans together; its
  price, charged once, is that of the full window, factored or not.

Neither uses coprimality or the theorem, and composite n are scanned too:
the oracle is the ground truth and must not inherit the theorem's
reductions.  All arithmetic is exact.  A window whose cost, summed over n
in y-candidate units (WALK_PER_Y walk candidates make one), exceeds
SCAN_BUDGET is refused by check_budget before any candidate is tried, and
so is a k whose D = 19^(2k+1) costs more than that to build.  A
y-scan is priced at its whole window, less the even y when the mod-8 table
rules every even y out (_y_window), however few y its wheel and filters
keep; that price also sets the walk-or-scan choice.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator

from .equation_model import LNInstance, Solution, is_solution
from .lucas_engine import Frozen, trial_divide

# Most candidates one scan may try, in y-candidate units; every y-scanned n
# counts as at least one, and so does the walk.
SCAN_BUDGET = 10**8

# Walk candidates that cost about one y-scan candidate.  A walk candidate is
# one modulo; a y-candidate is a power, an isqrt and a product.  Trying every
# d of the window at D = 19^11, lambda = 4, n = 2, x_max = 10^7, the
# 3,039,730-candidate walk took 0.23-0.28 s and the 980,136-candidate y-scan
# 0.61-0.86 s (Python 3.11, 2-CPU host); on D near 10^10 and 10^11 the ratio
# per candidate was 7 to 9 as well.  4 errs towards the y-scan, which the walk
# is set against summed over the even n it serves.  That timing is of the walk
# that tries every d, which runs only where D does not factor within the cap;
# 19^11 factors, and its walk tests only the divisors of D in the window (none
# at x_max = 10^7).  It also predates the y-scan's residue wheel and
# filters, which run the exact test on only the y they keep; neither the
# wheel nor the filters are priced, so neither side is priced at what it
# now runs (ROADMAP item 9).
WALK_PER_Y = 4

# The primes a y-scan's residue wheel may combine after 8, in order; they
# are its cap too, as 8 times all of them is M = 2,042,040.  The window's
# length bounds M as well.  At k = 1, n = 3 and x_max = 10^12 the wheel of
# M = 2,042,040 keeps 46,656 residues, built in about 15 ms against about
# 1.5 s of exact tests (Python 3.11, 2-CPU host).
WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)

# The primes whose residue tables (_kept) each y a y-scan's wheel keeps is
# looked up in before its exact test, after those of WHEEL_PRIMES the wheel
# leaves out (H. Cohen, GTM 138, 1993, 1.7.2).  A table of q residues costs
# about q exact tests to build and rules out about half of the y that reach
# it, so it is built only while 2*q is at most the y expected to reach it:
# then it costs less than the exact tests it saves.  At k = 5, n = 3 and
# x_max = 10^7 the tables of 13, 17, 19 and 23 leave 25 of the 770 y the
# wheel keeps (Python 3.11, 2-CPU host: a table step or an exact test takes
# about 0.24 us, a lookup about 0.025 us).
FILTER_PRIMES = (19, 23, 29, 31, 37, 41, 43, 47)


class SearchWindow(Frozen):
    """Finite search region; n = 1 is excluded (infinite parametric family).
    The CLI reads the defaults on the class, as SearchWindow.n_max etc."""

    __slots__, __match_args__ = (), ("k", "n_min", "n_max", "x_max")
    n_min = 2
    n_max = 30
    x_max = 10**7

    def __new__(cls, k: int, n_min=n_min, n_max=n_max, x_max=x_max) -> SearchWindow:
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
    """The exact r with r^m == v, if one exists."""
    if v < 1:
        raise ValueError(f"v must be positive, got {v}")
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    r = iroot(v, m)
    return r if r**m == v else None


def _kept(D: int, lam: int, n: int, q: int) -> list[bool]:
    """For each r mod q, whether lam*r^n - D is a square mod q.

    lam*y^n - D mod q depends on y mod q alone, so a y whose residue r is not
    kept gives no square, and no x.  A fresh list on each call; a scan uses _table.
    """
    squares = {i * i % q for i in range(q // 2 + 1)}  # i and q - i: one square
    lam, D = lam % q, D % q
    return [(lam * pow(r, n, q) - D) % q in squares for r in range(q)]


def _table(D: int, lam: int, n: int, q: int, tables: dict) -> list[bool]:
    """_kept(D, lam, n, q), built in tables (one scan's) once per class of n.
    For n >= 2, r^n mod q rests on n mod (q - 1) for an odd prime q, and for
    q = 8 on n odd and n = 2 (odd r^2 = 1, even r^3 = 0)."""
    key = (q, n % 2, n == 2) if q == 8 else (q, n % (q - 1))
    if key not in tables:
        tables[key] = _kept(D, lam, n, q)
    return tables[key]


def _wheel(
    D: int, lam: int, n: int, span: int, tables: dict
) -> tuple[int, list[int], list[tuple[int, list[bool]]]]:
    """A modulus M, the ascending residues y mod M that may give a square,
    and the (q, _kept table) filters each y they keep must pass before its
    exact test.

    One walk over WHEEL_PRIMES, then FILTER_PRIMES, reads each prime's table
    and passes over one that keeps every residue.  A prime of WHEEL_PRIMES
    joins the wheel while M*q stays within span, the window's length: M is
    8 times the primes that joined, and a residue is kept when each factor
    keeps it (Chinese remainder theorem).  Adding q costs about M*q steps,
    each cheaper than an exact test, so M*q <= span keeps the build below
    the tests it saves.  From the first prime that does not join, each
    becomes a filter while 2*q is at most reach, the y expected to reach its
    table (at first the wheel's).  8 is always a factor, so no y that
    _y_window's step skips is kept.
    """
    keep = _table(D, lam, n, 8, tables)
    M, offsets = 8, [r for r in range(8) if keep[r]]
    filters, reach = [], None  # None while a prime may join the wheel
    for q in WHEEL_PRIMES + FILTER_PRIMES:
        if reach is None and (q not in WHEEL_PRIMES or M * q > span):
            reach = span * len(offsets) // M
        if not offsets or reach is not None and 2 * q > reach:
            break
        keep = _table(D, lam, n, q, tables)
        kept = sum(keep)
        if kept == q:
            continue
        if reach is None:
            # j outer and the old offsets inner keeps the new ones ascending
            offsets = [o + M * j for j in range(q) for o in offsets if keep[(o + M * j) % q]]
            M *= q
        else:
            filters.append((q, keep))
            reach = reach * kept // q
    return M, offsets, filters


def _wheel_ys(ys: range, M: int, offsets: list[int]) -> Iterator[int]:
    """The y in [ys.start, ys.stop) whose residue mod M is in offsets,
    ascending; ys.step is not read, as the wheel's mod-8 factor drops the
    even y that a step of 2 skips."""
    base = ys.start - ys.start % M
    turn = offsets[bisect.bisect_left(offsets, ys.start - base) :]
    while base < ys.stop:
        if base + M > ys.stop:
            turn = turn[: bisect.bisect_left(turn, ys.stop - base)]
        for r in turn:
            yield base + r
        base += M
        turn = offsets


def _y_window(D: int, lam: int, n: int, limit: int, tables: dict) -> range:
    """The y with D < lam*y^n <= limit, less the even y when no even y can
    make lam*y^n - D a square mod 8."""
    step = 1 if any(_table(D, lam, n, 8, tables)[::2]) else 2
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


def check_budget(what: str, count: int) -> None:
    """Refuse, before any work, what needs count candidates over SCAN_BUDGET;
    the package's one comparison with it.  caseworks.p3_case counts a value
    of b, quadratic_integers.class_number_imag an (A, B) pair, and
    brute_force a word multiplication of building D, as one."""
    if count > SCAN_BUDGET:
        # a count of over 1,024 bits is written as solver._shown writes it,
        # so no int-to-str limit can raise while the refusal is written
        bits = count.bit_length()
        shown = count if bits <= 1024 else f"<int of {bits} bits>"
        raise ValueError(
            f"{what} needs {shown} candidates (y-scan units), "
            f"over the scan budget of {SCAN_BUDGET}"
        )


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
    windows = [(n, _y_window(D, lam, n, limit, tables)) for n in range(n_min, n_top + 1)]
    c = math.isqrt(lam)
    ds = _divisor_window(D, x_max)
    # one walk serves every even n, so it runs when it costs less than their
    # y-scans together, and it is charged once
    walk = c * c == lam and _size(ds) < WALK_PER_Y * sum(
        _size(ys) for n, ys in windows if n % 2 == 0
    )
    check_budget(
        "the window",
        sum(max(1, _size(ys)) for n, ys in windows if not (walk and n % 2 == 0))
        + (max(1, -(-_size(ds) // WALK_PER_Y)) if walk else 0)
        # each n above n_top costs one: its y-window holds y = 1 at most
        + n_max - max(n_min, n_top + 1) + 1
    )
    pairs = _square_pairs(D, x_max, ds) if walk else []
    out = []
    for n, ys in windows:
        if walk and n % 2 == 0:
            m = n // 2
            for x, z in pairs:
                if z % c == 0:
                    y = iroot(z // c, m)
                    if y**m * c == z:
                        out.append((x, y, n))
            continue
        if not ys:
            continue
        M, offsets, filters = _wheel(D, lam, n, ys.stop - ys.start, tables)
        if not offsets:  # no y of any residue gives a square
            continue
        for y in _wheel_ys(ys, M, offsets):
            for q, keep in filters:
                if not keep[y % q]:
                    break
            else:
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
