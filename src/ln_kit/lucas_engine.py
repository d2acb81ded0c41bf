"""Lucas sequences, the u_p = +-1 criterion, and primitive divisors.

A prime q is a primitive divisor of u_n when q | u_n but q divides neither
the discriminant (alpha - beta)^2 nor any earlier term u_2 ... u_{n-1}.
trial_divide is the package's one trial-division loop, is_probable_prime its
one primality test (its Miller-Rabin rounds, _passes_base, are the one such
loop), check_digits its one (exact) test of the int-to-str digit limit,
digit_limit its one reader, and shared its one verdict-cache declaration.
Factoring runs trial_divide up to TRIAL_DIVISION_LIMIT and then splits what
survives by deterministically seeded Brent-Pollard under a budget of
word-size multiplications (FACTORING_BUDGET unless given), which pays for
each Miller-Rabin round on each piece too; a cofactor left unsplit or
untested yields an explicit indeterminate verdict, never a silent negative.
The oracle runs trial_divide alone, to read the divisors of D off an exact
factorization.  Frozen, the base of the package's frozen value types, lives
here, in the module every other one imports: each type is a tuple of its
fields and nothing else, and writes only its __new__, whose defaults are
the type's; Frozen gives field names, repr and equality; the tuple gives
hash, and refuses assignment itself.
"""

from __future__ import annotations

import functools
import math
import operator
import random
import sys
from enum import Enum

TRIAL_DIVISION_LIMIT = 10**6

# Word-size multiplications primitive_divisor may spend on what trial
# division leaves: an iteration of Brent-rho on a b-bit cofactor costs
# max(1, (b // 64)^2) of them and its primality test b times that per
# Miller-Rabin base, so the budget bounds time.
# The solver's steps record it as their input; the Lucas numbers they factor
# (|u_5| .. |u_13| of the pair (1, 5), all at most 15,679) never get past
# trial division, so it changes none of them.
FACTORING_BUDGET = 10**6

# Verdicts each cached procedure keeps, the package's one bound on such
# caches.  Each instance of a solve asks about the same odd primes p <= n_max
# in turn, up to 913 within the step budget, so a smaller bound would evict
# each before the next instance asks; a direct caller asks about any inputs.
VERDICT_CACHE_SIZE = 1024
shared = functools.lru_cache(maxsize=VERDICT_CACHE_SIZE, typed=True)

# Bases giving a deterministic Miller-Rabin answer for n < 3.317e24; for
# larger n the same bases act as a strong probable-prime test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Frozen(tuple):
    """Base of the frozen value types, each a tuple of its fields named in
    __match_args__, in __new__'s order.  Each declares empty __slots__ and
    writes only its __new__, which validates and returns tuple.__new__(cls,
    fields); the tuple refuses assignment and deletion and gives the hash.
    Frozen reads each field by its index, through a property on the class,
    so the class holds no field's value: a default is one of __new__'s,
    read off an object.  It gives repr as Name(field=value, ...), equality
    between objects of one exact class, of the fields _fields reads, and
    copy and pickle through the class's __new__, given the fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    _fields = tuple  # the fields, as a plain tuple

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls.__match_args__):
            setattr(cls, name, property(operator.itemgetter(i)))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return same and self._fields(self) == self._fields(other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self) -> tuple:
        # tuple's own passes the whole tuple to __new__ as its first field
        return tuple(self)


class LucasPair(Frozen):
    """(P, Q) = (alpha + beta, alpha * beta), coprime, nonzero, nondegenerate."""

    __slots__, __match_args__ = (), ("P", "Q")

    def __new__(cls, P: int, Q: int) -> LucasPair:
        if P == 0 or Q == 0:
            raise ValueError(f"P and Q must both be nonzero, got ({P}, {Q})")
        if math.gcd(P, Q) != 1:
            raise ValueError(f"P and Q must be coprime, got ({P}, {Q})")
        # alpha/beta is a root of unity exactly when P^2 / Q is 0, 1, 2, 3 or 4;
        # P^2 = 4Q is also the zero-discriminant case.
        if P * P in (Q, 2 * Q, 3 * Q, 4 * Q):
            raise ValueError(f"({P}, {Q}) is a degenerate Lucas pair")
        return tuple.__new__(cls, (P, Q))

    @property
    def disc(self) -> int:
        return self.P * self.P - 4 * self.Q


class BhvRoute(str, Enum):
    ALWAYS_PRIMITIVE = "AlwaysPrimitive"
    CHECK_DEFECT_TABLE = "CheckDefectTable"
    SMALL_PRIME = "SmallPrime"

    def to_jsonable(self) -> dict[str, str]:
        return {"route": self.value}


class PrimitiveDivisorVerdict(Frozen):
    """Outcome of the primitive-divisor test at index n.

    exists is meaningful only when indeterminate is False; witness is the
    smallest verified prime that passes, and obstruction explains how each
    failing factor is absorbed (by the discriminant or an earlier term).
    """

    __slots__, __match_args__ = (), (
        "n", "exists", "witness", "obstruction", "indeterminate"
    )

    def __new__(
        cls, n: int, exists: bool, witness=None, obstruction=None, indeterminate=False
    ) -> PrimitiveDivisorVerdict:
        return tuple.__new__(cls, (n, exists, witness, obstruction, indeterminate))

    def to_jsonable(self) -> dict[str, object]:
        witness = None if self.witness is None else str(self.witness)
        return dict(zip(self.__match_args__, self)) | {"witness": witness}


def lucas_u(pair: LucasPair, n: int) -> int:
    """u_n for n >= 0, where u_0 = 0, u_1 = 1, u_i = P*u_{i-1} - Q*u_{i-2};
    u_{-n} = -u_n / Q^n is not an integer in general.  Raises ValueError
    before the recurrence when u_n_log10's bound, which holds for u_n and
    every earlier term, is over check_digits: the one check of u_n's length,
    primitive_divisor's too.  Two terms are kept: memory grows with n."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_digits("u_n", n, *u_n_log10(pair))
    u, u_next = 0, 1
    for _ in range(n):
        u, u_next = u_next, pair.P * u_next - pair.Q * u
    return u


def check_digits(value: str, count: int, each: float, more: float = 0.0) -> None:
    """Refuse, before any work, a value near 10^(count * each + more), with
    count >= 0 and each >= 0, that has more digits than digit_limit() lets
    a str hold; value names it.  Its digits, floor(count * each + more) + 1,
    are counted in exact integers from each's and more's ratios, so no
    count, however large, meets a float it could overflow.  The refusal
    writes the count in decimal when that fits the limit, else as the power
    of two it passes, so it never meets the limit itself."""
    limit = digit_limit()
    if not limit:
        return
    a, b = each.as_integer_ratio()
    c, d = more.as_integer_ratio()
    digits = (count * a * d + c * b) // (b * d) + 1
    if digits > limit:
        about = (
            f"about {digits}" if digits < 10**limit
            else f"over 2^{digits.bit_length() - 1}"
        )
        raise ValueError(
            f"{value} would have {about} digits, over the "
            f"{limit}-digit limit of int-to-str conversion "
            "(sys.get_int_max_str_digits())"
        )


def digit_limit() -> int:
    """The int-to-str digit limit (0: none); the package reads it here alone."""
    return getattr(sys, "get_int_max_str_digits", int)()


def u_n_log10(pair: LucasPair) -> tuple[float, float]:
    """check_digits' (each, more): log10|u_n| <= n * each + more, as u_n =
    (alpha^n - beta^n)/(alpha - beta), so |u_n| <= 2|alpha|^n / sqrt(|disc|),
    alpha the root of z^2 - P*z + Q of larger modulus."""
    disc = pair.disc
    if disc < 0:
        log_alpha = math.log10(pair.Q) / 2  # |alpha|^2 = alpha * conj(alpha) = Q
    else:
        # 2|alpha| = |P| + sqrt(disc), times 2^64 and rounded up
        scaled = (abs(pair.P) << 64) + math.isqrt(disc << 128) + 1
        log_alpha = math.log10(scaled) - 65 * math.log10(2)
    return log_alpha, math.log10(2) - math.log10(abs(disc)) / 2


def bhv_gate(p: int) -> BhvRoute:
    """Route the u_p = +-1 question, alike for every Lucas pair: p > 13 never
    happens (primitive divisors always exist), p in {5, 7, 11, 13} needs the
    defective-pair tables, and p <= 3 is handled by congruence casework."""
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
    return all(_passes_base(n, a) for a in _MR_BASES)


def _passes_base(n: int, a: int) -> bool:
    """One Miller-Rabin round: whether the odd n > a is a strong probable
    prime to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


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


def trial_divide(n: int, limit: int) -> tuple[dict[int, int], int, bool]:
    """Divide out of n >= 1 its primes below limit, while their square fits.

    Returns (the primes divided out, with multiplicity; what is left of n;
    finished).  finished is true when what is left is 1 or proven prime: it
    has no prime below the first untried candidate f, and f^2 exceeds it.
    Otherwise the limit stopped the loop first, and what is left has no prime
    below the limit.  No primality test is used, so finished is exact.
    """
    factors: dict[int, int] = {}
    # candidates 2, 3, then 6j - 1 and 6j + 1: every prime below the limit is
    # one, and a composite candidate never divides, its primes being gone
    f, gap = 2, 1
    while f < limit and f * f <= n:
        while n % f == 0:
            factors[f] = factors.get(f, 0) + 1
            n //= f
        f += gap
        gap = 2 if f <= 5 else 6 - gap
    return factors, n, f * f > n


def _factorize(n: int, budget: int) -> tuple[dict[int, int], int]:
    """Factor n by trial division then budgeted primality tests and rho.

    Returns (verified prime factors with multiplicity, leftover cofactor);
    leftover > 1 means a piece survived the budget unsplit or untested.  Each
    Miller-Rabin base run on a b-bit piece is charged b * max(1, (b // 64)^2)
    before it runs, rho's price for b iterations, so a composite that fails
    the first base pays for one; a piece the rest of the budget cannot test
    to the last base stays in leftover.
    """
    factors, n, _ = trial_divide(n, TRIAL_DIVISION_LIMIT)
    leftover = 1
    stack = [n] if n > 1 else []
    remaining = budget
    while stack:
        m = stack.pop()
        # m has no prime factor trial division tried, so below the trial
        # limit squared it is prime; each m is tested for primality once
        if m < TRIAL_DIVISION_LIMIT * TRIAL_DIVISION_LIMIT:
            factors[m] = factors.get(m, 0) + 1
            continue
        bits = m.bit_length()
        price = bits * max(1, (bits // 64) ** 2)
        composite = False
        for a in _MR_BASES:  # m is odd and above every base
            if price > remaining:
                leftover *= m
                break
            remaining -= price
            if not _passes_base(m, a):
                composite = True
                break
        else:
            factors[m] = factors.get(m, 0) + 1
        if not composite:
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

    A budget below 0 and an n below 2 are refused on every call; then the
    callers share one verdict per question, and only its first asking
    builds u_n (lucas_u refuses one too long to write).
    """
    if factoring_budget < 0:
        raise ValueError(f"factoring budget must be at least 0, got {factoring_budget}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return _primitive_divisor_verdict(pair, n, factoring_budget, digit_limit())


@shared
def _primitive_divisor_verdict(
    pair: LucasPair, n: int, factoring_budget: int, limit: int
) -> PrimitiveDivisorVerdict:
    """Keyed by the digit limit primitive_divisor read, as lucas_u checks u_n
    (and so each u_j the obstruction quotes) under it: no verdict is returned
    under a limit it was not checked under.  One more pass of the recurrence
    finds, for each prime q | u_n, the least j in [2, n) with q | u_j, and u_j."""
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
                reasons + [f"cofactor {leftover} unfactored within budget"]
            ),
            indeterminate=True,
        )
    return PrimitiveDivisorVerdict(n=n, exists=False, obstruction="; ".join(reasons))
