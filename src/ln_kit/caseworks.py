"""Executable congruence casework: every step carries a machine-checkable trace.

Each procedure returns a CaseVerdict whose trace records the moduli used and
the residues enumerated, so a verdict can be replayed and compared bit-for-bit
instead of being trusted as a bare boolean.  mod19_forces_p and
no_19z2_solutions cache themselves, and mod_pow2_insoluble checks its inputs
on every call, then calls its cached inner function _pow2_verdict: each
returns one read-only verdict per question (lucas_engine.shared), shared by
every caller in the process.  even_case checks k and m on every call, then
takes what k alone decides from _even_split, built once per k and shared by
the verdicts of every m.  p3_case, _pow2_verdict and no_19z2_solutions raise
where they enumerate on what arithmetic or a cited theorem rules out; p3_case
and mod_pow2_insoluble price their enumerations first (lucas_engine.check_budget).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from types import MappingProxyType

from .equation_model import LNInstance, Solution, check_D_digits, json_safe
from .lucas_engine import Frozen, check_budget, is_probable_prime, shared
from .oracle import generalized_scan, iroot, perfect_root

OUTCOME_CONTRADICTION = "contradiction"
OUTCOME_FORCED = "forced"
OUTCOME_REDUCED = "reduced"
OUTCOME_SOLUTIONS = "solutions"


class CaseVerdict(Frozen):
    """Outcome of one proof step plus the congruence trace that supports it.
    Besides trace, OUTCOME_CONTRADICTION sets reason, OUTCOME_FORCED
    assignments (and at times reason), OUTCOME_REDUCED reduced_k and
    constraints, OUTCOME_SOLUTIONS solutions.  The four sequence fields are
    stored as tuples, so a shared verdict stays read-only."""

    __slots__, __match_args__ = (), (
        "outcome", "reason", "assignments", "reduced_k", "constraints", "solutions",
        "trace",
    )

    def __new__(
        cls, outcome: str, reason: str = "", assignments: Iterable = (),
        reduced_k: int | None = None, constraints: Iterable = (),
        solutions: Iterable = (), trace: Iterable = (),
    ) -> CaseVerdict:
        return tuple.__new__(cls, (
            outcome, reason, tuple(assignments), reduced_k, tuple(constraints),
            tuple(solutions), tuple(trace),
        ))

    def to_jsonable(self) -> dict[str, object]:
        """Each field that is set, in declaration order, through json_safe;
        reduced_k = 0 is set, "", () and None are not."""
        return {
            name: json_safe(v)
            for name, v in zip(self.__match_args__, self)
            if v is not None and v != "" and v != ()
        }


def even_case(k: int, m: int) -> CaseVerdict:
    """n = 2m with 19 not dividing x.

    19^(2k+1) = (2y^m - x)(2y^m + x) and the factors are coprime (a common
    factor 19 would divide x), so 2y^m - x = 1 and 2y^m + x = 19^(2k+1).
    That pins y^m = (19^(2k+1)+1)/4 and x = (19^(2k+1)-1)/2; a solution with
    this n exists iff the pinned value is a perfect m-th power.  Raises
    ValueError before D is built when check_D_digits refuses k.
    """
    if k < 0 or m < 1:
        raise ValueError(f"need k >= 0 and m >= 1, got k={k}, m={m}")
    check_D_digits(k)
    x, ym, split, mod3 = _even_split(k)
    root = perfect_root(ym, m)
    power = {"check": "perfect_power", "value": ym, "m": m, "root": root}
    trace = (split, mod3, MappingProxyType(power))
    if root is None:
        reason = f"(19^(2k+1)+1)/4 = {ym} is not a perfect {m}-th power"
        return CaseVerdict(OUTCOME_CONTRADICTION, reason=reason, trace=trace)
    sols = (Solution(x, root, 2 * m),)
    return CaseVerdict(OUTCOME_SOLUTIONS, solutions=sols, trace=trace)


@shared
def _even_split(k: int) -> tuple[int, int, MappingProxyType, MappingProxyType]:
    """even_case's x and y^m for k, with its read-only coprime_factor_split
    and mod3 entries: alike for every m, so built once per k."""
    D = LNInstance(k).D
    x, ym = (D - 1) // 2, (D + 1) // 4
    split = {
        "check": "coprime_factor_split",
        "small_factor": 1,
        "large_factor": D,
        "x": x,
        "y_power": ym,
    }
    # subtracting the split equations mod 3 forces x; m odd follows
    mod3 = {"check": "mod3", "x_mod_3": x % 3, "y_power_mod_3": ym % 3}
    return x, ym, MappingProxyType(split), MappingProxyType(mod3)


@shared
def mod19_forces_p(p: int) -> CaseVerdict:
    """When 19 still divides the reduced left side (t < k), the surviving
    term mod 19 is p*a^(p-1); with 19 coprime to a that forces p = 19.

    The verdict depends on p alone, so p is all it takes (solve records k
    and t beside it) and it caches itself: every (k, t) shares one verdict
    per p, immutable throughout (its trace entry is read-only and its
    residues a tuple), so no caller can edit what another step recorded."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and at least 3, got {p}")
    residues = tuple((p % 19) * pow(a, p - 1, 19) % 19 for a in range(1, 19))
    trace = (
        MappingProxyType(
            {
                "check": "mod19_exhaustive",
                "modulus": 19,
                "term": "p*a^(p-1)",
                "residues": residues,
            }
        ),
    )
    if 0 not in residues:
        return CaseVerdict(
            OUTCOME_CONTRADICTION,
            reason=f"p*a^(p-1) is never 0 mod 19 for a in 1..18, so p = {p} is "
            f"impossible while 19 divides the left side",
            trace=trace,
        )
    return CaseVerdict(OUTCOME_FORCED, assignments=(("p", 19),), trace=trace)


def mod19_forces_kt(k: int, t: int) -> CaseVerdict:
    """After p = 19 is forced, dividing once by 19 and reading mod 19 again
    pins k - t = 1 (and the positive sign)."""
    if not 0 <= t < k:
        raise ValueError(f"requires 0 <= t < k, got t={t}, k={k}")
    check = {"check": "mod19_after_division", "k": k, "t": t, "k_minus_t": k - t}
    trace = (MappingProxyType(check),)
    if k - t != 1:
        reason = f"dividing by 19 forces k - t = 1, but k - t = {k - t}"
        return CaseVerdict(OUTCOME_CONTRADICTION, reason=reason, trace=trace)
    forced = (("k_minus_t", 1), ("sign", 1))
    return CaseVerdict(OUTCOME_FORCED, assignments=forced, trace=trace)


def mod_pow2_insoluble(p: int, t: int) -> CaseVerdict:
    """Insolubility of a^2 = 19^(2t) * (2 + 2^(s-1)) mod 2^(s+1) for odd a,
    where p = 3 + 2^s * m with s >= 2 and m odd.  Exhausts all odd residues.

    t is the 19-adic valuation of b; t = 0 is the b = +-1 route, which meets
    the same congruence with the 19^(2t) factor collapsed to 1.  Raises
    ValueError before the enumeration when its 2^s residues are over the
    scan budget (lucas_engine.check_budget).

    The checks on p, t and the budget run on every call.  t enters the
    verdict only through the target, so every t that meets one shares one
    read-only verdict per (p, target), as mod19_forces_p shares one per p.
    The verdict is always a contradiction: s >= 2 makes the target even
    modulo the even 2^(s+1), and an odd a has an odd square.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if p <= 3 or p % 4 != 3 or not is_probable_prime(p):
        raise ValueError(f"p must be a prime congruent to 3 mod 4 and > 3, got {p}")
    s = ((p - 3) & -(p - 3)).bit_length() - 1
    modulus = 1 << (s + 1)
    check_budget(f"mod_pow2_insoluble(p={p})", modulus // 2)
    target = pow(19, 2 * t, modulus) * (2 + (1 << (s - 1))) % modulus
    return _pow2_verdict(p, s, target)


@shared
def _pow2_verdict(p: int, s: int, target: int) -> CaseVerdict:
    """mod_pow2_insoluble's verdict for p (s is p's, passed on) and the
    target, cached apart as it depends on (p, target) and the scan budget is
    read on each call; its trace entry is read-only, its residue lists tuples.
    Raises RuntimeError on an odd root of the target, which no target has."""
    modulus = 1 << (s + 1)
    odd_residues = range(1, modulus, 2)
    squares = tuple(sorted({a * a % modulus for a in odd_residues}))
    solutions = tuple(a for a in odd_residues if a * a % modulus == target)
    if solutions:
        raise RuntimeError(
            f"a^2 = {target} (mod {modulus}) is soluble at odd a = {solutions}"
        )
    check = {
        "check": "odd_squares_exhaustive",
        "modulus": modulus,
        "s": s,
        "m": (p - 3) >> s,
        "target": target,
        "odd_residues_checked": len(odd_residues),
        "square_residues": squares,
        "solutions": solutions,
    }
    return CaseVerdict(
        OUTCOME_CONTRADICTION,
        reason=f"a^2 = {target} (mod {modulus}) has no odd solution "
        f"(odd squares mod {modulus} are {list(squares)})",
        trace=(MappingProxyType(check),),
    )


def _cubic_witnesses(target: int, bound: int) -> list[tuple[int, int]]:
    """Odd a, b with 0 < a <= bound, 0 < |b| <= bound and 3a^2 b - 19b^3 = target.

    A fixed b pins a^2 = (target + 19b^3) / (3b), so one exact division and
    one isqrt decide every a for that b; b divides 3a^2 b - 19b^3, so a b
    that does not divide target has no a.  Sorted by a, then by b in the
    order 1, -1, 3, -3, ...
    """
    found = []
    for b_abs in range(1, bound + 1, 2):
        if target % b_abs:
            continue
        for b in (b_abs, -b_abs):
            q, r = divmod(target + 19 * b**3, 3 * b)
            if r == 0 and q > 0:
                a = math.isqrt(q)
                if a * a == q and a % 2 and a <= bound:
                    found.append((a, b))
    found.sort(key=lambda w: w[0])  # stable: b keeps its order within one a
    return found


def _cubic_residues(target: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """3a^2 b - 19b^3 = target read mod 3, then mod 9 with b = 3r + 2.

    Returns the b mod 3 it allows (mod 3 the left side is -b^3 = -b), the
    square a^2 mod 3 that b = 2 (mod 3) forces, and the a mod 3 it allows
    with that b: mod 9 it reads 6a^2 - 8 = target, so for target = 1
    (mod 3), which b = 2 needs, dividing by 3 and inverting 2 leaves
    a^2 = 2(target + 8)/3 (mod 3).
    """
    b_mod3 = tuple(b for b in range(3) if (3 * b - 19 * b**3) % 3 == target % 3)
    forced_square = 2 * ((target % 9 + 8) // 3) % 3
    a_mod3 = tuple(a for a in range(3) if (6 * a * a - 8) % 9 == target % 9)
    return b_mod3, forced_square, a_mod3


def p3_case(k: int, search_bound: int) -> CaseVerdict:
    """n = 3 with 19 not dividing x is impossible, shown two independent ways.

    Residue path: 4*19^k = 3a^2 b - 19 b^3 read mod 3 forces b = 2 (mod 3);
    substituting b = 3r + 2 and reading mod 9 leaves a^2 = 2 (mod 3), which
    no square satisfies.  Exhaustive path: no odd |a|, |b| <= search_bound
    satisfy the cubic identity at all.  The box is decided one b at a time
    (a^2 is fixed by b), exactly and without residues; candidates_checked
    still counts every (a, b) pair in it.  Raises ValueError before the
    search when its values of b are over the scan budget (lucas_engine.check_budget),
    and before 4*19^k is built when check_D_digits refuses k.
    """
    if k < 0 or search_bound < 1:
        raise ValueError(f"need k >= 0 and search_bound >= 1, got {k}, {search_bound}")
    check_D_digits(k)
    odd = (search_bound + 1) // 2  # the odd b in [1, search_bound]
    check_budget(f"p3_case(search_bound={search_bound})", 2 * odd)
    target = 4 * 19**k
    # target = 1 (mod 3) and 4 (mod 9): b = 2 (mod 3), then a^2 = 2 (mod 3)
    b_mod3, forced_square, a_mod3 = _cubic_residues(target)
    squares_mod3 = tuple(sorted({a * a % 3 for a in range(3)}))
    witnesses = _cubic_witnesses(target, search_bound)  # a > 0: it enters squared
    candidates = odd * 2 * odd
    mod3 = {"check": "mod3_forces_b", "lhs_mod_3": target % 3, "b_mod_3": b_mod3}
    mod9 = {
        "check": "mod9_reduction",
        "lhs_mod_9": target % 9,
        "a_square_forced_mod_3": forced_square,
        "a_mod_3_solutions": a_mod3,
        "squares_mod_3": squares_mod3,
    }
    search = {
        "check": "exhaustive_search",
        "bound": search_bound,
        "candidates_checked": candidates,
        "witnesses": tuple(witnesses),
    }
    trace = (MappingProxyType(mod3), MappingProxyType(mod9), MappingProxyType(search))
    if witnesses or a_mod3:
        raise RuntimeError(
            f"residue argument and exhaustive search disagree for k={k}: "
            f"witnesses={witnesses}, a_mod3={a_mod3}"
        )
    reason = (
        "3a^2*b - 19b^3 = 4*19^k forces b = 2 (mod 3) and then a^2 = 2 (mod 3), "
        "which is not a quadratic residue; exhaustive scan found no witness"
    )
    return CaseVerdict(OUTCOME_CONTRADICTION, reason=reason, trace=trace)


def valuation_trichotomy(k: int, s: int, t: int, X: int, Y: int, n: int) -> CaseVerdict:
    """Case 19 | x with x = 19^s * X, y = 19^t * Y: compare min{2s, 2k+1, tn}
    in 19^(2s) X^2 + 19^(2k+1) = 4 * 19^(tn) Y^n and close or reduce the
    instance.

    min = 2k+1 forces tn = 2k+1 and lands on 19*Z^2 + 1 = 4*Y^n (insoluble).
    Below 2k+1, dividing by 19^min leaves exactly one term prime to 19
    unless 2s = tn, so the instance reduces to k - s, with the constraint
    tn = 2s recorded, exactly when 2s = tn.  Raises ValueError unless
    s >= 1, t >= 0, X and Y are positive and prime to 19, and X is odd.
    """
    if k < 0 or n < 2:
        raise ValueError(f"need k >= 0 and n >= 2, got k={k}, n={n}")
    if s < 1 or t < 0 or X < 1 or Y < 1:
        raise ValueError(f"need s >= 1, t >= 0, X >= 1, Y >= 1: {s}, {t}, {X}, {Y}")
    if X % 19 == 0 or Y % 19 == 0 or X % 2 == 0:
        raise ValueError(f"X must be odd and X, Y prime to 19: X={X}, Y={Y}")
    two_s, odd_e, tn = 2 * s, 2 * k + 1, t * n
    mn = min(two_s, odd_e, tn)
    base = {
        "check": "valuation_minimum",
        "two_s": two_s,
        "two_k_plus_1": odd_e,
        "t_times_n": tn,
        "minimum": mn,
    }
    if mn == odd_e:
        forced, holds = "t*n == 2k+1", tn == odd_e
        failure = (
            f"dividing by 19^(2k+1) and reading mod 19 forces t*n = 2k+1, "
            f"but t*n = {tn} and 2k+1 = {odd_e}"
        )
    else:  # mn is 2s or t*n, strictly below 2k+1
        forced, holds = "2s == t*n (or t*n == 2k+1, handled above)", two_s == tn
        failure = (
            f"after dividing by 19^{mn}, exactly one of the three terms is "
            f"prime to 19: 2s = {two_s}, t*n = {tn}"
        )
    check = {"check": "mod19_forcing", "forced": forced, "holds": holds}
    trace = (MappingProxyType(base), MappingProxyType(check))
    if not holds:
        return CaseVerdict(OUTCOME_CONTRADICTION, reason=failure, trace=trace)
    if mn == odd_e:
        return CaseVerdict(
            OUTCOME_CONTRADICTION,
            reason="reduces to 19*Z^2 + 1 = 4*Y^n, which has no solutions "
            "(bounded scan in no_19z2_solutions; unbounded statement cited)",
            trace=trace,
        )
    constraints = (f"t*n == 2*s == {two_s}",)
    return CaseVerdict(
        OUTCOME_REDUCED, reduced_k=k - s, constraints=constraints, trace=trace
    )


@shared
def no_19z2_solutions(n_max: int, z_max: int) -> CaseVerdict:
    """Bounded verification that 19*Z^2 + 1 = 4*Y^n has no solutions with odd
    Z <= z_max and 3 <= n <= n_max.  The unbounded statement is cited, not
    reproved; this scan guards the reduction that relies on it.

    Times 19 the equation reads (19Z)^2 + 19 = 76*Y^n, so the oracle's scan
    of x^2 + 19 = 76*y^n over x <= 19*z_max decides it.  Every x it finds is
    odd and divisible by 19 (x^2 = 19*(4y^n - 1)), so Z = x/19 is odd.
    candidates_checked counts every Y >= 1 with 4*Y^n <= 19*z_max^2 + 1.
    Raises ValueError when the window is over lucas_engine.SCAN_BUDGET, and
    RuntimeError naming any witness, which the cited theorem rules out.

    Cached itself, as its checks read only its arguments and SCAN_BUDGET, a
    constant: every solve shares one read-only verdict per (n_max, z_max).
    """
    if n_max < 3 or z_max < 1:
        raise ValueError(f"need n_max >= 3 and z_max >= 1, got {n_max}, {z_max}")
    scan = generalized_scan(19, 76, 3, n_max, 19 * z_max)
    witnesses = tuple((x // 19, y, n) for x, y, n in scan)
    if witnesses:
        raise RuntimeError(f"19*Z^2 + 1 = 4*Y^n holds at (Z, Y, n) in {witnesses}")
    limit = 19 * z_max * z_max + 1
    n_top = min(n_max, (limit // 4).bit_length() - 1)  # above it only Y = 1 fits
    checked = sum(iroot(limit // 4, n) for n in range(3, n_top + 1)) + n_max - n_top
    check = {
        "check": "exhaustive_scan",
        "n_min": 3,
        "n_max": n_max,
        "z_max": z_max,
        "candidates_checked": checked,
        "witnesses": witnesses,
    }
    return CaseVerdict(
        OUTCOME_CONTRADICTION,
        reason=f"19*Z^2 + 1 = 4*Y^n has no solution with odd Z <= {z_max}, "
        f"3 <= n <= {n_max} (unbounded claim cited, not reproved)",
        trace=(MappingProxyType(check),),
    )
