"""Executable congruence casework: every step carries a machine-checkable trace.

Each procedure returns a CaseVerdict whose trace records the moduli used and
the residues enumerated, so a verdict can be replayed and compared bit-for-bit
instead of being trusted as a bare boolean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any

from .equation_model import Solution, check_D_digits, json_safe
from .lucas_engine import is_probable_prime
from .oracle import check_budget, generalized_scan, iroot, perfect_root

OUTCOME_CONTRADICTION = "contradiction"
OUTCOME_FORCED = "forced"
OUTCOME_REDUCED = "reduced"
OUTCOME_SOLUTIONS = "solutions"


@dataclass(frozen=True, slots=True)
class CaseVerdict:
    """Outcome of one proof step plus the congruence trace that supports it."""

    outcome: str
    reason: str = ""
    assignments: tuple[tuple[str, int], ...] = ()
    reduced_k: int | None = None
    constraints: tuple[str, ...] = ()
    solutions: tuple[Solution, ...] = ()
    trace: tuple[dict[str, Any], ...] = ()

    @classmethod
    def contradiction(cls, reason: str, trace=()) -> CaseVerdict:
        return cls(OUTCOME_CONTRADICTION, reason=reason, trace=tuple(trace))

    @classmethod
    def forced(cls, assignments, reason: str = "", trace=()) -> CaseVerdict:
        return cls(
            OUTCOME_FORCED,
            reason=reason,
            assignments=tuple(assignments),
            trace=tuple(trace),
        )

    @classmethod
    def reduced(cls, k: int, constraints, trace=()) -> CaseVerdict:
        return cls(
            OUTCOME_REDUCED,
            reduced_k=k,
            constraints=tuple(constraints),
            trace=tuple(trace),
        )

    @classmethod
    def found(cls, solutions, trace=()) -> CaseVerdict:
        return cls(OUTCOME_SOLUTIONS, solutions=tuple(solutions), trace=tuple(trace))

    def to_jsonable(self) -> dict[str, Any]:
        """Each field that is set, in declaration order, through json_safe;
        reduced_k = 0 is set, "", () and None are not."""
        return {
            name: json_safe(v)
            for name in self.__slots__
            if (v := getattr(self, name)) is not None and v != "" and v != ()
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
    D = 19 ** (2 * k + 1)
    x = (D - 1) // 2
    ym = (D + 1) // 4
    root = ym if m == 1 else perfect_root(ym, m)
    trace = (
        {
            "check": "coprime_factor_split",
            "small_factor": 1,
            "large_factor": D,
            "x": x,
            "y_power": ym,
        },
        # subtracting the split equations mod 3 forces x; m odd follows
        {"check": "mod3", "x_mod_3": x % 3, "y_power_mod_3": ym % 3},
        {"check": "perfect_power", "value": ym, "m": m, "root": root},
    )
    if root is None:
        return CaseVerdict.contradiction(
            f"(19^(2k+1)+1)/4 = {ym} is not a perfect {m}-th power", trace
        )
    return CaseVerdict.found([Solution(x, root, 2 * m)], trace)


# Distinct p that mod19_forces_p keeps a verdict for; a replayed trace may
# name any number of them, so the cache is bounded.
MOD19_P_CACHE_SIZE = 256


def mod19_forces_p(k: int, t: int, p: int) -> CaseVerdict:
    """When 19 still divides the reduced left side (t < k), the surviving
    term mod 19 is p*a^(p-1); with 19 coprime to a that forces p = 19.

    The checks on k, t and p run on every call.  The verdict depends on p
    alone, so one verdict per p is shared by every (k, t); it is immutable
    throughout (its trace entry is read-only and its residues a tuple), so
    no caller can edit what another step recorded."""
    if not 0 <= t < k:
        raise ValueError(f"requires 0 <= t < k, got t={t}, k={k}")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be odd and at least 3, got {p}")
    return _mod19_verdict(p)


@functools.lru_cache(maxsize=MOD19_P_CACHE_SIZE)
def _mod19_verdict(p: int) -> CaseVerdict:
    """mod19_forces_p's verdict for p, built once per p while it is cached."""
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
        return CaseVerdict.contradiction(
            f"p*a^(p-1) is never 0 mod 19 for a in 1..18, so p = {p} is impossible "
            f"while 19 divides the left side",
            trace,
        )
    return CaseVerdict.forced([("p", 19)], trace=trace)


def mod19_forces_kt(k: int, t: int) -> CaseVerdict:
    """After p = 19 is forced, dividing once by 19 and reading mod 19 again
    pins k - t = 1 (and the positive sign)."""
    if not 0 <= t < k:
        raise ValueError(f"requires 0 <= t < k, got t={t}, k={k}")
    trace = ({"check": "mod19_after_division", "k": k, "t": t, "k_minus_t": k - t},)
    if k - t != 1:
        return CaseVerdict.contradiction(
            f"dividing by 19 forces k - t = 1, but k - t = {k - t}", trace
        )
    return CaseVerdict.forced([("k_minus_t", 1), ("sign", 1)], trace=trace)


def mod_pow2_insoluble(p: int, t: int) -> CaseVerdict:
    """Insolubility of a^2 = 19^(2t) * (2 + 2^(s-1)) mod 2^(s+1) for odd a,
    where p = 3 + 2^s * m with s >= 2 and m odd.  Exhausts all odd residues.

    t is the 19-adic valuation of b; t = 0 is the b = +-1 route, which meets
    the same congruence with the 19^(2t) factor collapsed to 1.  Raises
    ValueError before the enumeration when its 2^s residues are over the
    scan budget (oracle.check_budget).
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if p <= 3 or p % 4 != 3 or not is_probable_prime(p):
        raise ValueError(f"p must be a prime congruent to 3 mod 4 and > 3, got {p}")
    s = ((p - 3) & -(p - 3)).bit_length() - 1
    m = (p - 3) >> s
    modulus = 1 << (s + 1)
    check_budget(f"mod_pow2_insoluble(p={p})", modulus // 2)
    target = pow(19, 2 * t, modulus) * (2 + (1 << (s - 1))) % modulus
    odd_residues = range(1, modulus, 2)
    squares = sorted({a * a % modulus for a in odd_residues})
    solutions = [a for a in odd_residues if a * a % modulus == target]
    trace = (
        {
            "check": "odd_squares_exhaustive",
            "modulus": modulus,
            "s": s,
            "m": m,
            "target": target,
            "odd_residues_checked": len(odd_residues),
            "square_residues": squares,
            "solutions": solutions,
        },
    )
    if not solutions:
        return CaseVerdict.contradiction(
            f"a^2 = {target} (mod {modulus}) has no odd solution "
            f"(odd squares mod {modulus} are {squares})",
            trace,
        )
    return CaseVerdict.forced(
        [(f"a_mod_{modulus}", a) for a in solutions],
        reason="congruence is soluble; no contradiction from this sieve",
        trace=trace,
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


def p3_case(k: int, search_bound: int) -> CaseVerdict:
    """n = 3 with 19 not dividing x is impossible, shown two independent ways.

    Residue path: 4*19^k = 3a^2 b - 19 b^3 read mod 3 forces b = 2 (mod 3);
    substituting b = 3r + 2 and reading mod 9 leaves a^2 = 2 (mod 3), which
    no square satisfies.  Exhaustive path: no odd |a|, |b| <= search_bound
    satisfy the cubic identity at all.  The box is decided one b at a time
    (a^2 is fixed by b), exactly and without residues; candidates_checked
    still counts every (a, b) pair in it.  Raises ValueError before the
    search when its values of b are over the scan budget (oracle.check_budget),
    and before 4*19^k is built when check_D_digits refuses k.
    """
    if k < 0 or search_bound < 1:
        raise ValueError(f"need k >= 0 and search_bound >= 1, got {k}, {search_bound}")
    check_D_digits(k)
    odd = (search_bound + 1) // 2  # the odd b in [1, search_bound]
    check_budget(f"p3_case(search_bound={search_bound})", 2 * odd)
    target = 4 * 19**k
    # mod 3: RHS = -b^3 = -b, LHS = 1
    b_mod3 = [b for b in range(3) if (3 * b - 19 * b**3) % 3 == target % 3]
    # b = 3r + 2, mod 9: 6a^2 - 8 = 4; dividing the reduced congruence by 3
    # and inverting 2 leaves a^2 = 2 (mod 3)
    squares_mod3 = sorted({a * a % 3 for a in range(3)})
    forced_square = 2 * ((target % 9 + 8) // 3) % 3
    a_mod3 = [a for a in range(3) if (6 * a * a - 8) % 9 == target % 9]
    witnesses = _cubic_witnesses(target, search_bound)  # a > 0: it enters squared
    candidates = odd * 2 * odd
    trace = (
        {"check": "mod3_forces_b", "lhs_mod_3": target % 3, "b_mod_3": b_mod3},
        {
            "check": "mod9_reduction",
            "lhs_mod_9": target % 9,
            "a_square_forced_mod_3": forced_square,
            "a_mod_3_solutions": a_mod3,
            "squares_mod_3": squares_mod3,
        },
        {
            "check": "exhaustive_search",
            "bound": search_bound,
            "candidates_checked": candidates,
            "witnesses": [list(w) for w in witnesses],
        },
    )
    if witnesses or a_mod3:
        raise RuntimeError(
            f"residue argument and exhaustive search disagree for k={k}: "
            f"witnesses={witnesses}, a_mod3={a_mod3}"
        )
    return CaseVerdict.contradiction(
        "3a^2*b - 19b^3 = 4*19^k forces b = 2 (mod 3) and then a^2 = 2 (mod 3), "
        "which is not a quadratic residue; exhaustive scan found no witness",
        trace,
    )


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
    trace = (base, {"check": "mod19_forcing", "forced": forced, "holds": holds})
    if not holds:
        return CaseVerdict.contradiction(failure, trace)
    if mn == odd_e:
        return CaseVerdict.contradiction(
            "reduces to 19*Z^2 + 1 = 4*Y^n, which has no solutions "
            "(bounded scan in no_19z2_solutions; unbounded statement cited)",
            trace,
        )
    return CaseVerdict.reduced(k - s, (f"t*n == 2*s == {two_s}",), trace)


def no_19z2_solutions(n_max: int, z_max: int) -> CaseVerdict:
    """Bounded verification that 19*Z^2 + 1 = 4*Y^n has no solutions with odd
    Z <= z_max and 3 <= n <= n_max.  The unbounded statement is cited, not
    reproved; this scan guards the reduction that relies on it.

    Times 19 the equation reads (19Z)^2 + 19 = 76*Y^n, so the oracle's scan
    of x^2 + 19 = 76*y^n over x <= 19*z_max decides it.  Every x it finds is
    odd and divisible by 19 (x^2 = 19*(4y^n - 1)), so Z = x/19 is odd.
    candidates_checked counts every Y >= 1 with 4*Y^n <= 19*z_max^2 + 1.
    Raises ValueError when the window is over the oracle's SCAN_BUDGET.
    """
    if n_max < 3 or z_max < 1:
        raise ValueError(f"need n_max >= 3 and z_max >= 1, got {n_max}, {z_max}")
    scan = generalized_scan(19, 76, 3, n_max, 19 * z_max)
    witnesses = [(x // 19, y, n) for x, y, n in scan]
    limit = 19 * z_max * z_max + 1
    n_top = min(n_max, (limit // 4).bit_length() - 1)  # above it only Y = 1 fits
    checked = sum(iroot(limit // 4, n) for n in range(3, n_top + 1)) + n_max - n_top
    trace = (
        {
            "check": "exhaustive_scan",
            "n_min": 3,
            "n_max": n_max,
            "z_max": z_max,
            "candidates_checked": checked,
            "witnesses": [list(w) for w in witnesses],
        },
    )
    if witnesses:
        return CaseVerdict.forced(
            [("witness_count", len(witnesses))],
            reason="scan found witnesses; the cited insolubility would be violated",
            trace=trace,
        )
    return CaseVerdict.contradiction(
        f"19*Z^2 + 1 = 4*Y^n has no solution with odd Z <= {z_max}, "
        f"3 <= n <= {n_max} (unbounded claim cited, not reproved)",
        trace,
    )
