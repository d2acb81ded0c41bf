"""Equation instances, verified solutions, and the explicit solution families."""

from __future__ import annotations

import math
from types import MappingProxyType

from .lucas_engine import Frozen, check_digits


class LNInstance(Frozen):
    """The equation x^2 + 19^(2k+1) = 4*y^n for one fixed k >= 0."""

    __slots__, __match_args__ = (), ("k",)
    LAMBDA = 4

    def __new__(cls, k: int) -> LNInstance:
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        return tuple.__new__(cls, (k,))

    @property
    def D(self) -> int:
        """The odd constant 19^(2k+1); always congruent to 3 mod 4."""
        return 19 ** (2 * self.k + 1)


def check_D_digits(k: int) -> None:
    """Refuse, before any work, a k whose D = 19^(2k+1) is over check_digits:
    solve on its k, and each procedure that builds a power of 19 from its k."""
    check_digits("19^(2k+1)", 2 * k + 1, math.log10(19))


JSON_INT_LIMIT = 2**53


def json_safe(v: object) -> object:
    """The JSON form of v, the package's one encoder of nested values.

    Every integer of magnitude 2^53 or more becomes a decimal string, which
    a JSON consumer could otherwise overflow on; bool is not int here and
    stays a bool.  A list or tuple comes back as a new list, and a dict or
    a read-only MappingProxyType as a new dict in the same key order, their
    items encoded in turn, so the result shares no container with v.  An
    object with to_jsonable (a Solution, a verdict, a route) encodes
    itself; anything else, a subclass of these too, comes back as it is."""
    t = type(v)
    if t is int:
        return v if -JSON_INT_LIMIT < v < JSON_INT_LIMIT else str(v)
    if t is str:
        return v
    if t is dict or t is MappingProxyType:
        return {k: json_safe(x) for k, x in v.items()}
    if t is list or t is tuple:
        return [json_safe(x) for x in v]
    to_jsonable = getattr(v, "to_jsonable", None)
    return v if to_jsonable is None else to_jsonable()


class Solution(Frozen):
    """A positive triple (x, y, n); x and y odd (forced by the equation mod 8)."""

    __slots__, __match_args__ = (), ("x", "y", "n")

    def __new__(cls, x: int, y: int, n: int) -> Solution:
        sol = tuple.__new__(cls, (x, y, n))
        if x <= 0 or y <= 0 or n < 1:
            raise ValueError(f"solution entries must be positive: {sol}")
        if x % 2 == 0 or y % 2 == 0:
            raise ValueError(f"x and y must be odd: {sol}")
        return sol

    def as_tuple(self) -> tuple[int, int, int]:
        return tuple(self)

    def to_jsonable(self) -> dict[str, object]:
        # decimal strings: x and y overflow a JSON consumer's doubles
        return {"x": str(self.x), "y": str(self.y), "n": self.n}

    @property
    def sort_key(self) -> tuple[int, int, int]:
        # canonical output order: ascending (n, y)
        return (self.n, self.y, self.x)


def is_solution(inst: LNInstance, x: int, y: int, n: int) -> bool:
    """True iff x^2 + 19^(2k+1) = 4*y^n holds exactly for positive x, y, n."""
    if x <= 0 or y <= 0 or n < 1:
        return False
    return x * x + inst.D == 4 * y**n


def instantiate_family(inst: LNInstance, kind: str, param: int) -> Solution:
    """The member of family kind ("n1", "n2" or "n7") at param, t or m.

    n1(t): (2t+1, t^2 + t + (1+D)/4, 1), the infinite n = 1 family
    n2(t): (19^t*(19^(2(k-t)+1)-1)/2, 19^t*(19^(2(k-t)+1)+1)/4, 2), t <= k
    n7(m): (559*19^(7m), 5*19^(2m), 7), k = 7m

    Raises ValueError for a negative param, t > k for n2, k != 7m for n7
    and any other kind, and, before the member is built, when its longest
    value (y for n1, x for n2 and n7) is over check_digits.
    """
    k, t = inst.k, param
    if t < 0:
        raise ValueError(f"family parameter must be non-negative, got {t}")
    log19 = math.log10(19)
    if kind == "n1":
        # y = t^2 + t + (1+D)/4 is about as long as its longer term
        check_D_digits(k)
        check_digits("y", 2, math.log10(t + 1))
        sol = Solution(2 * t + 1, t * t + t + (1 + inst.D) // 4, 1)
    elif kind == "n2":
        if t > k:
            raise ValueError(
                f"n2 family requires t <= k: got t={t}, k={k} "
                f"(the scaling 19^t exhausts the 19-adic budget of the instance)"
            )
        check_digits("x", 2 * k - t + 1, log19)
        e = 2 * (k - t) + 1
        sol = Solution(19**t * (19**e - 1) // 2, 19**t * (19**e + 1) // 4, 2)
    elif kind == "n7":
        if k != 7 * t:
            raise ValueError(f"n7 family exists only for k = 7m: got k={k}, m={t}")
        check_digits("x", 7 * t, log19, math.log10(559))
        sol = Solution(559 * 19 ** (7 * t), 5 * 19 ** (2 * t), 7)
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    assert is_solution(inst, *sol.as_tuple()), f"family member failed recheck: {sol}"
    return sol


def theorem_solution_set(inst: LNInstance, n_max: int) -> list[Solution]:
    """Every admitted solution with 2 <= n <= n_max, sorted by (n, y).

    Yields the n2 member for each t in [0, k] and the n7 member
    when 7 | k and 7 <= n_max.  The infinite n = 1 family is excluded;
    completeness of this list is the theorem's claim, checked independently
    by the oracle module.  n2(0), built first, has the longest x for k >= 1,
    so a set too long to write is refused before any member is built.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    sols = [instantiate_family(inst, "n2", t) for t in range(inst.k + 1)]
    if inst.k % 7 == 0 and n_max >= 7:
        sols.append(instantiate_family(inst, "n7", inst.k // 7))
    sols.sort(key=lambda s: s.sort_key)
    return sols
