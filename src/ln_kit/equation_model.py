"""Equation instances, verified solutions, and the explicit solution families."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, ClassVar


class FamilyKind(str, Enum):
    N1 = "n1"  # n = 1 parametric family, one member per t >= 0 (infinite)
    N2 = "n2"  # n = 2 family scaled by 19^t, 0 <= t <= k
    N7 = "n7"  # exceptional n = 7 family, present only when k = 7m


class FamilyConstraintError(ValueError):
    """A FamilySpec violates its parameter constraints for the given instance."""


@dataclass(frozen=True)
class LNInstance:
    """The equation x^2 + 19^(2k+1) = 4*y^n for one fixed k >= 0."""

    k: int

    LAMBDA: ClassVar[int] = 4

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be non-negative, got {self.k}")

    @property
    def D(self) -> int:
        """The odd constant 19^(2k+1); always congruent to 3 mod 4."""
        return 19 ** (2 * self.k + 1)


@dataclass(frozen=True)
class Solution:
    """A positive triple (x, y, n); x and y odd (forced by the equation mod 8)."""

    x: int
    y: int
    n: int

    def __post_init__(self) -> None:
        if self.x <= 0 or self.y <= 0 or self.n < 1:
            raise ValueError(f"solution entries must be positive: {self}")
        if self.x % 2 == 0 or self.y % 2 == 0:
            raise ValueError(f"x and y must be odd: {self}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.n)

    def to_jsonable(self) -> dict[str, Any]:
        # decimal strings: x and y overflow a JSON consumer's doubles
        return {"x": str(self.x), "y": str(self.y), "n": self.n}

    @property
    def sort_key(self) -> tuple[int, int, int]:
        # canonical output order: ascending (n, y)
        return (self.n, self.y, self.x)


@dataclass(frozen=True)
class FamilySpec:
    """One member of a solution family: kind plus its parameter (t or m)."""

    kind: FamilyKind
    param: int

    def __post_init__(self) -> None:
        if self.param < 0:
            raise ValueError(f"family parameter must be non-negative, got {self.param}")

    @classmethod
    def n1(cls, t: int) -> FamilySpec:
        return cls(FamilyKind.N1, t)

    @classmethod
    def n2(cls, t: int) -> FamilySpec:
        return cls(FamilyKind.N2, t)

    @classmethod
    def n7(cls, m: int) -> FamilySpec:
        return cls(FamilyKind.N7, m)


def is_solution(inst: LNInstance, x: int, y: int, n: int) -> bool:
    """True iff x^2 + 19^(2k+1) = 4*y^n holds exactly for positive x, y, n."""
    if x <= 0 or y <= 0 or n < 1:
        return False
    return x * x + inst.D == 4 * y**n


def instantiate_family(inst: LNInstance, spec: FamilySpec) -> Solution:
    """Materialize one family member; rejects parameter/instance mismatches.

    n1(t): (2t+1, t^2 + t + (1+D)/4, 1)
    n2(t): (19^t*(19^(2(k-t)+1)-1)/2, 19^t*(19^(2(k-t)+1)+1)/4, 2), t <= k
    n7(m): (559*19^(7m), 5*19^(2m), 7), k = 7m
    """
    k, t = inst.k, spec.param
    if spec.kind is FamilyKind.N1:
        sol = Solution(2 * t + 1, t * t + t + (1 + inst.D) // 4, 1)
    elif spec.kind is FamilyKind.N2:
        if t > k:
            raise FamilyConstraintError(
                f"n2 family requires t <= k: got t={t}, k={k} "
                f"(the scaling 19^t exhausts the 19-adic budget of the instance)"
            )
        e = 2 * (k - t) + 1
        sol = Solution(19**t * (19**e - 1) // 2, 19**t * (19**e + 1) // 4, 2)
    elif spec.kind is FamilyKind.N7:
        if k != 7 * t:
            raise FamilyConstraintError(
                f"n7 family exists only for k = 7m: got k={k}, m={t}"
            )
        sol = Solution(559 * 19 ** (7 * t), 5 * 19 ** (2 * t), 7)
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown family kind {spec.kind!r}")
    assert is_solution(inst, *sol.as_tuple()), f"family member failed recheck: {sol}"
    return sol


def theorem_solution_set(inst: LNInstance, n_max: int) -> list[Solution]:
    """Every admitted solution with 2 <= n <= n_max, sorted by (n, y).

    Yields the n2 member for each t in [0, k] and the n7 member
    when 7 | k and 7 <= n_max.  The infinite n = 1 family is excluded;
    completeness of this list is the theorem's claim, checked independently
    by the oracle module.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    sols = [instantiate_family(inst, FamilySpec.n2(t)) for t in range(inst.k + 1)]
    if inst.k % 7 == 0 and n_max >= 7:
        sols.append(instantiate_family(inst, FamilySpec.n7(inst.k // 7)))
    sols.sort(key=lambda s: s.sort_key)
    return sols
