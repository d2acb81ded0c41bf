import pytest
from hypothesis import given, strategies as st

from ln_kit.equation_model import (
    LNInstance,
    Solution,
    instantiate_family,
    is_solution,
    theorem_solution_set,
)


def test_instance_invariants():
    for k in range(6):
        inst = LNInstance(k)
        assert inst.D == 19 ** (2 * k + 1)
        assert inst.D % 4 == 3
        assert inst.D % 2 == 1
    assert LNInstance.LAMBDA == 4
    with pytest.raises(ValueError):
        LNInstance(-1)


@pytest.mark.parametrize(
    "k, x, y, n, expected",
    [
        (0, 559, 5, 7, True),
        (0, 1, 5, 1, True),
        (0, 559, 5, 6, False),
        (1, 171, 95, 2, True),
        (1, 171, 95, 3, False),
    ],
)
def test_is_solution_examples(k, x, y, n, expected):
    assert is_solution(LNInstance(k), x, y, n) is expected


def test_is_solution_rejects_nonpositive():
    assert not is_solution(LNInstance(0), 0, 5, 1)
    assert not is_solution(LNInstance(0), 9, 5, 0)


@pytest.mark.parametrize(
    "k, spec, expected",
    [
        (0, ("n2", 0), (9, 5, 2)),
        (1, ("n2", 1), (171, 95, 2)),
        (1, ("n2", 0), (3429, 1715, 2)),
        (0, ("n7", 0), (559, 5, 7)),
        (0, ("n1", 0), (1, 5, 1)),
        (0, ("n1", 1), (3, 7, 1)),
        (1, ("n1", 0), (1, 1715, 1)),
    ],
)
def test_instantiate_family_examples(k, spec, expected):
    assert instantiate_family(LNInstance(k), *spec).as_tuple() == expected


def test_family_constraints_rejected():
    with pytest.raises(ValueError, match="t <= k"):
        instantiate_family(LNInstance(0), "n2", 1)
    with pytest.raises(ValueError, match="k = 7m"):
        instantiate_family(LNInstance(3), "n7", 1)
    with pytest.raises(ValueError, match="non-negative"):
        instantiate_family(LNInstance(0), "n2", -1)
    with pytest.raises(ValueError, match="unknown family kind"):
        instantiate_family(LNInstance(0), "n3", 0)


def test_theorem_solution_set_k0():
    sols = {s.as_tuple() for s in theorem_solution_set(LNInstance(0), 30)}
    assert sols == {(9, 5, 2), (559, 5, 7)}


def test_theorem_solution_set_k1():
    sols = {s.as_tuple() for s in theorem_solution_set(LNInstance(1), 30)}
    assert sols == {(171, 95, 2), (3429, 1715, 2)}


def test_theorem_solution_set_k2_small_nmax():
    sols = theorem_solution_set(LNInstance(2), 6)
    assert [s.n for s in sols] == [2, 2, 2]
    assert all(s.n != 7 for s in sols)


def test_theorem_solution_set_sorted_by_n_then_y():
    sols = theorem_solution_set(LNInstance(7), 30)
    keys = [(s.n, s.y) for s in sols]
    assert keys == sorted(keys)
    assert sols[-1].n == 7  # n = 7 member present exactly when 7 | k


def test_theorem_solution_set_rejects_n_max_below_2():
    with pytest.raises(ValueError):
        theorem_solution_set(LNInstance(0), 1)


def test_family_closure_all_k_up_to_8():
    for k in range(9):
        inst = LNInstance(k)
        for t in range(k + 1):
            assert is_solution(inst, *instantiate_family(inst, "n2", t).as_tuple())
        for t in range(4):
            assert is_solution(inst, *instantiate_family(inst, "n1", t).as_tuple())
        if k % 7 == 0:
            assert is_solution(inst, *instantiate_family(inst, "n7", k // 7).as_tuple())


def test_n2_t0_congruences():
    # at t = 0: x divisible by 3 and y = 2 mod 3, for every k <= 8
    for k in range(9):
        sol = instantiate_family(LNInstance(k), "n2", 0)
        assert sol.x % 3 == 0
        assert sol.y % 3 == 2


def test_solution_validation():
    with pytest.raises(ValueError):
        Solution(0, 5, 2)
    with pytest.raises(ValueError):
        Solution(2, 5, 2)  # even x
    with pytest.raises(ValueError):
        Solution(9, 4, 2)  # even y


@given(st.integers(0, 6), st.integers(0, 200))
def test_n1_family_always_solves(k, t):
    inst = LNInstance(k)
    sol = instantiate_family(inst, "n1", t)
    assert sol.x == 2 * t + 1
    assert sol.n == 1
    assert is_solution(inst, *sol.as_tuple())
