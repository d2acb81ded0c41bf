import pytest
from hypothesis import given, strategies as st

from ln_kit.equation_model import (
    LNInstance,
    Solution,
    check_D_digits,
    instantiate_family,
    is_solution,
    theorem_solution_set,
)
from ln_kit.lucas_engine import check_digits


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
    # (-9)^2 + 19 = 4*5^2: only the sign check refuses it
    assert is_solution(LNInstance(0), -9, 5, 2) is False


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


@pytest.mark.parametrize(
    "build, digits",
    [
        # x = 559 * 19^7000 and x = (19^6001 - 1)/2 are too long to write
        (lambda: instantiate_family(LNInstance(7000), "n7", 1000), 8955),
        (lambda: theorem_solution_set(LNInstance(3000), 30), 7674),
    ],
    ids=["n7", "theorem_set"],
)
def test_families_refuse_past_the_digit_limit_before_any_member(
    monkeypatch, build, digits
):
    import ln_kit.equation_model as model

    def no_member(*args):
        raise AssertionError("a member was built")

    monkeypatch.setattr(model, "Solution", no_member)
    with pytest.raises(ValueError, match=f"x would have about {digits} digits.*limit"):
        build()


K_PAST_A_FLOAT = 7 * 10**400  # 2k+1 overflows a float


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_D_digits(K_PAST_A_FLOAT),
        lambda: instantiate_family(LNInstance(K_PAST_A_FLOAT), "n1", 0),
        lambda: instantiate_family(LNInstance(K_PAST_A_FLOAT), "n2", 0),
        lambda: instantiate_family(LNInstance(K_PAST_A_FLOAT), "n7", 10**400),
    ],
    ids=["D", "n1", "n2", "n7"],
)
def test_a_k_past_a_float_is_refused_in_the_limits_words(build):
    with pytest.raises(ValueError, match=r"about \d+ digits, over the 4300-digit limit"):
        build()


def test_a_digit_count_too_long_to_write_is_refused_by_its_power_of_two():
    # k = 10^4300 - 1 has 4,300 digits, the most the limit lets a str hold,
    # and n2(0)'s x about 2.6 * 10^4300 digits: a count of 4,301 digits
    k = 10**4300 - 1
    with pytest.raises(
        ValueError, match=r"^x would have over 2\^14285 digits, over the 4300-digit limit"
    ):
        instantiate_family(LNInstance(k), "n2", 0)
    # a count of 4,300 digits is written in decimal, one of 4,301 is not
    with pytest.raises(ValueError, match=r"^v would have about 10{4298}1 digits, over"):
        check_digits("v", 10**4299, 1.0)
    with pytest.raises(ValueError, match=r"^v would have over 2\^14284 digits, over"):
        check_digits("v", 10**4300, 1.0)


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
        Solution(-9, 5, 2)  # odd, and (-9)^2 + 19 = 4*5^2
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
