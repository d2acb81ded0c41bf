import pytest
from hypothesis import given, settings, strategies as st

from ln_kit.equation_model import LNInstance, is_solution
from ln_kit.oracle import SearchWindow, brute_force, generalized_scan, perfect_root


@pytest.mark.parametrize(
    "v, m, r",
    [(78125, 7, 5), (5, 2, None), (1, 9, 1), (2**60, 12, 32), (6859, 3, 19)],
)
def test_perfect_root_examples(v, m, r):
    assert perfect_root(v, m) == r


@given(st.integers(1, 10**6), st.integers(2, 12))
def test_perfect_root_roundtrip(r, m):
    assert perfect_root(r**m, m) == r


@settings(max_examples=200)
@given(st.integers(2, 10**6), st.integers(2, 12))
def test_perfect_root_near_misses(r, m):
    assert perfect_root(r**m - 1, m) is None
    assert perfect_root(r**m + 1, m) is None


def test_window_validation():
    with pytest.raises(ValueError):
        SearchWindow(k=0, n_min=1)
    with pytest.raises(ValueError):
        SearchWindow(k=0, n_min=5, n_max=4)
    with pytest.raises(ValueError):
        SearchWindow(k=-1)


def test_brute_force_k0():
    sols = brute_force(SearchWindow(k=0, n_min=2, n_max=30, x_max=10**4))
    assert [s.as_tuple() for s in sols] == [(9, 5, 2), (559, 5, 7)]


def test_brute_force_k1():
    sols = brute_force(SearchWindow(k=1, n_min=2, n_max=30, x_max=10**4))
    assert [s.as_tuple() for s in sols] == [(171, 95, 2), (3429, 1715, 2)]


def test_brute_force_high_n_range_empty():
    assert brute_force(SearchWindow(k=0, n_min=8, n_max=30, x_max=10**4)) == []


def test_brute_force_emits_verified_sorted():
    window = SearchWindow(k=2, n_min=2, n_max=10, x_max=10**4)
    sols = brute_force(window)
    inst = LNInstance(2)
    keys = [(s.n, s.y) for s in sols]
    assert keys == sorted(keys)
    for s in sols:
        assert is_solution(inst, *s.as_tuple())


def test_brute_force_monotone_in_bounds():
    small = set(brute_force(SearchWindow(k=0, n_min=2, n_max=10, x_max=600)))
    large = set(brute_force(SearchWindow(k=0, n_min=2, n_max=30, x_max=10**4)))
    assert small <= large


def test_generalized_scan_lebesgue_case():
    assert generalized_scan(1, 1, 3, 12, 10**3) == []


def test_generalized_scan_fermat_case():
    assert generalized_scan(2, 1, 3, 3, 100) == [(5, 3, 3)]


def test_generalized_scan_specializes_to_brute_force():
    triples = generalized_scan(19, 4, 2, 10, 10**4)
    sols = [s.as_tuple() for s in brute_force(SearchWindow(k=0, n_min=2, n_max=10, x_max=10**4))]
    assert triples == sols


def test_generalized_scan_validation():
    with pytest.raises(ValueError):
        generalized_scan(0, 1, 2, 5, 100)
    with pytest.raises(ValueError):
        generalized_scan(1, 1, 2, 1, 100)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_oracle_theorem_equivalence_full_window(k):
    # the central property: exhaustive scan and claimed families coincide
    from ln_kit.equation_model import theorem_solution_set

    window = SearchWindow(k=k, n_min=2, n_max=30, x_max=10**7)
    claimed = [
        s for s in theorem_solution_set(LNInstance(k), 30) if s.x <= window.x_max
    ]
    assert brute_force(window) == claimed
