import math

import pytest
from hypothesis import given, settings, strategies as st

from ln_kit.equation_model import LNInstance, is_solution
from ln_kit import oracle
from ln_kit.oracle import (
    SCAN_BUDGET,
    WALK_PER_Y,
    SearchWindow,
    _divisor_window,
    _size,
    _y_step,
    _y_window,
    brute_force,
    generalized_scan,
    iroot,
    perfect_root,
)


def naive_scan(D, lam, n_min, n_max, x_max):
    """Reference: every y from 1 up, no skipping, triples in (n, y) order."""
    out = []
    for n in range(n_min, n_max + 1):
        y = 1
        while lam * y**n <= x_max * x_max + D:
            c = lam * y**n - D
            if c > 0 and math.isqrt(c) ** 2 == c:
                out.append((math.isqrt(c), y, n))
            y += 1
    return out


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


@given(
    st.one_of(
        st.tuples(st.integers(0, 10**40), st.integers(1, 12)),
        # thousands of bits, as the y-window bounds of a large k (n up to 30)
        st.tuples(st.integers(0, 2**4000), st.integers(1, 40)),
    )
)
def test_iroot_brackets(vm):
    v, m = vm
    r = iroot(v, m)
    assert r**m <= v < (r + 1) ** m


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


@pytest.mark.parametrize("k", [0, 1, 2])
def test_brute_force_matches_naive_scan(k):
    window = SearchWindow(k=k, n_min=2, n_max=30, x_max=10**5)
    sols = [s.as_tuple() for s in brute_force(window)]
    assert sols == naive_scan(LNInstance(k).D, 4, 2, 30, 10**5)


def test_generalized_scan_matches_naive_scan_on_a_grid():
    for D in range(1, 40):
        for lam in (1, 2, 3, 4, 5, 8, 12, 76):
            assert generalized_scan(D, lam, 2, 9, 400) == naive_scan(D, lam, 2, 9, 400)


def test_scan_past_the_last_y2_exponent_matches_naive_scan():
    # only y = 1 fits once lam * 2^n > x_max^2 + D; lam = D + r^2 makes it a
    # solution for every such n
    for D in range(1, 40):
        for lam in (1, 4, 5, 76, D + 1, D + 4, D + 25):
            assert generalized_scan(D, lam, 2, 40, 20) == naive_scan(D, lam, 2, 40, 20)


def test_y1_triples_above_the_cutoff_come_in_one_step():
    # lam - D = 2^2, and at x_max = 3 no y >= 2 fits for any n >= 2
    n_max = 10**5
    triples = [(2, 1, n) for n in range(2, n_max + 1)]
    assert generalized_scan(1, 5, 2, n_max, 3) == triples
    assert iroot(3**100, 10**9) == 1


def test_divisor_walk_matches_naive_scan():
    # square lambda, so even n may take the walk; x_max spans the crossover
    paths = set()
    for D in list(range(1, 201)) + [945, 3465, 45045]:
        for lam in (1, 4, 9, 16, 25, 36):
            for x_max in (3, 40, 500):
                assert generalized_scan(D, lam, 2, 9, x_max) == naive_scan(
                    D, lam, 2, 9, x_max
                )
                ds = _divisor_window(D, x_max)
                for n in range(2, 10, 2):
                    ys = _y_window(D, lam, n, x_max * x_max + D)
                    paths.add(_size(ds) < WALK_PER_Y * _size(ys))
    assert paths == {True, False}


@pytest.mark.parametrize(
    "D, lam, x_max",
    [(720720, 1, 1000), (720720, 4, 1000), (255255, 4, 300), (45045, 9, 300)],
)
def test_walk_runs_where_it_costs_less_but_has_more_candidates(
    D, lam, x_max, monkeypatch
):
    # at n = 2 the walk has more candidates than the y-scan, but fewer than
    # WALK_PER_Y times as many, so the cost rule picks it
    ds = _divisor_window(D, x_max)
    ys = _y_window(D, lam, 2, x_max * x_max + D)
    assert _size(ys) <= _size(ds) < WALK_PER_Y * _size(ys)
    walks = []
    square_pairs = oracle._square_pairs

    def spy(*args):
        walks.append(args)
        return square_pairs(*args)

    monkeypatch.setattr(oracle, "_square_pairs", spy)
    got = generalized_scan(D, lam, 2, 9, x_max)
    assert len(walks) == 1
    assert got == naive_scan(D, lam, 2, 9, x_max)
    assert any(n == 2 for _, _, n in got)


def test_scan_budget_refuses_before_scanning():
    # about 7*10^11 values of y at n = 2: refused, not scanned
    with pytest.raises(ValueError, match="scan budget"):
        generalized_scan(7, 2, 2, 2, 10**12)
    # every n counts, even one with an empty window
    with pytest.raises(ValueError, match="scan budget"):
        generalized_scan(7, 1, 2, SCAN_BUDGET + 2, 10)
    # lam = 1 is a square: the walk tries the two odd d <= sqrt(7)
    assert generalized_scan(7, 1, 2, 2, 10**12) == [(3, 4, 2)]


def test_scan_skips_even_y_only_where_no_square_is_possible():
    # the main equation (D = 19^(2k+1) = 3 mod 8, lam = 4) scans odd y only
    for k in range(4):
        assert {_y_step(LNInstance(k).D, 4, n) for n in range(2, 31)} == {2}
    # D = 7, lam = 1 keeps every y: 1^2 + 7 = 2^3 has y even
    assert {_y_step(7, 1, n) for n in range(2, 16)} == {1}
    assert (1, 2, 3) in generalized_scan(7, 1, 3, 3, 10)


def test_generalized_scan_requires_n_min_2():
    with pytest.raises(ValueError):
        generalized_scan(7, 1, 1, 1, 10**7)


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
