import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ln_kit.equation_model import LNInstance, is_solution
from ln_kit.lucas_engine import SCAN_BUDGET, trial_divide
from ln_kit import lucas_engine, oracle
from ln_kit.oracle import (
    WALK_PER_Y,
    SearchWindow,
    _divisor_window,
    _sieved,
    _size,
    _y_window,
    brute_force,
    generalized_scan,
    iroot,
    perfect_root,
)
from ln_kit.solver import verify_solution_completeness


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
    [(78125, 7, 5), (5, 2, None), (1, 9, 1), (2**60, 12, 32), (6859, 3, 19), (8, 1, 8)],
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
        # m in the thousands and a short root, as a large k with a large n_max
        st.tuples(st.integers(0, 2**6000), st.integers(1000, 3000)),
        # exact powers and their neighbours, short roots and long ones
        st.builds(
            lambda r, m, d: (r**m + d, m),
            st.one_of(st.integers(2, 2**20), st.integers(2**60, 2**300)),
            st.integers(2, 40),
            st.sampled_from((-1, 0, 1)),
        ),
        st.builds(
            lambda r, m, d: (r**m + d, m),
            st.integers(2, 9),
            st.integers(1000, 3000),
            st.sampled_from((-1, 0, 1)),
        ),
    )
)
def test_iroot_brackets(vm):
    v, m = vm
    r = iroot(v, m)
    assert r**m <= v < (r + 1) ** m


def iroot_by_bisection(v, m):
    """Reference: the largest r with r^m <= v, bisecting [0, 2^(bits // m + 1))."""
    lo, hi = 0, 1 << (v.bit_length() // m + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**m <= v:
            lo = mid
        else:
            hi = mid
    return lo


@given(
    st.one_of(
        # up to 2,000 bits, any length: roots short and long of every m
        st.builds(
            lambda b, u, m: (u >> 2000 - b, m),
            st.integers(0, 2000),
            st.integers(0, 2**2000),
            st.integers(2, 64),
        ),
        # r^m - 1, r^m and r^m + 1 about the 48-bit roots that still take
        # exact steps of 1, the roots up to 52 bits, whose Newton starts at
        # the root of v's top half as a longer root's does, and a double's
        # 53 bits
        st.builds(
            lambda r, m, d: (r**m + d, m),
            st.one_of(
                st.integers(2**47, 2**49),
                st.integers(2**49, 2**52),
                st.integers(2**52, 2**53),
            ),
            st.integers(2, 64),
            st.sampled_from((-1, 0, 1)),
        ),
    )
)
def test_iroot_matches_bisection(vm):
    v, m = vm
    assert iroot(v, m) == iroot_by_bisection(v, m)


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


def spy_divisors_in(monkeypatch):
    """Record what each walk's _divisors_in returns: a list, or None for the
    fallback walk over every d of the window."""
    seen = []
    divisors_in = oracle._divisors_in

    def spy(D, ds):
        seen.append(divisors_in(D, ds))
        return seen[-1]

    monkeypatch.setattr(oracle, "_divisors_in", spy)
    return seen


def spy_square_pairs(monkeypatch):
    """Record the arguments of each walk's _square_pairs call."""
    walks = []
    square_pairs = oracle._square_pairs

    def spy(*args):
        walks.append(args)
        return square_pairs(*args)

    monkeypatch.setattr(oracle, "_square_pairs", spy)
    return walks


def test_divisor_walk_matches_naive_scan(monkeypatch):
    # square lambda, so even n may take the walk; x_max spans the crossover
    walks = spy_divisors_in(monkeypatch)
    paths = set()
    for D in list(range(1, 201)) + [945, 3465, 45045]:
        for lam in (1, 4, 9, 16, 25, 36):
            for x_max in (3, 40, 500):
                assert generalized_scan(D, lam, 2, 9, x_max) == naive_scan(
                    D, lam, 2, 9, x_max
                )
                # one walk decision for the window, against every even n
                ds = _divisor_window(D, x_max)
                limit = x_max * x_max + D
                even = sum(_size(_y_window(D, lam, n, limit, {})) for n in (2, 4, 6, 8))
                paths.add(_size(ds) < WALK_PER_Y * even)
    assert paths == {True, False}
    # both the factored walk and the fallback over every d ran
    assert {divisors is None for divisors in walks} == {True, False}


@pytest.mark.parametrize(
    "D, lam, x_max, factors",
    [
        # two primes above the trial-division cap: 2^2 + D = 1011^2
        (1009 * 1013, 1, 500, False),
        # factors within the cap: the walk reads its 90 divisors off the
        # factorization, though the window has only 84 candidates
        (25200, 1, 130, True),
        (25200, 4, 130, True),
    ],
)
def test_fallback_walk_matches_naive_scan(D, lam, x_max, factors, monkeypatch):
    ds = _divisor_window(D, x_max)
    _, _, finished = trial_divide(D, _size(ds) // (3 * WALK_PER_Y))
    assert finished == factors
    walks = spy_divisors_in(monkeypatch)
    assert generalized_scan(D, lam, 2, 9, x_max) == naive_scan(D, lam, 2, 9, x_max)
    assert [divisors is None for divisors in walks] == [not factors]


def test_k5_walk_tests_only_the_divisors_of_D(monkeypatch):
    # verify --k 5's window: the walk over its 3,039,730 odd d is replaced by
    # the divisors 19^j of D that fall in it, of which there are none
    walks = spy_divisors_in(monkeypatch)
    D = LNInstance(5).D
    ds = _divisor_window(D, 10**7)
    assert _size(ds) == 3_039_730
    assert brute_force(SearchWindow(k=5)) == []
    assert walks == [[19**j for j in range(5, -1, -1) if 19**j in ds]] == [[]]
    # with every x admitted, the walk tests exactly the 19^j, j <= 5
    assert oracle._divisors_in(D, _divisor_window(D, (D - 1) // 2)) == [
        19**j for j in range(5, -1, -1)
    ]


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
    ys = _y_window(D, lam, 2, x_max * x_max + D, {})
    assert _size(ys) <= _size(ds) < WALK_PER_Y * _size(ys)
    walks = spy_square_pairs(monkeypatch)
    got = generalized_scan(D, lam, 2, 9, x_max)
    assert len(walks) == 1
    assert got == naive_scan(D, lam, 2, 9, x_max)
    assert any(n == 2 for _, _, n in got)


def test_one_walk_serves_every_even_n_and_is_charged_once(monkeypatch):
    # D = 7, lam = 1: the window holds the one divisor d = 1, and its walk
    # serves all 15 even n; charged once, not once per even n
    D, lam, x_max = 7, 1, 10**6
    limit = x_max * x_max + D
    assert _size(_divisor_window(D, x_max)) == 1
    odd = sum(max(1, _size(_y_window(D, lam, n, limit, {}))) for n in range(3, 31, 2))
    walks = spy_square_pairs(monkeypatch)
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", odd + 1)
    assert generalized_scan(D, lam, 2, 30, x_max) == naive_scan(D, lam, 2, 30, x_max)
    assert len(walks) == 1
    monkeypatch.setattr(lucas_engine, "SCAN_BUDGET", odd)
    with pytest.raises(ValueError, match="scan budget"):
        generalized_scan(D, lam, 2, 30, x_max)
    assert len(walks) == 1


def test_main_equation_walks_up_to_k5_and_y_scans_k6_to_k8(monkeypatch):
    # the default window's walk-or-scan choice, priced by whole y-windows:
    # the walk for k <= 5 (at most k + 1 divisors), a y-scan for k = 6..8
    walks = spy_square_pairs(monkeypatch)
    chose = []
    for k in range(9):
        walks.clear()
        brute_force(SearchWindow(k=k))
        chose.append("walk" if walks else "y-scan")
    assert chose == ["walk"] * 6 + ["y-scan"] * 3


def spy_y_window(monkeypatch):
    """Record the n of each y-window a scan builds."""
    built = []
    y_window = oracle._y_window

    def spy(D, lam, n, limit, tables):
        built.append(n)
        return y_window(D, lam, n, limit, tables)

    monkeypatch.setattr(oracle, "_y_window", spy)
    return built


def test_walk_choice_reads_the_even_windows_only_until_the_walk_wins(monkeypatch):
    # the choice is set against the full sum of the even n's y-windows, as
    # the test computes it here; the scan builds them in ascending order only
    # until the walk wins, and the walk then serves every even n
    walks = spy_square_pairs(monkeypatch)
    built = spy_y_window(monkeypatch)
    wins_at = set()  # how many even windows the walk needed, None if it lost
    for D in range(40, 200, 2):
        for lam in (1, 4, 9):
            for x_max in (3, 10, 40):
                walks.clear()
                built.clear()
                assert generalized_scan(D, lam, 2, 9, x_max) == naive_scan(
                    D, lam, 2, 9, x_max
                )
                limit = x_max * x_max + D
                n_top = min(9, (limit // lam).bit_length() - 1)
                ds = _size(_divisor_window(D, x_max))
                evens = range(2, n_top + 1, 2)
                sizes = [_size(_y_window(D, lam, n, limit, {})) for n in evens]
                walk = ds < WALK_PER_Y * sum(sizes)
                assert len(walks) == walk
                sums = enumerate(itertools.accumulate(sizes), 1)
                needed = next((i for i, s in sums if ds < WALK_PER_Y * s), None)
                wins_at.add(needed)
                assert [n for n in built if n % 2 == 0] == list(evens[:needed])
    # the walk won on n = 2 alone, on a sum of two or more even n, and never
    assert 1 in wins_at and None in wins_at and max(wins_at - {None}) >= 2


def test_k5_scan_builds_the_y_window_of_n2_and_the_odd_n_only(monkeypatch):
    # verify --k 5: the walk wins on n = 2's window alone, so no window of
    # n = 4, 6, ..., 30 is built
    built = spy_y_window(monkeypatch)
    ok, _ = verify_solution_completeness(5, SearchWindow(k=5))
    assert ok
    assert built == [2, *range(3, 31, 2)]


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
        D = LNInstance(k).D
        assert {_y_window(D, 4, n, 5 * D, {}).step for n in range(2, 31)} == {2}
    # D = 7, lam = 1 keeps every y: 1^2 + 7 = 2^3 has y even
    assert {_y_window(7, 1, n, 10**4, {}).step for n in range(2, 16)} == {1}
    assert (1, 2, 3) in generalized_scan(7, 1, 3, 3, 10)
    # the sieve, whichever moduli its window admits, keeps no even y of the
    # main equation, though given every y, and keeps y = 2 for D = 7,
    # lam = 1, n = 3
    for span in (8, 100, 10**4, 10**6):
        for k in range(4):
            for n in range(2, 31):
                kept = _sieved(LNInstance(k).D, 4, n, range(span, 2 * span), {})
                assert all(y % 2 for y in kept), (k, n, span)
        assert 2 in _sieved(7, 1, 3, range(1, span + 1), {})


def sieve_moduli(D, lam, n, ys):
    """The moduli, in the order the sieve walks them, whose tables _sieved
    ANDs over ys: those it reads that rule out a residue (one that rules
    out every residue included)."""
    tables = {}
    next(_sieved(D, lam, n, ys, tables), None)
    return [q for (q, *_), table in tables.items() if table != (1 << q) - 1]


def kept_by(D, lam, n, moduli, y):
    """Whether lam*y^n - D is a square mod every q of moduli, by squaring
    every residue mod q; no table is read."""
    return all(
        (lam * pow(y, n, q) - D) % q in {i * i % q for i in range(q)} for q in moduli
    )


@pytest.mark.parametrize(
    "D, lam, n, span",
    [
        (19, 4, 3, 2 * 10**5),
        (19**3, 4, 5, 10**9),
        (7, 1, 3, 10**4),
        (2, 1, 3, 500),
        (6, 2, 4, 10**4),
        (12, 3, 2, 10**4),
        (5, 76, 7, 10**4),
        (1, 1, 6, 10**4),
    ],
)
def test_wheel_keeps_exactly_the_residues_where_a_square_is_possible(D, lam, n, span):
    # the moduli are pairwise coprime, so a value is a square mod their
    # product iff it is one mod each: the sieve keeps exactly the y whose
    # value is a square mod each modulus it used (its first 3,000 y here)
    ys = range(span + 3, 2 * span + 3)
    used = sieve_moduli(D, lam, n, ys)
    first = itertools.takewhile(lambda y: y < ys.start + 3000, _sieved(D, lam, n, ys, {}))
    assert list(first) == [y for y in ys[:3000] if kept_by(D, lam, n, used, y)]
    # one walk: the moduli it used are the first of SIEVE_MODULI, in order,
    # whose table rules out a residue, 8 first when it rules one out
    ruling_out = [
        q for q in oracle.SIEVE_MODULI if oracle._kept(D, lam, n, q) != (1 << q) - 1
    ]
    assert used == ruling_out[: len(used)]


def test_wheel_scan_matches_naive_scan():
    # non-square lambda, even D, lambda > D, and windows shorter than one
    # period of the mod-8 table (x_max = 1 and 4: a few y)
    short = 0
    for D in (2, 4, 6, 7, 10, 12, 16, 19, 24, 48, 96, 6859):
        for lam in (2, 3, 5, 6, 7, 10, 12, 27, 100, 200):
            for x_max in (1, 4, 300, 3000):
                got = generalized_scan(D, lam, 2, 12, x_max)
                assert got == naive_scan(D, lam, 2, 12, x_max), (D, lam, x_max)
                ys = _y_window(D, lam, 3, x_max * x_max + D, {})
                short += 0 < ys.stop - ys.start < 8
    assert short > 0


@pytest.mark.parametrize("q", [8, 3, 5])
def test_a_planted_wrong_residue_table_misses_its_triple(q, monkeypatch):
    # (5, 3, 3) of x^2 + 2 = y^3 is found; a table that wrongly drops the
    # class of y = 3 mod q, 8 or a small prime the sieve uses, makes the
    # sieve drop y = 3 and the scan miss the triple
    assert generalized_scan(2, 1, 3, 3, 10**4) == [(5, 3, 3)]
    ys = _y_window(2, 1, 3, 10**8 + 2, {})
    assert 3 in _sieved(2, 1, 3, ys, {})
    kept = oracle._kept

    def planted(D, lam, n, m):
        table = kept(D, lam, n, m)
        return table & ~(1 << 3 % q) if m == q else table

    monkeypatch.setattr(oracle, "_kept", planted)
    assert q in sieve_moduli(2, 1, 3, ys)
    assert 3 not in _sieved(2, 1, 3, ys, {})
    assert generalized_scan(2, 1, 3, 3, 10**4) == []


def test_exact_tests_never_exceed_the_priced_count(monkeypatch):
    # each y-scanned n is priced at its whole y-window (_size); the sieve
    # tests a subset of it, never a y the window's own step leaves out
    tested = []
    sieved = oracle._sieved

    def spy(D, lam, n, ys, tables):
        kept = list(sieved(D, lam, n, ys, tables))
        assert all(y in ys for y in kept)
        tested.append((_size(ys), len(kept)))
        return iter(kept)

    monkeypatch.setattr(oracle, "_sieved", spy)
    for D in list(range(1, 40)) + [LNInstance(k).D for k in range(3)]:
        for lam in (1, 2, 3, 4, 5, 8, 12, 76):
            for x_max in (3, 400, 10**4):
                generalized_scan(D, lam, 2, 9, x_max)
    assert tested and all(tried <= priced for priced, tried in tested)
    # on the main equation's default window the sieve tests under a tenth
    tested.clear()
    brute_force(SearchWindow(k=0))
    priced = sum(priced for priced, _ in tested)
    assert 10 * sum(tried for _, tried in tested) < priced


def spy_sieves(monkeypatch):
    """Record, for each y-scanned n, the moduli its sieve used
    (sieve_moduli), in order."""
    used = []
    sieved = oracle._sieved

    def spy(D, lam, n, ys, tables):
        used.append(sieve_moduli(D, lam, n, ys))
        return sieved(D, lam, n, ys, tables)

    monkeypatch.setattr(oracle, "_sieved", spy)
    return used


def count_exact_tests(monkeypatch):
    """A one-item list holding how many y the y-scans have tested exactly.

    Each y the sieve keeps comes out as a _Counted int; the exact test is
    the one place a kept y is raised to the n-th power."""
    tested = [0]
    sieved = oracle._sieved

    class _Counted(int):
        def __pow__(self, n):
            tested[0] += 1
            return int(self) ** n

    monkeypatch.setattr(oracle, "_sieved", lambda *args: map(_Counted, sieved(*args)))
    return tested


@pytest.mark.parametrize(
    "D, lam, n_min, n_max, x_max",
    [
        (7, 2, 2, 9, 10**4),  # non-square lambda
        (2, 3, 2, 9, 10**5),  # even D
        (12, 7, 2, 9, 10**5),
        (7, 11, 2, 9, 10**5),  # lambda > D
        (10, 14, 2, 9, 10**5),
        (24, 1, 3, 9, 10**5),  # odd n of a square lambda: no walk
        (19, 76, 3, 20, 19 * 10**5),  # solve's 19Z^2 + 1 closure scan
    ],
)
def test_filtered_scan_matches_naive_scan(D, lam, n_min, n_max, x_max, monkeypatch):
    used = spy_sieves(monkeypatch)
    assert generalized_scan(D, lam, n_min, n_max, x_max) == naive_scan(
        D, lam, n_min, n_max, x_max
    )
    # the sieve ran on many tables: some n ANDed those of 8 and five primes
    assert max(map(len, used)) >= 6


def test_the_filters_cut_the_exact_tests_of_verify_k5(monkeypatch):
    # verify --k 5's default window: the sieve passes 45 y to the exact
    # test; with only 8 and the primes up to 17 it passes 116
    tested = count_exact_tests(monkeypatch)
    used = spy_sieves(monkeypatch)
    assert brute_force(SearchWindow(k=5)) == []
    assert tested == [45]
    # n = 3: every modulus up to 23 but 7, whose table keeps every residue
    assert used[0] == [8, 3, 5, 11, 13, 17, 19, 23]
    tested[0] = 0
    monkeypatch.setattr(oracle, "SIEVE_MODULI", (8, 3, 5, 7, 11, 13, 17))
    assert brute_force(SearchWindow(k=5)) == []
    assert tested == [116]


def test_a_filter_table_costs_less_than_the_tests_it_saves():
    # a table of q residues is read only while 2*q is at most the y
    # expected to reach it, and one that keeps every residue is passed over.
    # verify --k 5, n = 3: its span of 7,060 reaches 3,530 y past the
    # mod-8 table and 769 past 11's, and uses 13, 17, 19 and 23 after it;
    # 23 leaves a reach of 25, below 58, so 29's table is not read
    D, lam, n = LNInstance(5).D, 4, 3
    ys = _y_window(D, lam, n, 10**14 + D, {})
    assert (ys.stop - ys.start, ys.step) == (7060, 2)
    tables = {}
    assert list(_sieved(D, lam, n, ys, tables)) == list(_sieved(D, lam, n, ys, {}))
    assert [q for q, *_ in tables] == [8, 3, 5, 7, 11, 13, 17, 19, 23]
    assert sieve_moduli(D, lam, n, ys) == [8, 3, 5, 11, 13, 17, 19, 23]
    # a reach below 2*q reads no table of q: at span 11 the reach is 5, so
    # only 8's table is read; at span 237 11 leaves a reach of 25, below
    # 26, so 13's table is not read
    for span, read in ((11, [8]), (237, [8, 3, 5, 7, 11])):
        tables = {}
        next(_sieved(D, lam, n, range(ys.start, ys.start + span), tables), None)
        assert [q for q, *_ in tables] == read
    # a huge reach: every modulus whose table rules out a residue is used
    assert sieve_moduli(D, lam, n, range(ys.start, ys.start + 10**12)) == [
        q for q in oracle.SIEVE_MODULI if oracle._kept(D, lam, n, q) != (1 << q) - 1
    ]


@pytest.mark.parametrize("q", [13, 23, 29])
def test_a_planted_wrong_filter_table_misses_its_triple(q, monkeypatch):
    # x^2 + 367843 = y^3 at y = 10007: the sieve of that window uses the
    # tables of 13, 23 and 29 too, past the primes up to 11; a table that
    # wrongly drops the class of y mod q makes the scan miss it
    D, x_max, triple = 367843, 2 * 10**6, (1001050, 10007, 3)
    found = generalized_scan(D, 1, 3, 3, x_max)
    assert triple in found
    kept = oracle._kept

    def planted(D, lam, n, m):
        table = kept(D, lam, n, m)
        return table & ~(1 << triple[1] % q) if m == q else table

    monkeypatch.setattr(oracle, "_kept", planted)
    assert q in sieve_moduli(D, 1, 3, _y_window(D, 1, 3, x_max * x_max + D, {}))
    assert generalized_scan(D, 1, 3, 3, x_max) == [t for t in found if t != triple]


def test_an_n_whose_wheel_keeps_nothing_is_skipped(monkeypatch):
    # 3y^2 - 1 is never a square mod 8: the mod-8 table keeps no residue,
    # and no chunk of the 8.7*10^7 y in the window is stepped through (the
    # sieve reads each chunk's mask with one bin() call)
    chunks = []

    def read(mask):
        chunks.append(mask)
        return bin(mask)

    monkeypatch.setattr(oracle, "bin", read, raising=False)
    assert oracle._table(1, 3, 2, 8, {}) == 0
    assert sieve_moduli(1, 3, 2, range(1, 10**8)) == [8]
    assert generalized_scan(1, 3, 2, 2, 3 * 10**8) == []
    assert chunks == []
    # the price is that of the whole window still: over the budget, refused
    with pytest.raises(ValueError, match="scan budget"):
        generalized_scan(1, 3, 2, 2, 4 * 10**8)
    # beside them, n = 7 and 9 are sieved: their mod-8 tables keep a
    # residue, and their windows are too short to read 3's, which keeps none
    assert generalized_scan(1, 3, 2, 9, 10**4) == naive_scan(1, 3, 2, 9, 10**4)
    assert chunks


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10**6),
    st.integers(1, 100),
    st.integers(2, 12),
    st.integers(1, 10**9),
    st.integers(1, 300).flatmap(lambda c: st.tuples(st.just(c), st.integers(1, 3 * c))),
)
def test_the_sieve_keeps_exactly_the_y_its_moduli_keep_across_chunks(
    D, lam, n, start, size
):
    # windows of one to three chunks (CHUNK made small), from an unaligned
    # start: each y is checked by itself against every modulus the sieve used
    chunk, length = size
    ys = range(start, start + length)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "CHUNK", chunk)
        used = sieve_moduli(D, lam, n, ys)
        got = list(_sieved(D, lam, n, ys, {}))
    assert got == [y for y in ys if kept_by(D, lam, n, used, y)]


@pytest.mark.parametrize("offset", [0, oracle.CHUNK - 1, oracle.CHUNK])
def test_a_triple_at_a_chunk_edge_is_found(offset):
    # x^2 + D = y^3 with D = y^3 - x^2 chosen so that the window of n = 3
    # starts at s: y falls at the first y of a chunk, its last, or the first
    # of the next
    s = 20001  # odd, so a step of 2 starts the window at s too
    y = s + offset
    x = math.isqrt(y**3 - (s - 1) ** 3)
    D = y**3 - x * x
    x_max = 2 * x
    ys = _y_window(D, 1, 3, x_max * x_max + D, {})
    assert ys.start == s and y in ys
    found = generalized_scan(D, 1, 3, 3, x_max)
    assert (x, y, 3) in found
    assert found == naive_scan(D, 1, 3, 3, x_max)


def spy_kept(monkeypatch):
    """Record (q, n) for each residue table _kept builds."""
    built = []
    kept = oracle._kept

    def spy(D, lam, n, q):
        built.append((q, n))
        return kept(D, lam, n, q)

    monkeypatch.setattr(oracle, "_kept", spy)
    return built


def class_of(q, n):
    """The class of n that the table mod q rests on, for n >= 2."""
    return (n % 2, n == 2) if q == 8 else n % (q - 1)


def test_a_scan_builds_each_residue_table_once_per_class_of_n(monkeypatch):
    # verify --k 5's default window built 46 tables, 35 of them mod 8, when
    # each n built its own: now one per (q, class of n), and a second scan
    # builds them all again, as no table outlives its scan.  The walk serves
    # every even n, so the class of even n >= 4 needs none
    built = spy_kept(monkeypatch)
    for _ in range(2):
        built.clear()
        assert brute_force(SearchWindow(k=5)) == []
        classes = [(q, class_of(q, n)) for q, n in built]
        assert len(set(classes)) == len(classes) == 11
        assert sum(q == 8 for q, _ in built) <= 3


def test_the_table_of_a_class_of_n_is_that_of_each_n_in_it():
    # a scan's lookup builds a table at the first n of its class and hands
    # it to each later n of the class; it must equal a fresh build there.
    # (D, lam) runs over every residue pair up to 17, and 20 pairs above
    rng = random.Random(0)
    for q in oracle.SIEVE_MODULI:
        pairs = [(D, lam) for D in range(q) for lam in range(q)]
        if q > 17:
            pairs = rng.sample(pairs, 20)
        for D, lam in pairs:
            tables = {}
            for n in range(2, 80):
                table = oracle._table(D, lam, n, q, tables)
                assert table == oracle._kept(D, lam, n, q), (q, D, lam, n)


@pytest.mark.parametrize("D, lam", [(2, 1), (7, 2), (11, 3), (19, 4), (6, 5), (367843, 1)])
def test_tables_shared_across_n_match_naive_scan(D, lam, monkeypatch):
    # n = 3..40 holds each class of n of every wheel prime (q - 1 <= 16)
    # twice or more, and some y >= 2 reaches n = 40: lam * 2^40 <= x_max^2
    built = spy_kept(monkeypatch)
    x_max = 2**20 * (math.isqrt(lam) + 1)
    assert generalized_scan(D, lam, 3, 40, x_max) == naive_scan(D, lam, 3, 40, x_max)
    classes = [(q, class_of(q, n)) for q, n in built]
    assert len(set(classes)) == len(classes)
    assert {n for q, n in built if q == 8} < set(range(3, 41))


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
