"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.  Every expected value is exact; the
two runtime envelopes (criteria 1 and 4) are asserted as stated.
"""

import json
import time

from ln_kit import cli
from ln_kit.caseworks import mod_pow2_insoluble, no_19z2_solutions, p3_case
from ln_kit.equation_model import LNInstance, instantiate_family, is_solution
from ln_kit.lucas_engine import LucasPair, lucas_u, primitive_divisor
from ln_kit.oracle import generalized_scan
from ln_kit.quadratic_integers import QuadInt19, class_number_imag, imag_binomial_sum, qpow

WINDOW_ARGS = ["--n-max", "30", "--x-max", "10000000"]


def _report(number, name, ok):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def _run_solve(capsys, k):
    code = cli.main(["solve", "--k", str(k), *WINDOW_ARGS])
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    sols = {
        (int(l["x"]), int(l["y"]), l["n"]) for l in lines if l["kind"] == "solution"
    }
    summary = lines[-1]
    return code, sols, summary


def test_criterion_01_theorem_reproduction_k0(capsys):
    start = time.monotonic()
    code, sols, summary = _run_solve(capsys, 0)
    elapsed = time.monotonic() - start
    ok = (
        code == 0
        and sols == {(9, 5, 2), (559, 5, 7)}
        and summary["oracle_checked"] is True
        and elapsed < 60.0
    )
    _report(1, f"solve k=0 exact + oracle ({elapsed:.1f}s)", ok)


def test_criterion_02_theorem_reproduction_k1(capsys):
    code, sols, summary = _run_solve(capsys, 1)
    ok = (
        code == 0
        and sols == {(171, 95, 2), (3429, 1715, 2)}
        and not any(n == 7 for (_, _, n) in sols)
        and summary["oracle_checked"] is True
    )
    _report(2, "solve k=1 exact, no n=7 member", ok)


def test_criterion_03_lucas_criterion():
    pair = LucasPair(1, 5)
    ok = lucas_u(pair, 7) == 1 and primitive_divisor(pair, 7).exists is False
    for n in (3, 5, 11, 13):
        ok = ok and primitive_divisor(pair, n).exists is True
    _report(3, "u_7(1,5) = 1 and primitive-divisor verdicts", ok)


def test_criterion_04_imaginary_part_identity_grid():
    start = time.monotonic()
    failures = 0
    for p in (3, 5, 7, 11, 13, 19):
        for a in range(-99, 100, 2):
            for b in range(-99, 100, 2):
                S = imag_binomial_sum(a, b, p)
                if b * S != 2 ** (p - 1) * qpow(QuadInt19(a, b), p).b:
                    failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    _report(4, f"binomial identity grid, 60000 cases ({elapsed:.1f}s)", ok)


def test_criterion_05_power_of_two_congruence():
    ok = True
    for t in range(1, 7):
        verdict = mod_pow2_insoluble(19, t)
        ok = (
            ok
            and verdict.outcome == "contradiction"
            and verdict.trace[0]["odd_residues_checked"] == 16
            and verdict.trace[0]["modulus"] == 32
        )
    _report(5, "a^2 = 19^(2t)*10 mod 32 insoluble for t in 1..6", ok)


def test_criterion_06_p3_elimination():
    ok = True
    for k in (0, 1, 2):
        verdict = p3_case(k, 500)
        by_check = {s["check"]: s for s in verdict.trace}
        ok = (
            ok
            and verdict.outcome == "contradiction"
            and by_check["exhaustive_search"]["witnesses"] == []
            and by_check["exhaustive_search"]["candidates_checked"] == 250 * 250 * 2
            and by_check["mod9_reduction"]["a_square_forced_mod_3"] == 2
            and by_check["mod9_reduction"]["a_mod_3_solutions"] == []
            and 2 not in by_check["mod9_reduction"]["squares_mod_3"]
        )
    _report(6, "n=3 eliminated by residues and exhaustive scan", ok)


def test_criterion_07_class_numbers():
    ok = (
        class_number_imag(-19) == [(1, 1, 5)]
        and len(class_number_imag(-7)) == 1
        and len(class_number_imag(-23)) == 3
    )
    _report(7, "class numbers h(-19)=1, h(-7)=1, h(-23)=3", ok)


def test_criterion_08_historical_sanity():
    lebesgue = generalized_scan(1, 1, 3, 20, 10**5)
    fermat = generalized_scan(2, 1, 3, 3, 100)
    ok = lebesgue == [] and fermat == [(5, 3, 3)]
    _report(8, "Lebesgue window empty, Fermat finds (5,3)", ok)


def test_criterion_09_family_closure():
    ok = True
    for k in range(9):
        inst = LNInstance(k)
        for t in range(k + 1):
            sol = instantiate_family(inst, "n2", t)
            ok = ok and is_solution(inst, *sol.as_tuple())
        for t in range(3):
            sol = instantiate_family(inst, "n1", t)
            ok = ok and is_solution(inst, *sol.as_tuple())
        if k % 7 == 0:
            sol = instantiate_family(inst, "n7", k // 7)
            ok = ok and is_solution(inst, *sol.as_tuple())
    member = instantiate_family(LNInstance(7), "n7", 1)
    ok = (
        ok
        and member.as_tuple() == (559 * 19**7, 5 * 19**2, 7)
        and member.x**2 + 19**15 == 4 * member.y**7
    )
    _report(9, "family closure for k <= 8 incl. exact n7 member at k=7", ok)


def test_criterion_10_bounded_le_theorem_check():
    verdict = no_19z2_solutions(n_max=20, z_max=10**5)
    step = verdict.trace[0]
    ok = (
        verdict.outcome == "contradiction"
        and step["witnesses"] == []
        and step["z_max"] == 10**5
        and step["n_max"] == 20
        and "cited" in verdict.reason
    )
    _report(10, "19Z^2+1 = 4Y^n witness-free in bounded window", ok)
