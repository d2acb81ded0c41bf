"""Command-line front end; its only output is JSON lines.

One compact, key-sorted JSON object per line; big integers are emitted as
decimal strings so downstream consumers cannot overflow.  Identical flags
produce identical bytes.  Exit status: 0 success, 1 verification mismatch,
2 usage error or refused input, 141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any

from .equation_model import LNInstance, instantiate_family, theorem_solution_set
from .lucas_engine import FACTORING_BUDGET, LucasPair, lucas_u, primitive_divisor
from .oracle import SearchWindow, brute_force, generalized_scan
from .quadratic_integers import class_number_imag
from .solver import (
    STEP_BUDGET,
    OracleMismatchError,
    solve,
    step_bound,
    verify_solution_completeness,
)


def _write(obj: dict[str, Any]) -> None:
    """Write obj to stdout as one compact, key-sorted JSON line."""
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _solution_obj(sol, **extra: Any) -> dict[str, Any]:
    return {"kind": "solution", **sol.to_jsonable(), **extra}


def _check_digits(value: str, log10: float) -> None:
    """Refuse, before any work, to print a value near 10^log10 that has more
    digits than the interpreter converts to a string."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and log10 >= limit:
        raise ValueError(
            f"{value} would have about {math.floor(log10) + 1} digits, over the "
            f"{limit}-digit limit of int-to-str conversion "
            "(sys.get_int_max_str_digits())"
        )


def _u_n_log10(pair: LucasPair, n: int) -> float:
    """An upper bound on log10|u_n|: u_n = (alpha^n - beta^n)/(alpha - beta),
    so |u_n| <= 2|alpha|^n / sqrt(|disc|), alpha the root of z^2 - P*z + Q
    of larger modulus."""
    disc = pair.disc
    if disc < 0:
        log_alpha = math.log10(pair.Q) / 2  # |alpha|^2 = alpha * conj(alpha) = Q
    else:
        # 2|alpha| = |P| + sqrt(disc), times 2^64 and rounded up
        scaled = (abs(pair.P) << 64) + math.isqrt(disc << 128) + 1
        log_alpha = math.log10(scaled) - 65 * math.log10(2)
    return n * log_alpha + math.log10(2) - math.log10(abs(disc)) / 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ln-kit",
        description="solve and verify x^2 + 19^(2k+1) = 4*y^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full decision procedure")
    p_solve.set_defaults(handler=_cmd_solve)
    p_solve.add_argument("--k", type=int, required=True)
    p_solve.add_argument("--n-max", type=int, default=SearchWindow.n_max)
    p_solve.add_argument("--x-max", type=int, default=SearchWindow.x_max)
    p_solve.add_argument(
        "--skip-oracle", action="store_true", help="skip the brute-force cross-check"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="emit every proof step as a JSON line"
    )

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration only")
    p_oracle.set_defaults(handler=_cmd_oracle)
    p_oracle.add_argument("--k", type=int)
    p_oracle.add_argument("--d", type=int, help="generalized constant D")
    p_oracle.add_argument("--lam", type=int, help="generalized coefficient lambda")
    p_oracle.add_argument("--n-min", type=int, default=SearchWindow.n_min)
    p_oracle.add_argument("--n-max", type=int, default=SearchWindow.n_max)
    p_oracle.add_argument("--x-max", type=int, default=SearchWindow.x_max)

    p_family = sub.add_parser("family", help="materialize theorem solution families")
    p_family.set_defaults(handler=_cmd_family)
    p_family.add_argument("--k", type=int, required=True)
    p_family.add_argument("--kind", choices=("n1", "n2", "n7", "all"), required=True)
    p_family.add_argument("--t", type=int, help="parameter for n1/n2")
    p_family.add_argument("--m", type=int, help="parameter for n7")
    p_family.add_argument("--n-max", type=int, default=SearchWindow.n_max)

    p_lucas = sub.add_parser("lucas", help="Lucas number u_n for a pair (P, Q)")
    p_lucas.set_defaults(handler=_cmd_lucas)
    p_lucas.add_argument("--p", type=int, required=True)
    p_lucas.add_argument("--q", type=int, required=True)
    p_lucas.add_argument("--n", type=int, required=True)

    p_primdiv = sub.add_parser("primdiv", help="primitive-divisor test for u_n")
    p_primdiv.set_defaults(handler=_cmd_primdiv)
    p_primdiv.add_argument("--p", type=int, required=True)
    p_primdiv.add_argument("--q", type=int, required=True)
    p_primdiv.add_argument("--n", type=int, required=True)
    p_primdiv.add_argument("--budget", type=int, default=FACTORING_BUDGET)

    p_class = sub.add_parser("classnum", help="class number by reduced forms")
    p_class.set_defaults(handler=_cmd_classnum)
    p_class.add_argument("--disc", type=int, required=True)

    p_verify = sub.add_parser("verify", help="oracle vs theorem set comparison")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--n-min", type=int, default=SearchWindow.n_min)
    p_verify.add_argument("--n-max", type=int, default=SearchWindow.n_max)
    p_verify.add_argument("--x-max", type=int, default=SearchWindow.x_max)
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    # a run over the step budget is refused by solve itself, naming that budget
    if step_bound(args.k, args.n_max) <= STEP_BUDGET:
        _check_digits("19^(2k+1)", (2 * args.k + 1) * math.log10(19))
    try:
        solutions, trace = solve(
            args.k, args.n_max, args.x_max, cross_check=not args.skip_oracle
        )
    except OracleMismatchError as exc:
        _write(
            {
                "kind": "oracle_mismatch",
                "k": exc.k,
                "pipeline_only": [list(map(str, t)) for t in exc.only_pipeline],
                "oracle_only": [list(map(str, t)) for t in exc.only_oracle],
            }
        )
        return 1
    for sol in solutions:
        _write(_solution_obj(sol, k=args.k))
    if args.trace:
        for step in trace.steps:
            _write({"kind": "trace_step", **step.to_jsonable()})
    _write(
        {
            "kind": "trace_summary",
            "k": args.k,
            "steps": len(trace.steps),
            "solutions": len(solutions),
            "oracle_checked": trace.oracle_checked,
        }
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    # either --k alone, or --d and --lam together
    generalized = args.d is not None
    if (args.k is None) != generalized or (args.lam is None) == generalized:
        print("ln-kit oracle: provide --k, or both --d and --lam", file=sys.stderr)
        raise SystemExit(2)
    if generalized:
        triples = generalized_scan(args.d, args.lam, args.n_min, args.n_max, args.x_max)
        for x, y, n in triples:
            row = {"x": str(x), "y": str(y), "n": n}
            _write({"kind": "triple", "d": args.d, "lam": args.lam, **row})
        return 0
    window = SearchWindow(
        k=args.k, n_min=args.n_min, n_max=args.n_max, x_max=args.x_max
    )
    for sol in brute_force(window):
        _write(_solution_obj(sol, k=args.k))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    inst = LNInstance(args.k)
    log19 = math.log10(19)
    if args.kind == "all":
        _check_digits("19^(2k+1)", (2 * args.k + 1) * log19)
        for sol in theorem_solution_set(inst, args.n_max):
            _write(_solution_obj(sol, k=args.k))
        return 0
    param = args.m if args.kind == "n7" else args.t
    if param is None:
        flag, kinds = ("--m", "n7") if args.kind == "n7" else ("--t", "n1/n2")
        print(f"ln-kit family: {flag} is required for {kinds}", file=sys.stderr)
        raise SystemExit(2)
    # each member's longest value: n1's y, and n2's and n7's x
    if args.kind == "n1":
        t_log10 = 2 * math.log10(abs(param) + 1)
        _check_digits("y", max((2 * args.k + 1) * log19, t_log10))
    elif args.kind == "n2":
        _check_digits("x", (2 * args.k - param + 1) * log19)
    else:
        _check_digits("x", 7 * param * log19 + math.log10(559))
    sol = instantiate_family(inst, args.kind, param)
    _write(_solution_obj(sol, k=args.k, family=args.kind, param=param))
    return 0


def _cmd_lucas(args: argparse.Namespace) -> int:
    pair = LucasPair(args.p, args.q)
    _check_digits("u_n", _u_n_log10(pair, args.n))
    value = lucas_u(pair, args.n)
    row = {"p": args.p, "q": args.q, "n": args.n, "u_n": str(value)}
    _write({"kind": "lucas_u", **row})
    return 0


def _cmd_primdiv(args: argparse.Namespace) -> int:
    pair = LucasPair(args.p, args.q)
    # the verdict quotes u_n's factors and earlier terms, none longer than u_n
    _check_digits("u_n", _u_n_log10(pair, args.n))
    verdict = primitive_divisor(pair, args.n, args.budget)
    _write(
        {"kind": "primitive_divisor", "p": args.p, "q": args.q, **verdict.to_jsonable()}
    )
    return 0


def _cmd_classnum(args: argparse.Namespace) -> int:
    forms = class_number_imag(args.disc)
    _write(
        {
            "kind": "class_number",
            "disc": args.disc,
            "h": len(forms),
            "forms": [list(f) for f in forms],
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    window = SearchWindow(
        k=args.k, n_min=args.n_min, n_max=args.n_max, x_max=args.x_max
    )
    ok, report = verify_solution_completeness(args.k, window)
    _write({"kind": "verify_report", **report})
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
    except (ValueError, OverflowError) as exc:
        print(f"ln-kit: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered nowhere, and
        # end as a shell reports a process that SIGPIPE stopped (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
