"""Command-line front end; its only output is JSON lines.

One compact, key-sorted JSON object per line; big integers are emitted as
decimal strings so downstream consumers cannot overflow.  Identical flags
produce identical bytes.  Exit status: 0 success, 1 verification mismatch,
2 usage error or refused input, 141 when the reader closes stdout early.
Only solve and verify load the solver (and with it caseworks): its three
names are looked up on first use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from .equation_model import (
    LNInstance,
    instantiate_family,
    json_safe,
    theorem_solution_set,
)
from .lucas_engine import FACTORING_BUDGET, LucasPair, lucas_u, primitive_divisor
from .oracle import SearchWindow, brute_force, generalized_scan
from .quadratic_integers import class_number_imag

_SOLVER_NAMES = ("OracleMismatchError", "solve", "verify_solution_completeness")
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _solver_name(name: str) -> Any:
    """The value bound to name on this module; else, for one of
    _SOLVER_NAMES, the solver's, imported on first use and bound here.
    Also the module's __getattr__, so ln_kit.cli.solve exists, and a
    stand-in bound in its place is what the handlers call."""
    if name in globals():
        return globals()[name]
    if name not in _SOLVER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import solver

    return globals().setdefault(name, getattr(solver, name))


__getattr__ = _solver_name


def _write(obj: dict[str, Any]) -> None:
    """Write obj to stdout as one compact, key-sorted JSON line."""
    sys.stdout.write(_ENCODER.encode(obj) + "\n")


def _window(args: argparse.Namespace) -> SearchWindow:
    return SearchWindow(args.k, args.n_min, args.n_max, args.x_max)


def _solution_obj(sol, **extra: Any) -> dict[str, Any]:
    return {"kind": "solution", **sol.to_jsonable(), **json_safe(extra)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ln-kit",
        description="solve and verify x^2 + 19^(2k+1) = 4*y^n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *required_ints):
        """A subcommand that runs handler, with one required int flag per name."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag in required_ints:
            p.add_argument(f"--{flag}", type=int, required=True)
        return p

    def window(p, *fields):
        """One int flag per SearchWindow field, with SearchWindow's default."""
        for f in fields:
            default = getattr(SearchWindow, f)
            p.add_argument("--" + f.replace("_", "-"), type=int, default=default)

    p_solve = command("solve", _cmd_solve, "run the full decision procedure", "k")
    window(p_solve, "n_max", "x_max")
    p_solve.add_argument(
        "--skip-oracle", action="store_true", help="skip the brute-force cross-check"
    )
    p_solve.add_argument(
        "--trace", action="store_true", help="emit every proof step as a JSON line"
    )

    p_oracle = command("oracle", _cmd_oracle, "brute-force enumeration only")
    p_oracle.add_argument("--k", type=int)
    p_oracle.add_argument("--d", type=int, help="generalized constant D")
    p_oracle.add_argument("--lam", type=int, help="generalized coefficient lambda")
    window(p_oracle, "n_min", "n_max", "x_max")

    p_family = command(
        "family", _cmd_family, "materialize theorem solution families", "k"
    )
    p_family.add_argument("--kind", choices=("n1", "n2", "n7", "all"), required=True)
    p_family.add_argument("--t", type=int, help="parameter for n1/n2")
    p_family.add_argument("--m", type=int, help="parameter for n7")

    command("lucas", _cmd_lucas, "Lucas number u_n for a pair (P, Q)", "p", "q", "n")
    p_primdiv = command(
        "primdiv", _cmd_primdiv, "primitive-divisor test for u_n", "p", "q", "n"
    )
    p_primdiv.add_argument("--budget", type=int, default=FACTORING_BUDGET)
    command("classnum", _cmd_classnum, "class number by reduced forms", "disc")
    p_verify = command("verify", _cmd_verify, "oracle vs theorem set comparison", "k")
    window(p_verify, "n_min", "n_max", "x_max")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        solutions, trace = _solver_name("solve")(
            args.k, args.n_max, args.x_max, cross_check=not args.skip_oracle
        )
    except _solver_name("OracleMismatchError") as exc:
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
        for step in trace.jsonable_steps():
            _write({"kind": "trace_step", **step})
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
            row = {"d": args.d, "lam": args.lam, "x": str(x), "y": str(y), "n": n}
            _write({"kind": "triple", **json_safe(row)})
        return 0
    for sol in brute_force(_window(args)):
        _write(_solution_obj(sol, k=args.k))
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    inst = LNInstance(args.k)
    if args.kind == "all":
        for sol in theorem_solution_set(inst, SearchWindow.n_max):
            _write(_solution_obj(sol, k=args.k))
        return 0
    param = args.m if args.kind == "n7" else args.t
    if param is None:
        flag, kinds = ("--m", "n7") if args.kind == "n7" else ("--t", "n1/n2")
        print(f"ln-kit family: {flag} is required for {kinds}", file=sys.stderr)
        raise SystemExit(2)
    sol = instantiate_family(inst, args.kind, param)
    _write(_solution_obj(sol, k=args.k, family=args.kind, param=param))
    return 0


def _cmd_lucas(args: argparse.Namespace) -> int:
    value = lucas_u(LucasPair(args.p, args.q), args.n)
    row = {"p": args.p, "q": args.q, "n": args.n, "u_n": str(value)}
    _write({"kind": "lucas_u", **json_safe(row)})
    return 0


def _cmd_primdiv(args: argparse.Namespace) -> int:
    verdict = primitive_divisor(LucasPair(args.p, args.q), args.n, args.budget)
    row = {"p": args.p, "q": args.q, **verdict.to_jsonable()}
    _write({"kind": "primitive_divisor", **json_safe(row)})
    return 0


def _cmd_classnum(args: argparse.Namespace) -> int:
    forms = class_number_imag(args.disc)
    row = {"disc": args.disc, "h": len(forms), "forms": forms}
    _write({"kind": "class_number", **json_safe(row)})
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ok, report = _solver_name("verify_solution_completeness")(args.k, _window(args))
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
