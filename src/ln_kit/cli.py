"""Command-line front end with deterministic JSON-lines output.

One JSON object per line; big integers are emitted as decimal strings so
downstream consumers cannot overflow.  Identical flags produce identical
bytes.  Exit status: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable

from .equation_model import LNInstance, instantiate_family, theorem_solution_set
from .lucas_engine import FACTORING_BUDGET, LucasPair, lucas_u, primitive_divisor
from .oracle import SearchWindow, brute_force, generalized_scan
from .quadratic_integers import class_number_imag
from .solver import OracleMismatchError, solve, verify_solution_completeness

Emit = Callable[[dict[str, Any]], None]


def _emitter(fmt: str) -> Emit:
    """Write one object per line to stdout, as compact JSON or key=value text."""
    sink = sys.stdout

    def emit(obj: dict[str, Any]) -> None:
        if fmt == "json":
            line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        else:
            line = " ".join(f"{k}={v}" for k, v in sorted(obj.items()))
        sink.write(line + "\n")

    return emit


def _solution_obj(sol, **extra: Any) -> dict[str, Any]:
    return {"kind": "solution", **sol.to_jsonable(), **extra}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ln-kit",
        description="solve and verify x^2 + 19^(2k+1) = 4*y^n",
    )
    parser.add_argument(
        "--format", choices=("json", "text"), default="json", dest="output_format"
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


def _cmd_solve(args: argparse.Namespace, emit: Emit) -> int:
    try:
        solutions, trace = solve(
            args.k, args.n_max, args.x_max, cross_check=not args.skip_oracle
        )
    except OracleMismatchError as exc:
        emit(
            {
                "kind": "oracle_mismatch",
                "k": exc.k,
                "pipeline_only": [list(map(str, t)) for t in exc.only_pipeline],
                "oracle_only": [list(map(str, t)) for t in exc.only_oracle],
            }
        )
        return 1
    for sol in solutions:
        emit(_solution_obj(sol, k=args.k))
    if args.trace:
        for step in trace.steps:
            emit({"kind": "trace_step", **step.to_jsonable()})
    emit(
        {
            "kind": "trace_summary",
            "k": args.k,
            "steps": len(trace.steps),
            "solutions": len(solutions),
            "oracle_checked": trace.oracle_checked,
        }
    )
    return 0


def _cmd_oracle(args: argparse.Namespace, emit: Emit) -> int:
    # either --k alone, or --d and --lam together
    generalized = args.d is not None
    if (args.k is None) != generalized or (args.lam is None) == generalized:
        print("ln-kit oracle: provide --k, or both --d and --lam", file=sys.stderr)
        raise SystemExit(2)
    if generalized:
        triples = generalized_scan(args.d, args.lam, args.n_min, args.n_max, args.x_max)
        for x, y, n in triples:
            row = {"x": str(x), "y": str(y), "n": n}
            emit({"kind": "triple", "d": args.d, "lam": args.lam, **row})
        return 0
    window = SearchWindow(
        k=args.k, n_min=args.n_min, n_max=args.n_max, x_max=args.x_max
    )
    for sol in brute_force(window):
        emit(_solution_obj(sol, k=args.k))
    return 0


def _cmd_family(args: argparse.Namespace, emit: Emit) -> int:
    inst = LNInstance(args.k)
    if args.kind == "all":
        for sol in theorem_solution_set(inst, args.n_max):
            emit(_solution_obj(sol, k=args.k))
        return 0
    param = args.m if args.kind == "n7" else args.t
    if param is None:
        flag, kinds = ("--m", "n7") if args.kind == "n7" else ("--t", "n1/n2")
        print(f"ln-kit family: {flag} is required for {kinds}", file=sys.stderr)
        raise SystemExit(2)
    sol = instantiate_family(inst, args.kind, param)
    emit(_solution_obj(sol, k=args.k, family=args.kind, param=param))
    return 0


def _cmd_lucas(args: argparse.Namespace, emit: Emit) -> int:
    value = lucas_u(LucasPair(args.p, args.q), args.n)
    emit({"kind": "lucas_u", "p": args.p, "q": args.q, "n": args.n, "u_n": str(value)})
    return 0


def _cmd_primdiv(args: argparse.Namespace, emit: Emit) -> int:
    verdict = primitive_divisor(LucasPair(args.p, args.q), args.n, args.budget)
    emit(
        {"kind": "primitive_divisor", "p": args.p, "q": args.q, **verdict.to_jsonable()}
    )
    return 0


def _cmd_classnum(args: argparse.Namespace, emit: Emit) -> int:
    forms = class_number_imag(args.disc)
    emit(
        {
            "kind": "class_number",
            "disc": args.disc,
            "h": len(forms),
            "forms": [list(f) for f in forms],
        }
    )
    return 0


def _cmd_verify(args: argparse.Namespace, emit: Emit) -> int:
    window = SearchWindow(
        k=args.k, n_min=args.n_min, n_max=args.n_max, x_max=args.x_max
    )
    ok, report = verify_solution_completeness(args.k, window)
    emit({"kind": "verify_report", **report})
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, _emitter(args.output_format))
    except (ValueError, OverflowError) as exc:
        print(f"ln-kit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
