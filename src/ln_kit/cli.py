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

from .equation_model import FamilySpec, LNInstance, instantiate_family, theorem_solution_set
from .lucas_engine import LucasPair, lucas_u, primitive_divisor
from .oracle import SearchWindow, brute_force, generalized_scan
from .quadratic_integers import class_number_imag
from .solver import OracleMismatchError, solve, verify_solution_completeness

DEFAULT_N_MAX = 30
DEFAULT_X_MAX = 10**7
DEFAULT_BUDGET = 10**6


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
    p_solve.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_solve.add_argument("--x-max", type=int, default=DEFAULT_X_MAX)
    p_solve.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
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
    p_oracle.add_argument("--n-min", type=int, default=2)
    p_oracle.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_oracle.add_argument("--x-max", type=int, default=DEFAULT_X_MAX)

    p_family = sub.add_parser("family", help="materialize theorem solution families")
    p_family.set_defaults(handler=_cmd_family)
    p_family.add_argument("--k", type=int, required=True)
    p_family.add_argument("--kind", choices=("n1", "n2", "n7", "all"), required=True)
    p_family.add_argument("--t", type=int, help="parameter for n1/n2")
    p_family.add_argument("--m", type=int, help="parameter for n7")
    p_family.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)

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
    p_primdiv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_class = sub.add_parser("classnum", help="class number by reduced forms")
    p_class.set_defaults(handler=_cmd_classnum)
    p_class.add_argument("--disc", type=int, required=True)

    p_verify = sub.add_parser("verify", help="oracle vs theorem set comparison")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--n-min", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--x-max", type=int, default=DEFAULT_X_MAX)
    return parser


def _cmd_solve(args: argparse.Namespace, emit: Emit) -> int:
    try:
        solutions, trace = solve(
            args.k,
            args.n_max,
            args.x_max,
            cross_check=not args.skip_oracle,
            factoring_budget=args.budget,
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
    if args.d is not None or args.lam is not None:
        if args.d is None or args.lam is None:
            print("ln-kit oracle: --d and --lam must be given together", file=sys.stderr)
            raise SystemExit(2)
        triples = generalized_scan(args.d, args.lam, args.n_min, args.n_max, args.x_max)
        for x, y, n in triples:
            row = {"x": str(x), "y": str(y), "n": n}
            emit({"kind": "triple", "d": args.d, "lam": args.lam, **row})
        return 0
    if args.k is None:
        print("ln-kit oracle: provide --k, or both --d and --lam", file=sys.stderr)
        raise SystemExit(2)
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
    if args.kind in ("n1", "n2"):
        if args.t is None:
            print("ln-kit family: --t is required for n1/n2", file=sys.stderr)
            raise SystemExit(2)
        spec = FamilySpec.n1(args.t) if args.kind == "n1" else FamilySpec.n2(args.t)
    else:
        if args.m is None:
            print("ln-kit family: --m is required for n7", file=sys.stderr)
            raise SystemExit(2)
        spec = FamilySpec.n7(args.m)
    sol = instantiate_family(inst, spec)
    emit(_solution_obj(sol, k=args.k, family=args.kind, param=spec.param))
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
    count = class_number_imag(args.disc)
    emit(
        {
            "kind": "class_number",
            "disc": count.discriminant,
            "h": count.h,
            "forms": [list(f) for f in count.forms],
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
