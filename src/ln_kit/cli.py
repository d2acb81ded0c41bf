"""Command-line front end with deterministic JSON-lines output.

One JSON object per line; big integers are emitted as decimal strings so
downstream consumers cannot overflow.  Identical flags produce identical
bytes.  Exit status: 0 success, 1 verification mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import Any, IO

from .equation_model import FamilySpec, LNInstance, instantiate_family, theorem_solution_set
from .lucas_engine import LucasPair, lucas_u, primitive_divisor
from .oracle import SearchWindow, brute_force, generalized_scan
from .quadratic_integers import class_number_imag
from .solver import OracleMismatchError, solve, verify_solution_completeness

DEFAULT_N_MAX = 30
DEFAULT_X_MAX = 10**7
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class CommandConfig:
    command: str
    output_format: str
    options: dict[str, Any]


def _emit(sink: IO[str], obj: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        sink.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sink.write(" ".join(f"{k}={v}" for k, v in sorted(obj.items())) + "\n")


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
    p_oracle.add_argument("--k", type=int)
    p_oracle.add_argument("--d", type=int, help="generalized constant D")
    p_oracle.add_argument("--lam", type=int, help="generalized coefficient lambda")
    p_oracle.add_argument("--n-min", type=int, default=2)
    p_oracle.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_oracle.add_argument("--x-max", type=int, default=DEFAULT_X_MAX)

    p_family = sub.add_parser("family", help="materialize theorem solution families")
    p_family.add_argument("--k", type=int, required=True)
    p_family.add_argument(
        "--kind", choices=("n1", "n2", "n7", "all"), required=True
    )
    p_family.add_argument("--t", type=int, help="parameter for n1/n2")
    p_family.add_argument("--m", type=int, help="parameter for n7")
    p_family.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)

    p_lucas = sub.add_parser("lucas", help="Lucas number u_n for a pair (P, Q)")
    p_lucas.add_argument("--p", type=int, required=True)
    p_lucas.add_argument("--q", type=int, required=True)
    p_lucas.add_argument("--n", type=int, required=True)

    p_primdiv = sub.add_parser("primdiv", help="primitive-divisor test for u_n")
    p_primdiv.add_argument("--p", type=int, required=True)
    p_primdiv.add_argument("--q", type=int, required=True)
    p_primdiv.add_argument("--n", type=int, required=True)
    p_primdiv.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    p_class = sub.add_parser("classnum", help="class number by reduced forms")
    p_class.add_argument("--disc", type=int, required=True)

    p_verify = sub.add_parser("verify", help="oracle vs theorem set comparison")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--n-min", type=int, default=2)
    p_verify.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p_verify.add_argument("--x-max", type=int, default=DEFAULT_X_MAX)
    return parser


def _cmd_solve(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    try:
        solutions, trace = solve(
            opt["k"],
            opt["n_max"],
            opt["x_max"],
            cross_check=not opt["skip_oracle"],
            factoring_budget=opt["budget"],
        )
    except OracleMismatchError as exc:
        _emit(
            sink,
            {
                "kind": "oracle_mismatch",
                "k": exc.k,
                "pipeline_only": [list(map(str, t)) for t in exc.only_pipeline],
                "oracle_only": [list(map(str, t)) for t in exc.only_oracle],
            },
            cfg.output_format,
        )
        return 1
    for sol in solutions:
        _emit(sink, _solution_obj(sol, k=opt["k"]), cfg.output_format)
    if opt["trace"]:
        for step in trace.steps:
            _emit(sink, {"kind": "trace_step", **step.to_jsonable()}, cfg.output_format)
    _emit(
        sink,
        {
            "kind": "trace_summary",
            "k": opt["k"],
            "steps": len(trace.steps),
            "solutions": len(solutions),
            "oracle_checked": trace.oracle_checked,
        },
        cfg.output_format,
    )
    return 0


def _cmd_oracle(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    if opt.get("d") is not None or opt.get("lam") is not None:
        if opt.get("d") is None or opt.get("lam") is None:
            print("ln-kit oracle: --d and --lam must be given together", file=sys.stderr)
            raise SystemExit(2)
        triples = generalized_scan(
            opt["d"], opt["lam"], opt["n_min"], opt["n_max"], opt["x_max"]
        )
        for x, y, n in triples:
            _emit(
                sink,
                {
                    "kind": "triple",
                    "d": opt["d"],
                    "lam": opt["lam"],
                    "x": str(x),
                    "y": str(y),
                    "n": n,
                },
                cfg.output_format,
            )
        return 0
    if opt.get("k") is None:
        print("ln-kit oracle: provide --k, or both --d and --lam", file=sys.stderr)
        raise SystemExit(2)
    window = SearchWindow(
        k=opt["k"], n_min=opt["n_min"], n_max=opt["n_max"], x_max=opt["x_max"]
    )
    for sol in brute_force(window):
        _emit(sink, _solution_obj(sol, k=opt["k"]), cfg.output_format)
    return 0


def _cmd_family(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    inst = LNInstance(opt["k"])
    if opt["kind"] == "all":
        for sol in theorem_solution_set(inst, opt["n_max"]):
            _emit(sink, _solution_obj(sol, k=opt["k"]), cfg.output_format)
        return 0
    if opt["kind"] in ("n1", "n2"):
        if opt.get("t") is None:
            print("ln-kit family: --t is required for n1/n2", file=sys.stderr)
            raise SystemExit(2)
        spec = FamilySpec.n1(opt["t"]) if opt["kind"] == "n1" else FamilySpec.n2(opt["t"])
    else:
        if opt.get("m") is None:
            print("ln-kit family: --m is required for n7", file=sys.stderr)
            raise SystemExit(2)
        spec = FamilySpec.n7(opt["m"])
    sol = instantiate_family(inst, spec)
    _emit(
        sink,
        _solution_obj(sol, k=opt["k"], family=opt["kind"], param=spec.param),
        cfg.output_format,
    )
    return 0


def _cmd_lucas(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    value = lucas_u(LucasPair(opt["p"], opt["q"]), opt["n"])
    _emit(
        sink,
        {
            "kind": "lucas_u",
            "p": opt["p"],
            "q": opt["q"],
            "n": opt["n"],
            "u_n": str(value),
        },
        cfg.output_format,
    )
    return 0


def _cmd_primdiv(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    verdict = primitive_divisor(
        LucasPair(opt["p"], opt["q"]), opt["n"], opt["budget"]
    )
    _emit(
        sink,
        {
            "kind": "primitive_divisor",
            "p": opt["p"],
            "q": opt["q"],
            **verdict.to_jsonable(),
        },
        cfg.output_format,
    )
    return 0


def _cmd_classnum(cfg: CommandConfig, sink: IO[str]) -> int:
    count = class_number_imag(cfg.options["disc"])
    _emit(
        sink,
        {
            "kind": "class_number",
            "disc": count.discriminant,
            "h": count.h,
            "forms": [list(f) for f in count.forms],
        },
        cfg.output_format,
    )
    return 0


def _cmd_verify(cfg: CommandConfig, sink: IO[str]) -> int:
    opt = cfg.options
    window = SearchWindow(
        k=opt["k"], n_min=opt["n_min"], n_max=opt["n_max"], x_max=opt["x_max"]
    )
    ok, report = verify_solution_completeness(opt["k"], window)
    _emit(sink, {"kind": "verify_report", **report}, cfg.output_format)
    return 0 if ok else 1


_HANDLERS = {
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "family": _cmd_family,
    "lucas": _cmd_lucas,
    "primdiv": _cmd_primdiv,
    "classnum": _cmd_classnum,
    "verify": _cmd_verify,
}


def run(cfg: CommandConfig, sink: IO[str]) -> int:
    return _HANDLERS[cfg.command](cfg, sink)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    options = {k: v for k, v in vars(args).items() if k not in ("command", "output_format")}
    cfg = CommandConfig(
        command=args.command, output_format=args.output_format, options=options
    )
    try:
        return run(cfg, sys.stdout)
    except (ValueError, OverflowError) as exc:
        print(f"ln-kit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
