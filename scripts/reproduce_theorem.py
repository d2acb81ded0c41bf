#!/usr/bin/env python3
"""Run the full decision procedure for a range of k and print what the proof
pipeline did: solutions found, branch closures, and the oracle cross-check.

Usage:
    python scripts/reproduce_theorem.py                # k = 0, 1, 2
    python scripts/reproduce_theorem.py --k-max 4 --x-max 1000000
    python scripts/reproduce_theorem.py --replay       # check every step

--replay runs solve again on each trace's header, checking every step against
the recorded one: once as recorded, and once rebuilt from its JSON form.
"""

from __future__ import annotations

import argparse
import json
import time
from collections import Counter

from ln_kit.oracle import DEFAULT_WINDOW
from ln_kit.solver import ProofTrace, solve


def rebuilt_from_json(trace: ProofTrace) -> ProofTrace:
    """The trace as a reader of its JSON form rebuilds it."""
    return ProofTrace.from_jsonable(json.loads(json.dumps(trace.to_jsonable())))


def replay_verdict(trace: ProofTrace) -> str:
    """The replay's outcome in one line: the number of divergences and the
    first, since a tampered header can diverge at thousands of steps."""
    diverged = trace.replay()
    if not diverged:
        return "all steps reproduced"
    return f"{len(diverged)} divergences, first: {diverged[0]}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=DEFAULT_WINDOW.n_max)
    ap.add_argument("--x-max", type=int, default=DEFAULT_WINDOW.x_max)
    ap.add_argument("--skip-oracle", action="store_true")
    ap.add_argument(
        "--replay", action="store_true", help="replay each trace, as recorded and from JSON"
    )
    args = ap.parse_args()

    for k in range(args.k_max + 1):
        t0 = time.monotonic()
        solutions, trace = solve(
            k, args.n_max, args.x_max, cross_check=not args.skip_oracle
        )
        dt = time.monotonic() - t0
        print(f"== k = {k}  (D = 19^{2*k+1}, n <= {args.n_max}, {dt:.2f}s) ==")
        for s in solutions:
            tag = "n7 family" if s.n == 7 else ("n2 family" if s.n == 2 else "")
            print(f"  x = {s.x}, y = {s.y}, n = {s.n}   {tag}")
        if not solutions:
            print("  (no solutions in range)")
        ops = Counter(step.op for step in trace.steps)
        closed = sum(
            1
            for step in trace.steps
            if getattr(step.value, "outcome", None) == "contradiction"
        )
        print(f"  proof steps: {len(trace.steps)} ({closed} branch closures)")
        print("  step kinds:", ", ".join(f"{op} x{n}" for op, n in sorted(ops.items())))
        if trace.oracle_checked:
            (scan,) = trace.find("oracle_cross_check")
            found = len(scan.value["solutions"])
            print(f"  oracle cross-check: {found} triples with x <= {args.x_max}, agreed")
        else:
            print("  oracle cross-check: skipped")
        if args.replay:
            print(f"  replay: {replay_verdict(trace)}")
            print(f"  replay from JSON: {replay_verdict(rebuilt_from_json(trace))}")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
