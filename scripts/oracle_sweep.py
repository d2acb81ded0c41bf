#!/usr/bin/env python3
"""Brute-force window sweeps: the main equation for several k, plus the
classical neighbouring equations as sanity anchors for the scanner itself.

Usage:
    python scripts/oracle_sweep.py
    python scripts/oracle_sweep.py --k-max 3 --x-max 100000
"""

from __future__ import annotations

import argparse
import time

from ln_kit.oracle import SearchWindow, brute_force, generalized_scan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=30)
    ap.add_argument("--x-max", type=int, default=10**6)
    args = ap.parse_args()

    print(f"main equation, n in [2, {args.n_max}], x <= {args.x_max}")
    for k in range(args.k_max + 1):
        t0 = time.monotonic()
        sols = brute_force(SearchWindow(k=k, n_max=args.n_max, x_max=args.x_max))
        dt = time.monotonic() - t0
        shown = ", ".join(f"({s.x},{s.y},{s.n})" for s in sols) or "none"
        print(f"  k = {k}: {shown}   [{dt:.2f}s]")

    print("\nneighbouring equations (x^2 + D = lam * y^n):")
    lebesgue = generalized_scan(1, 1, 3, 20, 10**5)
    print(f"  D=1, lam=1, n in [3,20], x <= 1e5: {lebesgue or 'none'} (expected none)")
    fermat = generalized_scan(2, 1, 3, 3, 100)
    print(f"  D=2, lam=1, n=3, x <= 100: {fermat} (expected [(5, 3, 3)])")
    rn = generalized_scan(7, 1, 2, 15, 10**4)
    print(f"  D=7, lam=1, n in [2,15], x <= 1e4: {rn}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
