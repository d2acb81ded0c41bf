"""Exact solver, proof replayer and brute-force verifier for
x^2 + 19^(2k+1) = 4*y^n over the positive integers."""
