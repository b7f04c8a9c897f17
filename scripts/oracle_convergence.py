#!/usr/bin/env python3
"""Refinement study: variational minimizer vs. half-weight transform oracle.

Solves the scalar problem with f(u) = -u^2 and boundary data x*y on the
unit square at a ladder of resolutions, comparing the box-constrained
minimizer against the exact transform solution (harmonic extension of
W(phi) mapped back through W^{-1}).  Both discretizations are second
order, so their gap should shrink by roughly 4x per refinement, while the
preconditioned descent's iteration count stays flat.
"""

import argparse
import time

import numpy as np

from quasimin import (
    AdmissibleSet,
    DomainSpec,
    build_grid,
    gaussian,
    minimize,
    sample_boundary,
    solve_scalar_exact,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, nargs="+", default=[9, 17, 33, 65, 129, 257])
    args = ap.parse_args()

    w = gaussian(1.0)
    prev = None
    print(f"{'n':>5s} {'|min - oracle|_inf':>20s} {'ratio':>7s} {'iters':>6s} {'secs':>6s}")
    for n in args.levels:
        grid = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (n, n))
        bdry = sample_boundary(grid, lambda p: p[:, 0] * p[:, 1])
        t0 = time.perf_counter()
        u, rep = minimize(grid, w, AdmissibleSet.from_boundary(bdry))
        dt = time.perf_counter() - t0
        oracle = solve_scalar_exact(grid, w, bdry)
        diff = float(np.abs(u.values - oracle.values).max())
        ratio = f"{prev / diff:7.2f}" if prev else "      -"
        print(f"{n:5d} {diff:20.3e} {ratio} {rep.iterations:6d} {dt:6.2f}")
        prev = diff


if __name__ == "__main__":
    main()
