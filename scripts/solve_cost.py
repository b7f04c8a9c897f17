#!/usr/bin/env python3
"""Solve cost in units of one fast Poisson solve, under refinement.

Solves the scalar problem with f(u) = -u^2 and boundary data x*y on the
unit square [0, 1]^2 and on the unit disk (the masked box [-1, 1]^2 with
x1^2 + x2^2 <= 1), and prints per grid the descent's iterations and
energy evaluations, the solve time (the median over --repeat solves, the
harmonic start included), the time of one poisson_dirichlet on the same
grid and data, and their ratio.  The ratio is the cost of a solve in
Poisson solves: DST-I on the square, preconditioned CG on the disk.

The picard rows time solve_scalar_source on the unit square with the same
weight and data and the source h = 1: its Picard steps stand under iters
(evals reads -), and the ratio is again to one poisson_dirichlet.  BLAS
is held to one thread unless the environment sets it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import statistics
import time

import numpy as np

from quasimin import (
    AdmissibleSet,
    DomainSpec,
    SourceField,
    build_grid,
    gaussian,
    minimize,
    poisson_dirichlet,
    sample_boundary,
    solve_scalar_source,
)

_DOMAINS = {
    "square": DomainSpec.box([(0, 1), (0, 1)]),
    "disk": DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda x: np.sum(x * x, axis=-1) <= 1.0),
}


def _median_time(run, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--square", type=int, nargs="*", default=[65, 129, 257, 513])
    ap.add_argument("--disk", type=int, nargs="*", default=[65, 129, 257])
    ap.add_argument("--picard", type=int, nargs="*", default=[65, 129, 257])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    w = gaussian(1.0)
    print(f"{'domain':>6s} {'n':>5s} {'iters':>6s} {'evals':>6s} {'solve_s':>9s} "
          f"{'poisson_s':>9s} {'ratio':>6s}")
    for name, levels in (("square", args.square), ("disk", args.disk)):
        for n in levels:
            grid = build_grid(_DOMAINS[name], (n, n))
            bdry = sample_boundary(grid, lambda p: p[:, 0] * p[:, 1])
            adm = AdmissibleSet.from_boundary(bdry)
            solve_s, (_, rep) = _median_time(lambda: minimize(grid, w, adm), args.repeat)
            poisson_s, _ = _median_time(lambda: poisson_dirichlet(grid, None, bdry), args.repeat)
            print(f"{name:>6s} {n:5d} {rep.iterations:6d} {rep.energy_evals:6d} "
                  f"{solve_s:9.4f} {poisson_s:9.4f} {solve_s / poisson_s:6.1f}")
    for n in args.picard:
        grid = build_grid(_DOMAINS["square"], (n, n))
        bdry = sample_boundary(grid, lambda p: p[:, 0] * p[:, 1])
        h = SourceField(grid, np.ones(grid.dims))
        solve_s, (_, steps) = _median_time(lambda: solve_scalar_source(grid, w, bdry, h),
                                           args.repeat)
        poisson_s, _ = _median_time(lambda: poisson_dirichlet(grid, None, bdry), args.repeat)
        print(f"{'picard':>6s} {n:5d} {steps:6d} {'-':>6s} "
              f"{solve_s:9.4f} {poisson_s:9.4f} {solve_s / poisson_s:6.1f}")


if __name__ == "__main__":
    main()
