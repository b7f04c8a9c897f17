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
(evals reads -), and the ratio is again to one poisson_dirichlet.  Before
the table, each kind of row runs once untimed at n = 17.  BLAS is held to
one thread unless the environment sets it.
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
_WARM_UP_N = 17


def _median_time(run, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _row(name, n, w, repeat):
    """iters, evals, solve_s and poisson_s of one table row."""
    domain = _DOMAINS["square" if name == "picard" else name]
    grid = build_grid(domain, (n, n))
    bdry = sample_boundary(grid, lambda p: p[:, 0] * p[:, 1])
    if name == "picard":
        h = SourceField(grid, np.ones(grid.dims))
        solve_s, (_, iters) = _median_time(lambda: solve_scalar_source(grid, w, bdry, h), repeat)
        evals = "-"
    else:
        adm = AdmissibleSet.from_boundary(bdry)
        solve_s, (_, rep) = _median_time(lambda: minimize(grid, w, adm), repeat)
        iters, evals = rep.iterations, rep.energy_evals
    poisson_s, _ = _median_time(lambda: poisson_dirichlet(grid, None, bdry), repeat)
    return iters, evals, solve_s, poisson_s


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--square", type=int, nargs="*", default=[65, 129, 257, 513])
    ap.add_argument("--disk", type=int, nargs="*", default=[65, 129, 257])
    ap.add_argument("--picard", type=int, nargs="*", default=[65, 129, 257])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    w = gaussian(1.0)
    rows = [(name, n) for name in ("square", "disk", "picard") for n in getattr(args, name)]
    # the first solve of each kind pays imports and first-call set-up
    # (scipy.fft, scipy.sparse); an untimed small solve keeps that out of
    # the table
    for name in dict.fromkeys(name for name, _ in rows):
        _row(name, _WARM_UP_N, w, 1)
    print(f"{'domain':>6s} {'n':>5s} {'iters':>6s} {'evals':>6s} {'solve_s':>9s} "
          f"{'poisson_s':>9s} {'ratio':>6s}")
    for name, n in rows:
        iters, evals, solve_s, poisson_s = _row(name, n, w, args.repeat)
        print(f"{name:>6s} {n:5d} {iters:6d} {evals:>6} "
              f"{solve_s:9.4f} {poisson_s:9.4f} {solve_s / poisson_s:6.1f}")


if __name__ == "__main__":
    main()
