#!/usr/bin/env python3
"""Half-space exhaustion study: stabilization on a fixed window.

Solves the Dirichlet problem on growing half-balls with Gaussian boundary
data and reports, per radius, the solution sup norm, the energy on a fixed
observation window, and the sup difference of consecutive solutions there.
The box constraint enforces the uniform bound exactly at every radius.
"""

import argparse

import numpy as np

from quasimin import gaussian, solve_exhaustion


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", type=float, nargs="+", default=[2, 4, 8])
    ap.add_argument("--spacing", type=float, default=0.25)
    args = ap.parse_args()

    rep = solve_exhaustion(
        phi=lambda p: np.exp(-np.sum(p * p, axis=-1)),
        w=gaussian(1.0),
        radii=args.radii,
        h=args.spacing,
        window=[(0, 1), (0, 1)],
    )
    print(f"box bound: {rep.box_bound}, uniform bound ok: {rep.uniform_bound_ok}")
    print(f"{'R':>6s} {'sup|u|':>10s} {'E_window':>12s} {'E_full':>12s} {'E(phi)':>12s} {'win diff':>12s}")
    for k, (r, solve) in enumerate(zip(rep.radii, rep.reports)):
        diff = f"{rep.window_diffs[k - 1]:12.4e}" if k else "           -"
        print(
            f"{r:6.1f} {rep.sup_norms[k]:10.6f} {rep.window_energies[k]:12.6f} "
            f"{solve.final_energy:12.6f} {solve.energy_history[0]:12.6f} {diff}"
        )


if __name__ == "__main__":
    main()
