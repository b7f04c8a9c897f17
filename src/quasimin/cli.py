"""Batch front end: parse a problem spec, run a solver, write artifacts.

Usage: quasimin <mode> --spec FILE [--out-dir DIR] [--seed N]

Modes map one-to-one onto spec-file modes.  One writer writes exactly the
files `spec.outputs` names, and every run writes a machine-readable
summary, even on solver non-convergence; field dumps and summaries are
byte-identical across reruns of the same spec.  Wall-clock timings go to
a separate timing file so the compared artifacts stay deterministic:
`wall_time_s` for the run and `write_s` for its artifact writes.

Exit codes: 0 converged, 2 not converged or a numerical failure (the
summary then carries `error`), 3 spec or usage error, 4 I/O failure.  A
failure counts as a spec error when it comes from evaluating what the
spec gives: the grid, the boundary, source and tensor expressions, the
box bound and the half-space geometry.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import fieldio
from .energy import el_residual, energy, energy_raw, grad_raw, sample_tensor
from .grids import BoundaryData, build_grid, sample_boundary
from .optim import AdmissibleSet, minimize
from .oracle import ConvergenceError, SourceField, solve_scalar_exact, solve_scalar_source
from .halfspace import solve_exhaustion
from .specfile import MODES, TIMING_FILE, SpecError, parse_problem
from .sphere import solve_harmonic_pair, sup_distance

_Q_EXPONENTS = (2.0, 2.5, 3.0)


class _RunError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _from_spec(what, fn, *args, **kwargs):
    """Run a step whose ValueError is a defect of the spec (exit 3)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _RunError(3, f"{what}: {exc}") from None


def _grid_and_boundary(spec):
    grid = _from_spec("grid", build_grid, spec.domain, spec.resolution)
    return grid, _from_spec("boundary evaluation", sample_boundary, grid, spec.boundary)


def _source_field(grid, expr):
    values = expr(grid.points())[..., 0]
    return SourceField(grid, np.where(grid.in_mask, values, 0.0))


def _write(outputs, outdir, artifacts):
    """Write each artifact to the file that outputs names for its key."""
    for key, value in artifacts.items():
        path = os.path.join(outdir, outputs[key])
        if key.startswith("field"):
            fieldio.write_field(value, path)
        elif key.startswith("history"):
            fieldio.write_history(value.energy_history, value.pg_history, path)
        else:
            fieldio.write_summary(value, path)


# Each runner returns its artifacts by spec.outputs key: the summary items,
# the fields and the solve reports whose histories are written.  Only
# gradcheck reads the seed.
def _run_solve(spec, seed):
    grid, bdry = _grid_and_boundary(spec)
    adm = _from_spec("box bound", AdmissibleSet.from_boundary, bdry, box=spec.box_bound)
    # sampled and checked once, wherever the solve and both reports read it
    A = _from_spec("tensor evaluation", sample_tensor, grid, spec.tensor)
    U, report = minimize(grid, spec.weight, adm, A=A, opts=spec.solver)
    ev = energy(grid, U, spec.weight, A=A, q_exponents=_Q_EXPONENTS)
    res = el_residual(grid, U, spec.weight, A=A, box=adm.box)
    items = {
        "mode": "solve",
        "converged": report.converged,
        "iterations": report.iterations,
        "final_energy": report.final_energy,
        "pg_norm": report.final_pg,
        "tol_pg": report.tol_pg,
        "active_constraints": report.active_count,
        "line_search_failures": report.line_search_failures,
        "energy_evals": report.energy_evals,
        "backtracks": report.backtracks,
        "factorizations": report.factorizations,
        "el_residual": float(np.abs(res.values).max()),
        "box_bound": " ".join(fieldio._fmt(c) for c in adm.box),
    }
    for q in _Q_EXPONENTS:
        items[f"qnorm_{q:g}"] = ev.q_norms[q]
    return {"field": U, "history": report, "summary": items}


def _run_oracle(spec, seed):
    grid, bdry = _grid_and_boundary(spec)
    if spec.source is not None:
        src = _from_spec("source evaluation", _source_field, grid, spec.source)
        U, iters = solve_scalar_source(
            grid, spec.weight, bdry, src, damping=spec.source_damping
        )
    else:
        U, iters = solve_scalar_exact(grid, spec.weight, bdry), 0
    ev = energy(grid, U, spec.weight, q_exponents=_Q_EXPONENTS)
    res = el_residual(grid, U, spec.weight)
    items = {
        "mode": "oracle",
        "converged": True,
        "iterations": iters,
        "final_energy": ev.value,
        "el_residual": float(np.abs(res.values).max()),
    }
    for q in _Q_EXPONENTS:
        items[f"qnorm_{q:g}"] = ev.q_norms[q]
    return {"field": U, "summary": items}


def _run_sphere(spec, seed):
    grid, bdry = _grid_and_boundary(spec)
    norms = np.linalg.norm(bdry.values, axis=-1)
    if norms.min() < 1e-8:
        raise _RunError(3, "sphere boundary expression vanishes at a node")
    bdry = BoundaryData(grid, bdry.values / norms[:, None])
    r1, r2 = solve_harmonic_pair(grid, bdry, opts=spec.solver)
    items = {
        "mode": "sphere",
        "converged": r1.report.converged and r2.report.converged,
        "energy_a": r1.dirichlet_energy,
        "energy_b": r2.dirichlet_energy,
        "chart_energy_a": r1.report.final_energy,
        "chart_energy_b": r2.report.final_energy,
        "residual_a": r1.residual,
        "residual_b": r2.residual,
        "sup_distance": sup_distance(r1.mapped, r2.mapped),
        "iterations_a": r1.report.iterations,
        "iterations_b": r2.report.iterations,
        "pole": " ".join(fieldio._fmt(c) for c in r1.pole.pole),
    }
    return {"field_a": r1.mapped, "history_a": r1.report,
            "field_b": r2.mapped, "history_b": r2.report, "summary": items}


def _run_halfspace(spec, seed):
    # solve_exhaustion checks the geometry and the box bound in the same
    # call as its solves, so every ValueError it raises counts as a spec
    # error; a non-finite energy in a solve is a FloatingPointError, which
    # main reports as a numerical failure
    rep = _from_spec(
        "halfspace",
        solve_exhaustion,
        phi=spec.halfspace_fn,
        w=spec.weight,
        radii=spec.radii,
        h=spec.spacing,
        window=spec.window,
        opts=spec.solver,
        box_bound=spec.box_bound,
    )
    items = {
        "mode": "halfspace",
        "converged": rep.converged_all,
        "uniform_bound_ok": rep.uniform_bound_ok,
        "box_bound": " ".join(fieldio._fmt(c) for c in rep.box_bound),
    }
    for k, (r, solve_rep) in enumerate(zip(rep.radii, rep.reports)):
        items[f"radius_{k}"] = r
        items[f"sup_norm_{k}"] = rep.sup_norms[k]
        items[f"window_energy_{k}"] = rep.window_energies[k]
        items[f"energy_{k}"] = solve_rep.final_energy
        items[f"competitor_energy_{k}"] = solve_rep.energy_history[0]
        items[f"iterations_{k}"] = solve_rep.iterations
    for k, d in enumerate(rep.window_diffs, start=1):
        items[f"window_diff_{k}"] = d
    return {"field": rep.window_fields[-1], "history": rep.reports[-1], "summary": items}


def _run_gradcheck(spec, seed):
    grid = _from_spec("grid", build_grid, spec.domain, spec.resolution)
    ncomp = spec.gradcheck_components
    w = spec.weight
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, grid.dims + (ncomp,))
    vals[~grid.in_mask] = 0.0
    analytic = grad_raw(grid, vals, w)
    step = spec.gradcheck_step * (1.0 + float(np.abs(vals).max()))
    fd = np.zeros_like(analytic)
    for idx in np.ndindex(*grid.dims):
        if not grid.interior_mask[idx]:
            continue
        for a in range(ncomp):
            up = vals.copy()
            up[idx + (a,)] += step
            dn = vals.copy()
            dn[idx + (a,)] -= step
            fd[idx + (a,)] = (
                energy_raw(grid, up, w)[0] - energy_raw(grid, dn, w)[0]
            ) / (2.0 * step)
    denom = max(float(np.abs(analytic).max()), 1e-300)
    rel = float(np.abs(analytic - fd).max()) / denom
    print(f"gradcheck max relative error: {rel:.6e}")
    return {"summary": {"mode": "gradcheck", "converged": rel <= 1e-6, "max_rel_error": rel,
                        "fd_step": step, "seed": seed, "components": ncomp}}


_RUNNERS = {
    "solve": _run_solve,
    "oracle": _run_oracle,
    "sphere": _run_sphere,
    "halfspace": _run_halfspace,
    "gradcheck": _run_gradcheck,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasimin",
        description="Energy-minimizing solver for exponentially weighted "
        "quasi-linear elliptic systems",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--spec", required=True, help="problem spec file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="seed for gradcheck fields")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; exit 2 means non-convergence here
        return 3 if exc.code else 0

    try:
        with open(args.spec) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 4

    try:
        spec = parse_problem(text)
    except SpecError as exc:
        for diag in exc.diagnostics:
            print(f"spec error: {diag}", file=sys.stderr)
        return 3
    if spec.mode != args.mode:
        print(
            f"spec error: spec file declares mode {spec.mode!r}, "
            f"subcommand is {args.mode!r}",
            file=sys.stderr,
        )
        return 3

    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create out dir: {exc}", file=sys.stderr)
        return 4

    t0 = time.perf_counter()
    try:
        artifacts = _RUNNERS[spec.mode](spec, args.seed)
    except _RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        artifacts = {"summary": {"mode": spec.mode, "converged": False, "error": str(exc)}}

    t_write = time.perf_counter()
    try:
        _write(spec.outputs, args.out_dir, artifacts)
        t_end = time.perf_counter()
        with open(os.path.join(args.out_dir, TIMING_FILE), "w") as fh:
            fh.write(f"wall_time_s = {t_end - t0:.6f}\n"
                     f"write_s = {t_end - t_write:.6f}\n")
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    return 0 if artifacts["summary"]["converged"] else 2


if __name__ == "__main__":
    sys.exit(main())
