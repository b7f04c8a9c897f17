"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion NN] PASS/FAIL` line (visible with
`pytest -s`).  Module-scoped fixtures share the expensive solves between
criteria; criterion 2 (feasibility and bound) is checked across every
minimization run the suite performs.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from quasimin import (
    AdmissibleSet,
    CoefficientTensor,
    DomainSpec,
    Field,
    SolveOptions,
    build_grid,
    ellipticity_bounds,
    gaussian,
    harmonic_residual,
    minimize,
    sample_boundary,
    solve_exhaustion,
    solve_harmonic_pair,
    solve_scalar_exact,
    sup_distance,
)
from quasimin.cli import main as cli_main
from quasimin.energy import energy_raw, grad_raw


def _report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def _square_problem(n):
    grid = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (n, n))
    bdry = sample_boundary(grid, lambda p: p[:, 0] * p[:, 1])
    return grid, bdry, AdmissibleSet.from_boundary(bdry)


def _interval_problem(n):
    grid = build_grid(DomainSpec.box([(0, 1)]), (n,))
    bdry = sample_boundary(grid, lambda p: p[:, 0])
    return grid, bdry, AdmissibleSet.from_boundary(bdry)


def _geodesic_boundary(grid):
    def expr(p):
        out = np.zeros((p.shape[0], 3))
        out[p[:, 0] < 0.5, 0] = 1.0
        out[p[:, 0] >= 0.5, 1] = 1.0
        return out

    return sample_boundary(grid, expr)


@pytest.fixture(scope="module")
def runs():
    """All shared solves, with wall times, plus a feasibility registry."""
    data = {"feasibility": [], "times": {}}
    w = gaussian(1.0)

    t0 = time.perf_counter()
    for n in (33, 65):
        grid, bdry, adm = _square_problem(n)
        u, rep = minimize(grid, w, adm)
        oracle = solve_scalar_exact(grid, w, bdry)
        data[f"square_{n}"] = (grid, adm, u, rep, oracle)
        data["feasibility"].append((f"square_{n}", grid, adm, u, rep))
    data["times"]["oracle_2d"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid1, bdry1, adm1 = _interval_problem(257)
    u1, rep1 = minimize(grid1, w, adm1)
    data["interval_257"] = (grid1, adm1, u1, rep1, bdry1)
    data["feasibility"].append(("interval_257", grid1, adm1, u1, rep1))
    data["times"]["oracle_1d"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    grid_g = build_grid(DomainSpec.box([(0, 1)]), (201,))
    pair = solve_harmonic_pair(grid_g, _geodesic_boundary(grid_g))
    data["geodesic"] = (grid_g, pair)
    data["times"]["geodesic"] = time.perf_counter() - t0

    # weight-shift pair on the 33x33 problem with matched tolerances
    grid_s, _, adm_s = _square_problem(33)
    tol = 1e-10
    u_base, rep_base = minimize(grid_s, w, adm_s, opts=SolveOptions(tol_pg=tol))
    u_shift, rep_shift = minimize(
        grid_s, w.shifted(1.0), adm_s, opts=SolveOptions(tol_pg=tol * np.e)
    )
    data["shift"] = (grid_s, adm_s, u_base, u_shift, rep_base, rep_shift)
    data["feasibility"].append(("shift_base", grid_s, adm_s, u_base, rep_base))
    data["feasibility"].append(("shift_e", grid_s, adm_s, u_shift, rep_shift))

    # anisotropic identity-tensor run on the same problem
    u_iso, rep_iso = minimize(grid_s, w, adm_s)
    u_aniso, rep_aniso = minimize(grid_s, w, adm_s, A=CoefficientTensor.identity())
    data["aniso"] = (u_iso, u_aniso, rep_iso, rep_aniso)
    data["feasibility"].append(("aniso", grid_s, adm_s, u_aniso, rep_aniso))

    t0 = time.perf_counter()
    data["exhaustion"] = solve_exhaustion(
        phi=lambda p: np.exp(-np.sum(p * p, axis=-1)),
        w=w,
        radii=[2, 4, 8],
        h=0.25,
        window=[(0, 1), (0, 1)],
    )
    data["times"]["exhaustion"] = time.perf_counter() - t0
    return data


def test_criterion_01_gradient_exactness():
    t0 = time.perf_counter()
    grid = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (8, 8))
    rng = np.random.default_rng(20240817)
    vals = rng.uniform(-1.0, 1.0, grid.dims + (2,))
    vals[~grid.in_mask] = 0.0
    w = gaussian(1.0)
    analytic = grad_raw(grid, vals, w)
    step = 1e-5 * (1.0 + np.abs(vals).max())
    fd = np.zeros_like(analytic)
    for idx in np.ndindex(*grid.dims):
        if not grid.interior_mask[idx]:
            continue
        for a in range(2):
            up = vals.copy()
            up[idx + (a,)] += step
            dn = vals.copy()
            dn[idx + (a,)] -= step
            fd[idx + (a,)] = (
                energy_raw(grid, up, w)[0] - energy_raw(grid, dn, w)[0]
            ) / (2 * step)
    rel = float(np.abs(analytic - fd).max()) / max(float(np.abs(analytic).max()), 1e-300)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "gradient matches central differences (8x8, N=2, gaussian(1))",
        rel <= 1e-6 and elapsed < 1.0,
        f"rel={rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_feasibility_and_bound(runs):
    ok = True
    details = []
    for name, grid, adm, u, rep in runs["feasibility"]:
        flat = u.flat()
        boundary_exact = np.array_equal(flat[grid.boundary_indices], adm.boundary.values)
        box_ok = bool(np.all(np.abs(flat[grid.in_mask.ravel()]) <= adm.box))
        sup_ok = u.sup_norm() <= float(np.abs(adm.box).max())
        ok &= boundary_exact and box_ok and sup_ok
        if not (boundary_exact and box_ok and sup_ok):
            details.append(name)
    for sup, cap in zip(runs["exhaustion"].sup_norms, [float(runs["exhaustion"].box_bound.max())] * 3):
        ok &= sup <= cap
    _report(
        2,
        "every minimizer is feasible bit-exactly with sup norm <= box bound",
        ok,
        f"{len(runs['feasibility'])} solves checked" + (f"; failed: {details}" if details else ""),
    )


def test_criterion_03_transform_oracle_agreement(runs):
    _, _, u33, _, o33 = runs["square_33"]
    _, _, u65, _, o65 = runs["square_65"]
    d33 = float(np.abs(u33.values - o33.values).max())
    d65 = float(np.abs(u65.values - o65.values).max())
    elapsed = runs["times"]["oracle_2d"]
    _report(
        3,
        "2D minimizer matches transform oracle and refines at factor >= 3",
        d65 <= 5e-3 and d33 / d65 >= 3.0 and elapsed < 60.0,
        f"diff65={d65:.2e}, ratio={d33 / d65:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_analytic_midpoint_value(runs):
    grid, _, u, _, bdry = runs["interval_257"]
    w1_ref, _ = quad(lambda s: np.exp(-s * s / 2.0), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    assert w1_ref == pytest.approx(0.855624, abs=1e-6)
    ref = brentq(
        lambda t: quad(lambda s: np.exp(-s * s / 2.0), 0.0, t)[0] - 0.5 * w1_ref,
        0.0,
        1.0,
        xtol=1e-13,
    )
    mid = float(u.values[128, 0])
    elapsed = runs["times"]["oracle_1d"]
    ok = abs(mid - 0.4422) <= 1e-3 and abs(mid - ref) <= 1e-3 and elapsed < 5.0
    _report(
        4,
        "1D midpoint value matches the quadrature + root-find oracle",
        ok,
        f"u(0.5)={mid:.6f}, oracle={ref:.6f}, {elapsed:.1f}s",
    )


def test_criterion_05_two_harmonic_maps(runs):
    grid, (r1, r2) = runs["geodesic"]
    e_lo, e_hi = sorted([r1.dirichlet_energy, r2.dirichlet_energy])
    short_ref = np.pi**2 / 4.0
    long_ref = 9.0 * np.pi**2 / 4.0
    dist = sup_distance(r1.mapped, r2.mapped)
    elapsed = runs["times"]["geodesic"]
    ok = (
        abs(e_lo - short_ref) <= 0.02 * short_ref
        and abs(e_hi - long_ref) <= 0.02 * long_ref
        and dist >= 1.0
        and r1.report.converged
        and r2.report.converged
        and elapsed < 30.0
    )
    _report(
        5,
        "geodesic pair energies near pi^2/4 and 9pi^2/4, solutions distinct",
        ok,
        f"E=({e_lo:.4f}, {e_hi:.4f}), dist={dist:.2f}, {elapsed:.1f}s",
    )


def test_criterion_06_harmonic_residual_order():
    res = []
    for n in (51, 101, 201):
        grid = build_grid(DomainSpec.box([(0, 1)]), (n,))
        th = grid.axis_coords()[0] * (np.pi / 2.0)
        V = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
        res.append(harmonic_residual(grid, Field(grid, V)))
    r1 = res[0] / res[1]
    r2 = res[1] / res[2]
    _report(
        6,
        "sampled geodesic residual decreases by a factor in [3, 5] per halving",
        3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0,
        f"ratios=({r1:.2f}, {r2:.2f})",
    )


def test_criterion_07_weight_shift_invariance(runs):
    grid, adm, u_base, u_shift, rep_base, rep_shift = runs["shift"]
    sup_diff = float(np.abs(u_base.values - u_shift.values).max())
    e_base = rep_base.final_energy
    e_shift = rep_shift.final_energy
    ratio_err = abs(e_shift / e_base - np.e) / np.e
    ok = sup_diff <= 1e-6 and ratio_err <= 1e-10
    _report(
        7,
        "minimizers for f and f+1 coincide; energies differ by the factor e",
        ok,
        f"sup_diff={sup_diff:.2e}, ratio_err={ratio_err:.2e}",
    )


def test_criterion_08_ellipticity_estimator():
    pts = np.array([[0.25, 0.5], [0.75, 0.25], [0.5, 0.75]])
    lo_i, hi_i = ellipticity_bounds(CoefficientTensor.identity(), pts)
    mixed = CoefficientTensor.diagonal([1.0, 3.0])
    lo_m, hi_m = ellipticity_bounds(mixed, pts)
    ok = (
        abs(lo_i - 1.0) <= 1e-12
        and abs(hi_i - 1.0) <= 1e-12
        and abs(lo_m - 1.0) <= 1e-12
        and abs(hi_m - 3.0) <= 1e-12
    )
    _report(
        8,
        "ellipticity bounds exact for identity and diagonal {1,3} tensors",
        ok,
        f"identity=({lo_i}, {hi_i}), diag=({lo_m}, {hi_m})",
    )


def test_criterion_09_anisotropic_consistency(runs):
    u_iso, u_aniso, rep_iso, rep_aniso = runs["aniso"]
    ok = np.array_equal(u_iso.values, u_aniso.values) and np.array_equal(
        rep_iso.energy_history, rep_aniso.energy_history
    )
    _report(
        9,
        "identity-tensor anisotropic path reproduces the isotropic run bit-exactly",
        ok,
        f"iters={rep_iso.iterations}/{rep_aniso.iterations}",
    )


def test_criterion_10_halfspace_stabilization(runs):
    rep = runs["exhaustion"]
    elapsed = runs["times"]["exhaustion"]
    diffs = rep.window_diffs
    ok = (
        rep.uniform_bound_ok
        and len(diffs) == 2
        and all(np.isfinite(d) for d in diffs)
        and diffs[1] <= diffs[0]
        and elapsed < 120.0
    )
    _report(
        10,
        "half-space window differences contract; uniform bound holds at all radii",
        ok,
        f"diffs=({diffs[0]:.3e}, {diffs[1]:.3e}), {elapsed:.1f}s",
    )


SOLVE_SPEC = """
mode = solve

[domain]
kind = box
extents = 0 1 ; 0 1
resolution = 17 17

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = x1 * x2
"""


def test_criterion_11_determinism(tmp_path):
    spec = tmp_path / "p.cfg"
    spec.write_text(SOLVE_SPEC)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["solve", "--spec", str(spec), "--out-dir", str(out)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("solution.field", "summary.txt", "history.csv")
    )
    _report(
        11,
        "same spec file produces byte-identical field dumps and summaries",
        same,
    )
