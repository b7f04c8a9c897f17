import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from quasimin import (
    DomainSpec,
    Field,
    SourceField,
    TransformTable,
    Weight,
    build_grid,
    constant,
    el_residual,
    gaussian,
    poisson_dirichlet,
    sample_boundary,
    solve_scalar_exact,
    solve_scalar_source,
    sphere_chart,
)
from quasimin import oracle
from quasimin.grids import BoundaryData
from stencils import minus_laplacian, neighbor


def interval(n):
    return build_grid(DomainSpec.box([(0, 1)]), (n,))


def gauss_w1():
    """Independent quadrature oracle for W(1) with f(s) = -s^2."""
    val, _ = quad(lambda s: np.exp(-s * s / 2.0), 0.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    return val


def test_table_linear_for_constant_weight():
    table = TransformTable(constant(0.5), 2.0)
    u = np.linspace(-2, 2, 17)
    assert np.allclose(table.forward(u), np.exp(0.25) * u, rtol=1e-13, atol=1e-14)


def test_table_gaussian_matches_quadrature_oracle():
    table = TransformTable(gaussian(1.0), 3.0)
    assert float(table.forward(np.array(1.0))) == pytest.approx(gauss_w1(), abs=1e-12)


@given(st.floats(min_value=-2.5, max_value=2.5, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_table_round_trip(u):
    table = TransformTable(gaussian(1.0), 3.0)
    back = float(table.inverse(table.forward(np.array(u))))
    assert abs(back - u) <= 1e-10


def test_table_overflow_rejected():
    grow = Weight(f=lambda U: np.sum(U * U, axis=-1), g=lambda U: -2 * np.ones(U.shape[:-1]))
    with pytest.raises(OverflowError):
        TransformTable(grow, 60.0)


def test_table_whose_density_underflows_is_cut_back():
    # e^{-u^2/2} underflows to 0 past |u| = 38.6: range 38 builds as asked,
    # range 39 is cut back to the inner end of its first empty interval
    kept = TransformTable(gaussian(1.0), 38.0)
    assert kept.range_m == 38.0 and kept.table_u[-1] == 38.0
    cut = TransformTable(gaussian(1.0), 39.0)
    assert 38.5 < cut.range_m < 38.61
    assert (oracle._gl_integrate(cut._density, cut.table_u[:-1], cut.table_u[1:]) > 0).all()
    assert abs(float(cut.forward(np.array(9.0))) - float(kept.forward(np.array(9.0)))) <= 1e-15
    with pytest.raises(ValueError, match="transform density must be positive on the range"):
        cut.forward(np.array([38.7]))
    # a density that is 0 next to u = 0 leaves no range
    with pytest.raises(ValueError, match="transform density must be positive on the range"):
        TransformTable(gaussian(400.0), 14.0).forward(np.array([3.0]))
    with pytest.raises(ValueError, match="transform density must be positive on the range"):
        TransformTable(Weight(f=lambda U: np.full(U.shape[:-1], -2000.0),
                              g=lambda U: np.zeros(U.shape[:-1])), 1.0)


def test_poisson_exact_on_linears():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    bd = sample_boundary(g, lambda p: 2.0 * p[:, 0] - p[:, 1] + 0.25)
    sol = poisson_dirichlet(g, None, bd)
    pts = g.points()
    exact = 2.0 * pts[..., 0] - pts[..., 1] + 0.25
    assert np.abs(sol.values[..., 0] - exact).max() < 1e-10


def test_poisson_exact_on_quadratic_1d():
    g = interval(17)
    bd = sample_boundary(g, lambda p: np.zeros(p.shape[0]))
    rhs = SourceField(g, np.full(g.dims, 2.0))
    sol = poisson_dirichlet(g, rhs, bd)
    x = g.axis_coords()[0]
    assert np.abs(sol.values[:, 0] - x * (1 - x)).max() < 1e-10


def test_poisson_constant_boundary_gives_constant():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (7, 7))
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.8))
    sol = poisson_dirichlet(g, None, bd)
    assert np.abs(sol.values - 0.8).max() < 1e-12


def _unit_ball(ndim):
    return DomainSpec.masked_box([(-1, 1)] * ndim, lambda x: np.sum(x * x, axis=-1) <= 1.0)


def _disk():
    return _unit_ball(2)


def _two_component_data(g):
    return sample_boundary(g, lambda p: np.stack(
        [np.sin(3 * p[:, 0]) + p[:, 1], np.cos(2 * p[:, 1]) * p[:, 0]], axis=1))


def _random_source(g):
    vals = np.random.default_rng(5).standard_normal(g.dims)
    return SourceField(g, np.where(g.in_mask, vals, 0.0))



@pytest.mark.parametrize(
    "domain, resolution",
    [(_disk(), (17, 17)), (DomainSpec.half_ball(1.0, 3), (11, 13, 7)),
     (DomainSpec.box([(0, 1)]), (9,))],
    ids=["disk", "half_ball_3d", "interval"],
)
@pytest.mark.parametrize("comps", [(), (2,)], ids=["scalar", "vector"])
def test_neighbor_sum_is_the_zero_padded_sum(domain, resolution, comps):
    g = build_grid(domain, resolution)
    v = np.random.default_rng(7).standard_normal(g.dims + comps)
    want = np.zeros_like(v)
    for ax, h in enumerate(g.spacing):
        for step in (+1, -1):
            want += neighbor(v, ax, step) / h**2
    assert np.array_equal(oracle._neighbor_sum(v, g), want)

@pytest.mark.parametrize(
    "domain, resolution",
    [(_disk(), (17, 17)), (DomainSpec.half_ball(1.0, 2), (17, 9)),
     # the direct box path, unequal spacing on every axis
     (DomainSpec.box([(0, 1), (0, 3)]), (13, 21)),
     (DomainSpec.box([(0, 1), (-1, 1), (0, 0.5)]), (9, 12, 7)),
     (_unit_ball(3), (11, 11, 11)), (DomainSpec.half_ball(1.0, 3), (11, 13, 7))],
    ids=["disk", "half_ball", "box_2d", "box_3d", "ball_3d", "half_ball_3d"],
)
def test_poisson_masked_solves_the_5_point_stencil(domain, resolution):
    g = build_grid(domain, resolution)
    bd = _two_component_data(g)
    rhs = _random_source(g)
    v = poisson_dirichlet(g, rhs, bd).values
    assert np.array_equal(v.reshape(-1, 2)[g.boundary_indices], bd.values)
    assert np.all(v[~g.in_mask] == 0.0)
    lap = minus_laplacian(v, g.spacing)
    inner = g.interior_mask
    resid = np.abs(lap[inner] - rhs.values[inner][:, None]).max()
    # CG stops at a 2-norm residual of 1e-12 |b|, and |b|_inf <= scale
    scale = np.abs(rhs.values).max() + np.abs(bd.values).max() * sum(
        2.0 / h**2 for h in g.spacing)
    assert resid <= 1e-12 * np.sqrt(g.num_interior) * scale


@pytest.mark.parametrize(
    "domain, resolution",
    [(DomainSpec.box([(0, 1), (0, 3)]), (13, 21)), (_disk(), (17, 17)),
     (DomainSpec.half_ball(1.0, 3), (11, 13, 7))],
    ids=["box", "disk", "half_ball_3d"],
)
def test_poisson_vector_data_solves_each_component(domain, resolution):
    # the masked harmonic start depends on these bits
    g = build_grid(domain, resolution)
    bd = _two_component_data(g)
    for rhs in (None, _random_source(g)):
        vec = poisson_dirichlet(g, rhs, bd).values
        for a in range(bd.ncomp):
            comp = poisson_dirichlet(g, rhs, BoundaryData(g, bd.values[:, a])).values
            assert np.array_equal(vec[..., a], comp[..., 0])


@pytest.mark.parametrize(
    "domain, resolution",
    [(DomainSpec.box([(0, 1), (0, 3)]), (13, 21)), (_disk(), (17, 17)),
     (DomainSpec.half_ball(1.0, 3), (11, 13, 7)), (DomainSpec.box([(0, 1)]), (9,))],
    ids=["box", "disk", "half_ball_3d", "interval"],
)
@pytest.mark.parametrize("ncomp", [1, 3])
def test_prepared_dirichlet_solve_matches_fresh_poisson_solves(domain, resolution, ncomp):
    # the Picard steps take every solve from one prepared solve; a masked
    # solve that wrote into the shared lift would spoil the calls after it
    g = build_grid(domain, resolution)
    bd = sample_boundary(g, lambda p: np.stack(
        [np.sin((a + 1) * p[:, 0]) + a * p[:, -1] for a in range(ncomp)], axis=1))
    solve = oracle._dirichlet_solve(g, bd)
    rhs = _random_source(g)
    got = [solve(rhs), solve(None)]
    assert np.array_equal(got[0], poisson_dirichlet(g, rhs, bd).values)
    assert np.array_equal(got[1], poisson_dirichlet(g, None, bd).values)


def test_masked_poisson_matvecs_are_mesh_independent(monkeypatch):
    # the lattice DST-I preconditioner keeps the CG count flat; plain CG
    # needs about 2n matrix-vector products per component on the n x n disk
    calls = []
    neighbor_sum = oracle._neighbor_sum

    def counting(values, grid):
        calls.append(1)
        return neighbor_sum(values, grid)

    monkeypatch.setattr(oracle, "_neighbor_sum", counting)
    for n in (33, 65, 129):
        g = build_grid(_disk(), (n, n))
        bd = _two_component_data(g)
        calls.clear()
        poisson_dirichlet(g, None, bd)
        # one call builds the right-hand side, the rest are CG matvecs
        assert (len(calls) - 1) / bd.ncomp <= 40


_DISK_POISSON_DIGEST = """
import hashlib
from quasimin import DomainSpec, build_grid, poisson_dirichlet, sample_boundary
disk = DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda x: x[..., 0]**2 + x[..., 1]**2 <= 1.0)
grid = build_grid(disk, (129, 129))
bdry = sample_boundary(grid, lambda x: x[:, 0] * x[:, 1])
print(hashlib.sha256(poisson_dirichlet(grid, None, bdry).values.tobytes()).hexdigest())
"""


def test_masked_poisson_bytes_do_not_depend_on_blas_threads():
    # BLAS must be capped before numpy loads, so each count runs in its own
    # process
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _DISK_POISSON_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_exact_solver_builds_one_table_for_vector_data(monkeypatch):
    built = []
    table_class = oracle.TransformTable

    def counting(*args, **kwargs):
        built.append(1)
        return table_class(*args, **kwargs)

    monkeypatch.setattr(oracle, "TransformTable", counting)
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    bd = _two_component_data(g)
    with pytest.raises(ValueError, match="scalar data only"):
        solve_scalar_exact(g, gaussian(1.0), bd)
    assert len(built) == 1


def test_exact_solver_constant_weight_is_harmonic_extension():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    bd = sample_boundary(g, lambda p: p[:, 0] * p[:, 1])
    u = solve_scalar_exact(g, constant(1.3), bd)
    harm = poisson_dirichlet(g, None, bd)
    assert np.abs(u.values - harm.values).max() < 1e-10


def test_exact_solver_midpoint_value_vs_rootfind_oracle():
    g = interval(257)
    bd = sample_boundary(g, lambda p: p[:, 0])
    u = solve_scalar_exact(g, gaussian(1.0), bd)
    w1 = gauss_w1()
    ref = brentq(
        lambda t: quad(lambda s: np.exp(-s * s / 2.0), 0.0, t)[0] - 0.5 * w1,
        0.0,
        1.0,
        xtol=1e-13,
    )
    assert u.values[128, 0] == pytest.approx(ref, abs=2e-6)
    assert u.values[128, 0] == pytest.approx(0.4422, abs=1e-3)


def test_exact_solver_residual_refines():
    w = gaussian(1.0)
    res = {}
    for n in (33, 65):
        g = interval(n)
        bd = sample_boundary(g, lambda p: p[:, 0])
        u = solve_scalar_exact(g, w, bd)
        res[n] = float(np.abs(el_residual(g, u, w).values).max())
    assert 3.0 <= res[33] / res[65] <= 5.0


def test_source_zero_matches_exact():
    g = interval(33)
    bd = sample_boundary(g, lambda p: p[:, 0])
    w = gaussian(1.0)
    u0 = solve_scalar_exact(g, w, bd)
    u1, iters = solve_scalar_source(g, w, bd, SourceField(g, np.zeros(g.dims)))
    assert iters <= 2
    assert np.abs(u0.values - u1.values).max() < 1e-9


def test_source_solution_satisfies_strong_form():
    # -Delta u + u |Du|^2 = 1 with zero boundary; residual shrinks at O(h^2)
    w = gaussian(1.0)
    res = {}
    for n in (33, 65):
        g = interval(n)
        bd = sample_boundary(g, lambda p: np.zeros(p.shape[0]))
        u, _ = solve_scalar_source(g, w, bd, SourceField(g, np.ones(g.dims)))
        vals = u.values[:, 0]
        h = g.spacing[0]
        lap = np.zeros_like(vals)
        lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        du = np.zeros_like(vals)
        du[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
        strong = -lap + vals * du**2 - 1.0
        res[n] = np.abs(strong[1:-1]).max()
    assert res[65] < res[33]
    assert res[33] / res[65] == pytest.approx(4.0, abs=1.0)


def test_source_constant_boundary_no_source():
    g = interval(17)
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.6))
    u, _ = solve_scalar_source(g, gaussian(1.0), bd, SourceField(g, np.zeros(g.dims)))
    assert np.abs(u.values - 0.6).max() < 1e-9


def test_two_scalar_formulations_agree():
    # -e^{-m} div(e^m Du) + (1/2) m'(u)|Du|^2 with m(u) = -u^2 equals
    # -Delta u + u|Du|^2 up to O(h^2) stencil differences
    w = gaussian(1.0)
    diffs = []
    for n in (17, 33, 65):
        g = interval(n)
        x = g.axis_coords()[0]
        u = Field(g, 0.8 * np.sin(np.pi * x)[..., None])
        vals = u.values[:, 0]
        h = g.spacing[0]
        lap = np.zeros_like(vals)
        lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        du = np.zeros_like(vals)
        du[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
        direct = -lap + vals * du**2
        mform = el_residual(g, u, w).values[:, 0]
        diffs.append(np.abs((direct - mform)[1:-1]).max())
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_monotone_data_monotone_solution():
    g = interval(65)
    bd = sample_boundary(g, lambda p: p[:, 0])
    u = solve_scalar_exact(g, gaussian(2.0), bd)
    assert np.all(np.diff(u.values[:, 0]) > 0)


@pytest.mark.parametrize("range_m", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_table_refuses_a_range_that_is_not_finite_and_positive(range_m):
    with pytest.raises(ValueError, match="table range must be finite and positive"):
        TransformTable(gaussian(1.0), range_m)


def test_table_refuses_arguments_outside_its_range():
    table = TransformTable(gaussian(1.0), 1.0)
    with pytest.raises(ValueError, match="argument leaves the transform table range"):
        table.forward(np.array([1.5]))
    with pytest.raises(ValueError, match="value leaves the transform table range"):
        table.inverse(np.array([table.w_max + 1.0]))


@pytest.mark.parametrize(
    "weight, bound",
    [(gaussian(1.0), 3.0), (gaussian(10.0), 1.0), (sphere_chart(2.0), 6.0)],
    ids=["gaussian_1", "gaussian_10", "sphere_chart_2"],
)
def test_inverse_estimate_matches_the_checked_inverse(weight, bound):
    # the table solve_scalar_exact builds for data with max |phi| = bound
    table = TransformTable(weight, 2.0 * (1.0 + 2.0 * bound))
    w = table.forward(np.linspace(-bound, bound, 20001))
    assert np.abs(table.inverse_estimate(w) - table.inverse(w)).max() <= 1e-13


def test_inverse_estimate_where_the_hermite_slopes_overflow():
    # e^{-f/2} overflows for |u| > 37.7, so the outer slopes are clamped;
    # the table's ends are flat in w
    table = TransformTable(gaussian(1.0), 38.0)
    w = np.linspace(table.w_min, table.w_max, 20001)
    u = table.inverse_estimate(w)
    assert np.abs(table.forward(u) - w).max() <= 1e-13
    assert table.inverse_estimate(np.array([table.w_min]))[0] == -38.0
    # the intervals are 2.7 times as wide as on the range-14 table above,
    # so the Hermite start and its one Newton step are coarser in u:
    # 1.2e-12 measured
    w = table.forward(np.linspace(-3.0, 3.0, 20001))
    assert np.abs(table.inverse_estimate(w) - table.inverse(w)).max() <= 1e-11


def test_inverse_estimate_where_the_density_underflows():
    # f/2 falls from 0 to -750 over the table's first interval, so
    # e^{f/2} is 0 at its lower end: the Newton step there sees 0/0
    m = 1.0
    width = 2.0 * m / (oracle._TABLE_NODES - 1)
    ramp = Weight(f=lambda U: -1500.0 * np.maximum(0.0, (-U[..., 0] - m + width) / width),
                  g=lambda U: np.zeros(U.shape[:-1]))
    table = TransformTable(ramp, m)
    assert table._density(np.array([-m]))[0] == 0.0
    w = np.concatenate([np.linspace(table.table_w[0], table.table_w[1], 11),
                        np.linspace(table.w_min, table.w_max, 1001)])
    u = table.inverse_estimate(w)
    assert u[0] == -m
    assert np.abs(table.forward(u) - w).max() <= 1e-7


def test_inverse_estimate_calls_no_forward(monkeypatch):
    # the Newton residual integrates the bracketed interval itself
    table = TransformTable(gaussian(1.0), 14.0)
    w = table.forward(np.linspace(-3.0, 3.0, 2001))
    want = table.inverse(w)

    def refuse(self, u):
        raise AssertionError("inverse_estimate called forward")

    monkeypatch.setattr(TransformTable, "forward", refuse)
    assert np.abs(table.inverse_estimate(w) - want).max() <= 1e-13


def test_picard_that_does_not_contract_raises_with_its_residual(monkeypatch):
    # this problem takes 7 steps
    monkeypatch.setattr(oracle, "_PICARD_MAX_ITERS", 2)
    g = interval(33)
    bd = sample_boundary(g, lambda p: np.zeros(p.shape[0]))
    with pytest.raises(oracle.ConvergenceError, match="did not contract within 2 steps") as exc:
        solve_scalar_source(g, gaussian(1.0), bd, SourceField(g, np.ones(g.dims)))
    assert exc.value.residual > oracle._PICARD_TOL


def _mixed_data(p):
    return p[:, 0] + 0.5 * p[:, 1] ** 2


def _picard_with_the_checked_inverse(grid, weight, bdry, h, damping):
    """solve_scalar_source's loop, with table.inverse at every step."""
    hmax = float(np.abs(h.values[grid.in_mask]).max())
    table = TransformTable(weight, oracle.default_table_range(bdry) + hmax)
    wb = table.boundary_values(bdry)
    v = poisson_dirichlet(grid, None, wb).values[..., 0]
    theta, prev = damping, np.inf
    for k in range(1, 501):
        u = table.inverse(np.where(grid.in_mask, v, 0.0))
        rhs = SourceField(grid, np.exp(0.5 * weight.f_total(u[..., None])) * h.values)
        v_next = (1.0 - theta) * v + theta * poisson_dirichlet(grid, rhs, wb).values[..., 0]
        resid = float(np.abs((v_next - v)[grid.in_mask]).max())
        v = v_next
        if resid <= 1e-10:
            u = np.where(grid.in_mask, table.inverse(np.where(grid.in_mask, v, 0.0)), 0.0)
            u.reshape(-1)[grid.boundary_indices] = bdry.values[:, 0]
            return u, k
        if resid > prev:
            theta *= 0.5
        prev = resid
    raise AssertionError("reference Picard loop did not converge")


@pytest.mark.parametrize(
    "domain, weight, data, source, damping, tol",
    [(DomainSpec.box([(-1, 1), (-1, 1)]), gaussian(1.0), _mixed_data, 1.0, 1.0, 1e-13),
     (DomainSpec.box([(-1, 1), (-1, 1)]), sphere_chart(2.0), _mixed_data, 1.0, 1.0, 1e-13),
     # each masked Poisson solve stops at a 1e-12 relative CG residual, so
     # one ulp in a step's source moves its answer by up to that, and over
     # 30 damped steps the reference loop itself moves by 5.7e-13 when its
     # inverse is perturbed by one ulp; the estimate moved it by 6.2e-13
     (_disk(), gaussian(1.0), _mixed_data, 1.0, 0.5, 2e-12),
     # gaussian(10) underflows past |u| = 12.2, so range 12.1 is about the
     # widest table it builds; the estimate is 8.6e-12 off on |u| <= 1.5
     # and 7.8e-4 off near |u| = 2.5, where e^{f/2} is 4e-14
     (DomainSpec.box([(-1, 1), (-1, 1)]), gaussian(10.0), lambda p: 2.5 * p[:, 0], 0.1,
      1.0, 1e-13)],
    ids=["box_gaussian", "box_sphere_chart", "disk_damped", "box_gaussian_10_wide_table"],
)
def test_picard_matches_a_loop_with_the_checked_inverse(domain, weight, data, source,
                                                        damping, tol):
    g = build_grid(domain, (65, 65))
    bd = sample_boundary(g, data)
    h = SourceField(g, np.where(g.in_mask, source, 0.0))
    u, steps = solve_scalar_source(g, weight, bd, h, damping=damping)
    want, want_steps = _picard_with_the_checked_inverse(g, weight, bd, h, damping)
    # one more step, with the checked inverse, verifies the answer
    assert steps == want_steps + 1
    assert np.abs(u.values[..., 0] - want).max() <= tol


@pytest.mark.parametrize("domain, damping, max_steps",
                         [(DomainSpec.box([(-1, 1), (-1, 1)]), 1.0, 17),
                          (_disk(), 0.5, 40)], ids=["box", "disk_damped"])
def test_picard_answer_does_not_take_the_estimate_error(monkeypatch, domain, damping,
                                                        max_steps):
    # an estimate 1e-6 off in u moves the steps' fixed point by 1.5e-7 on
    # the box; the checked steps that follow take the answer back to within
    # the stop's reach of the checked loop's (1.4e-10 and 4.0e-10 measured).
    # The first checked step moves v by that shift; were it read as
    # divergence, the damping would halve and the steps grow to 20 and 48
    monkeypatch.setattr(TransformTable, "inverse_estimate",
                        lambda self, w: self.inverse(w) + 1e-6)
    g = build_grid(domain, (65, 65))
    bd = sample_boundary(g, _mixed_data)
    h = SourceField(g, np.where(g.in_mask, 1.0, 0.0))
    u, steps = solve_scalar_source(g, gaussian(1.0), bd, h, damping=damping)
    want, want_steps = _picard_with_the_checked_inverse(g, gaussian(1.0), bd, h, damping)
    assert want_steps + 1 < steps <= max_steps
    assert np.abs(u.values[..., 0] - want).max() <= 1e-9


@pytest.mark.parametrize("domain", [DomainSpec.box([(-1, 1), (-1, 1)]), _disk()],
                         ids=["box", "disk"])
def test_exact_solver_interior_is_the_checked_inverse(domain):
    g = build_grid(domain, (33, 33))
    bd = sample_boundary(g, lambda p: 0.9 * p[:, 0] * p[:, 1] + 0.3)
    weight = gaussian(1.0)
    u = solve_scalar_exact(g, weight, bd).values[..., 0]
    table = TransformTable(weight, oracle.default_table_range(bd))
    v = poisson_dirichlet(g, None, table.boundary_values(bd)).values[..., 0]
    want = table.inverse(v)
    assert np.array_equal(u[g.interior_mask], want[g.interior_mask])
    assert np.array_equal(u.reshape(-1)[g.boundary_indices], bd.values[:, 0])
