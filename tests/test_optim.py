import gc
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimin import (
    AdmissibleSet,
    CoefficientTensor,
    DomainSpec,
    Field,
    SolveOptions,
    Weight,
    build_grid,
    constant,
    gaussian,
    kkt_residual,
    minimize,
    poisson_dirichlet,
    project_admissible,
    sample_boundary,
    solve_scalar_exact,
)
from quasimin.energy import energy_raw, grad_raw, to_cells, to_nodes, weighted_laplacian
from quasimin.optim import _Metric, _project_values, box_laplacian_inverse
from quasimin.oracle import lattice_laplacian_inverse
from stencils import cell_op, minus_laplacian


def square(n):
    return build_grid(DomainSpec.box([(0, 1), (0, 1)]), (n, n))


def interval(n):
    return build_grid(DomainSpec.box([(0, 1)]), (n,))


def test_admissible_set_validation():
    g = interval(5)
    bd = sample_boundary(g, lambda p: p[:, 0])
    adm = AdmissibleSet.from_boundary(bd)
    assert np.array_equal(adm.box, [1.0])
    with pytest.raises(ValueError, match="positive"):
        AdmissibleSet(np.array([0.0]), bd)
    with pytest.raises(ValueError, match="box bound"):
        AdmissibleSet(np.array([0.5]), bd)


@pytest.mark.parametrize("field", ["tol_pg", "tol_factor"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
def test_solve_options_refuse_a_tolerance_that_is_not_positive(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        SolveOptions(**{field: value})


def test_project_clamps_and_pins_boundary():
    g = interval(5)
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.3))
    adm = AdmissibleSet(
        np.array([1.0, 1.0]),
        sample_boundary(g, lambda p: np.tile([0.3, 0.3], (p.shape[0], 1))),
    )
    vals = np.zeros(g.dims + (2,))
    vals[2] = [5.0, -5.0]
    vals[0] = [7.0, 7.0]
    f = Field(g, vals)
    p = project_admissible(f, adm)
    assert np.array_equal(p.values[2], [1.0, -1.0])
    assert np.array_equal(p.values[0], [0.3, 0.3])


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_projection_idempotent(interior_vals):
    g = interval(5)
    bd = sample_boundary(g, lambda p: p[:, 0] * 0.5)
    adm = AdmissibleSet.from_boundary(bd)
    vals = np.zeros(g.dims + (1,))
    vals[1:4, 0] = interior_vals
    once = project_admissible(Field(g, vals), adm)
    twice = project_admissible(once, adm)
    assert np.array_equal(once.values, twice.values)


def test_constant_boundary_converges_immediately():
    g = square(9)
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.4))
    adm = AdmissibleSet(np.array([0.5]), bd)
    opts = SolveOptions(init=Field(g, np.full(g.dims + (1,), 0.4)))
    u, rep = minimize(g, gaussian(1.0), adm, opts=opts)
    assert rep.converged and rep.iterations <= 2
    assert rep.final_energy == 0.0
    assert np.abs(u.values - 0.4).max() == 0.0


def test_constant_weight_recovers_harmonic_extension():
    g = square(33)
    bd = sample_boundary(g, lambda p: p[:, 0] * p[:, 1])
    adm = AdmissibleSet.from_boundary(bd)
    start = Field(g, np.full(g.dims + (1,), bd.values.mean()))
    opts = SolveOptions(init=start, tol_pg=1e-10)
    u, rep = minimize(g, constant(0.0), adm, opts=opts)
    assert rep.converged
    harm = poisson_dirichlet(g, None, bd)
    assert np.abs(u.values - harm.values).max() <= 1e-6


def test_minimizer_matches_transform_oracle_1d():
    g = interval(257)
    bd = sample_boundary(g, lambda p: p[:, 0])
    adm = AdmissibleSet.from_boundary(bd)
    w = gaussian(0.5)
    u, rep = minimize(g, w, adm)
    assert rep.converged
    oracle = solve_scalar_exact(g, w, bd)
    assert np.abs(u.values - oracle.values).max() <= 1e-4


def test_feasibility_bit_exact_and_bounded():
    g = square(17)
    bd = sample_boundary(g, lambda p: np.sin(3 * p[:, 0]) * np.cos(2 * p[:, 1]))
    adm = AdmissibleSet.from_boundary(bd)
    u, rep = minimize(g, gaussian(1.0), adm)
    flat = u.flat()
    assert np.array_equal(flat[g.boundary_indices], adm.boundary.values)
    assert np.all(np.abs(flat) <= adm.box)
    assert u.sup_norm() <= float(np.abs(adm.box).max())


def test_energy_history_monotone():
    g = square(17)
    bd = sample_boundary(g, lambda p: p[:, 0] - p[:, 1] ** 2)
    adm = AdmissibleSet.from_boundary(bd)
    _, rep = minimize(g, gaussian(1.0), adm)
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    assert len(rep.energy_history) == rep.iterations + 1


def test_first_step_strictly_decreases_energy():
    g = square(9)
    bd = sample_boundary(g, lambda p: p[:, 0])
    adm = AdmissibleSet.from_boundary(bd)
    init = project_admissible(
        Field(g, np.random.default_rng(7).uniform(-1, 1, g.dims + (1,))), adm
    )
    opts = SolveOptions(init=init, max_iters=1)
    _, rep = minimize(g, gaussian(1.0), adm, opts=opts)
    assert rep.energy_history[1] < rep.energy_history[0]


def test_minimize_refuses_an_init_of_the_wrong_shape():
    g = square(9)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0]))
    for init in (Field(g, np.zeros(g.dims + (2,))), Field(square(7), np.zeros((7, 7, 1)))):
        with pytest.raises(ValueError, match="wrong shape"):
            minimize(g, gaussian(1.0), adm, opts=SolveOptions(init=init))


def test_determinism_identical_runs():
    g = square(17)
    bd = sample_boundary(g, lambda p: p[:, 0] * (1 - p[:, 1]))
    adm = AdmissibleSet.from_boundary(bd)
    u1, r1 = minimize(g, gaussian(1.0), adm)
    u2, r2 = minimize(g, gaussian(1.0), adm)
    assert np.array_equal(u1.values, u2.values)
    assert np.array_equal(r1.energy_history, r2.energy_history)


def test_active_constraints_reported_with_tight_box():
    # clamp a free Laplace minimizer by shrinking the box below its range
    g = square(17)
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.2))
    adm = AdmissibleSet(np.array([0.2]), bd)
    init = Field(g, np.full(g.dims + (1,), 0.2))
    # boundary 0.2 everywhere, weight pulls solution to the constant: stays at bound
    u, rep = minimize(g, gaussian(1.0), adm, opts=SolveOptions(init=init))
    assert rep.converged
    assert rep.active_count == g.num_interior  # constant sits on the bound


def test_kkt_residual_cases():
    g = square(9)
    bd = sample_boundary(g, lambda p: np.full(p.shape[0], 0.4))
    adm = AdmissibleSet(np.array([1.0]), bd)
    const = Field(g, np.full(g.dims + (1,), 0.4))
    assert kkt_residual(g, const, gaussian(1.0), adm) == 0.0

    bd2 = sample_boundary(g, lambda p: p[:, 0])
    adm2 = AdmissibleSet.from_boundary(bd2)
    u, rep = minimize(g, gaussian(1.0), adm2)
    assert kkt_residual(g, u, gaussian(1.0), adm2) <= rep.tol_pg

    bumped = u.values.copy()
    bumped[4, 4, 0] = min(bumped[4, 4, 0] + 0.1, 1.0)
    assert kkt_residual(g, Field(g, bumped), gaussian(1.0), adm2) > 0.0

    bad = u.values.copy()
    bad[0, 0, 0] += 1.0
    with pytest.raises(ValueError, match="boundary"):
        kkt_residual(g, Field(g, bad), gaussian(1.0), adm2)

    outside = u.values.copy()
    outside[4, 4, 0] = 1.5
    with pytest.raises(ValueError, match="box bound"):
        kkt_residual(g, Field(g, outside), gaussian(1.0), adm2)


@pytest.mark.parametrize(
    "phi, alpha, active",
    [
        (lambda p: p[:, 0], 1.0, False),
        # the vector-valued gaussian weight pushes the solution onto the box
        (lambda p: np.stack([np.cos(2 * np.pi * p[:, 0]), np.sin(2 * np.pi * p[:, 1])], axis=1),
         10.0, True),
    ],
    ids=["free", "active_bound"],
)
def test_final_pg_equals_kkt_residual(phi, alpha, active):
    # minimize reuses the accepted trial's gradient; kkt_residual recomputes it
    g = square(9)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, phi))
    u, rep = minimize(g, gaussian(alpha), adm)
    assert rep.iterations > 0 and (rep.active_count > 0) == active
    assert rep.final_pg == kkt_residual(g, u, gaussian(alpha), adm)


def _boxes(k=1):
    # unequal spacing on every axis; k refines every axis k times
    yield build_grid(DomainSpec.box([(0, 1)]), (18 * k + 1,))
    yield build_grid(DomainSpec.box([(0, 1), (0, 3)]), (12 * k + 1, 20 * k + 1))
    yield build_grid(DomainSpec.box([(0, 1), (-1, 1), (0, 0.5)]), (8 * k + 1, 11 * k + 1, 6 * k + 1))


def test_box_laplacian_inverse_is_none_off_the_box():
    disk = DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda x: np.sum(x * x, axis=-1) <= 1.0)
    for domain in (disk, DomainSpec.half_ball(1.0, 2)):
        g = build_grid(domain, (17, 17))
        assert box_laplacian_inverse(g) is None
        assert box_laplacian_inverse(g, averaged=True) is None


@pytest.mark.parametrize("averaged", [False, True], ids=["5_point", "averaged"])
@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_lattice_inverse_is_the_box_inverse_on_boxes(grid, averaged):
    r = np.random.default_rng(6).standard_normal(grid.dims + (2,))
    want = box_laplacian_inverse(grid, averaged=averaged)(r)
    assert np.array_equal(lattice_laplacian_inverse(grid, averaged=averaged)(r), want)


@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_box_laplacian_inverse_solves_the_5_point_stencil(grid):
    rng = np.random.default_rng(3)
    r = rng.standard_normal(grid.dims + (2,))
    v = box_laplacian_inverse(grid)(r)
    assert np.all(v[~grid.interior_mask] == 0.0)
    lap = minus_laplacian(v, grid.spacing)
    inner = grid.interior_mask
    assert np.abs(lap[inner] - r[inner]).max() <= 1e-12 * np.abs(r[inner]).max()


@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_averaged_inverse_is_the_energy_hessian(grid):
    # with a constant weight the energy is vol <U, K U>, so its gradient at
    # K^{-1} r (zero boundary data) is 2 vol r on interior nodes
    rng = np.random.default_rng(4)
    r = rng.standard_normal(grid.dims + (1,))
    v = box_laplacian_inverse(grid, averaged=True)(r)
    g = grad_raw(grid, v, constant(0.0))
    inner = grid.interior_mask
    want = 2.0 * grid.cell_volume * r[inner]
    assert np.abs(g[inner] - want).max() <= 1e-12 * np.abs(want).max()


def test_iteration_count_is_mesh_independent_on_the_box():
    w = gaussian(1.0)
    iters, gaps = [], []
    for n in (33, 65, 129):
        g = square(n)
        bd = sample_boundary(g, lambda p: p[:, 0] * p[:, 1])
        adm = AdmissibleSet.from_boundary(bd)
        u, rep = minimize(g, w, adm)
        assert rep.converged
        assert kkt_residual(g, u, w, adm) <= rep.tol_pg
        iters.append(rep.iterations)
        gaps.append(float(np.abs(u.values - solve_scalar_exact(g, w, bd).values).max()))
    assert max(iters) <= 1.3 * min(iters), iters
    assert gaps[1] / gaps[2] >= 3.5, gaps


@pytest.mark.parametrize("n, most", [(65, 3), (129, 3), (257, 2)])
def test_first_preconditioned_step_is_the_frozen_weight_minimizer(n, most):
    # tau = 1/2 minimizes the frozen-weight model along d = K_w^{-1} g / vol
    w = gaussian(1.0)
    g = square(n)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1]))
    one, rep = minimize(g, w, adm, opts=SolveOptions(max_iters=1))
    assert rep.iterations == 1 and rep.backtracks == 0
    U = _project_values(poisson_dirichlet(g, None, adm.boundary).values, adm)
    _, _, grad, fb = energy_raw(g, U, w)
    metric = _Metric(g, None)
    metric.refresh(fb, np.zeros(g.dims, bool))
    d = metric.inverse(grad()) / g.cell_volume
    assert np.array_equal(one.values, _project_values(U - 0.5 * d, adm))
    u, rep = minimize(g, w, adm)
    assert rep.converged and rep.iterations <= most, rep.iterations
    assert kkt_residual(g, u, w, adm) <= rep.tol_pg


def test_iteration_count_is_mesh_independent_on_the_weighted_box():
    # e^{-u^2} spans about 1e-7 over the data: the metric must follow the
    # weight, S^{-1} K^{-1} S^{-1} with S = e^{f/2}, for the count to stay flat
    w = gaussian(1.0)
    for n in (33, 65, 129):
        g = square(n)
        adm = AdmissibleSet.from_boundary(
            sample_boundary(g, lambda p: 16.0 * (p[:, 0] - 0.5) * (p[:, 1] - 0.5)))
        u, rep = minimize(g, w, adm)
        assert rep.converged
        assert rep.iterations <= 20, (n, rep.iterations)
        assert kkt_residual(g, u, w, adm) <= rep.tol_pg


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["1d", "2d", "3d"])
def test_iteration_count_is_mesh_independent_on_tensor_boxes(axis):
    # a diagonal tensor with unequal axis entries on unequally spaced boxes
    iters = []
    for k in (1, 2):
        g = list(_boxes(k))[axis]
        A = CoefficientTensor.diagonal([1.0 + i for i in range(g.ndim)])
        adm = AdmissibleSet.from_boundary(sample_boundary(
            g, lambda p: np.stack([p[:, 0] * p[:, -1], 0.5 * p[:, 0]], axis=1)))
        u, rep = minimize(g, gaussian(0.5), adm, A=A)
        assert rep.converged
        assert kkt_residual(g, u, gaussian(0.5), adm, A=A) <= rep.tol_pg
        iters.append(rep.iterations)
    assert max(iters) <= 20 and max(iters) <= 1.3 * min(iters), iters


@pytest.mark.parametrize(
    "entries", [[-1.0, 1.0], [0.0, 1.0], [1.0, lambda p: p[..., 0] - 0.5]],
    ids=["negative", "zero", "negative_half"],
)
def test_non_elliptic_tensor_raises(entries):
    g = square(17)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1]))
    with pytest.raises(ValueError, match="not elliptic"):
        minimize(g, gaussian(1.0), adm, A=CoefficientTensor.diagonal(entries))


def test_box_weight_underflowing_on_some_cells_converges():
    # e^{-2000 u^2} is 0.0 in float64 on the cells where u is near 0.9:
    # there S = 1, as K_w's unit diagonal on an empty row
    g = square(17)
    w = Weight(lambda U: -2000.0 * np.sum(U * U, axis=-1),
               lambda U: np.full(U.shape[:-1], 4000.0))
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: 0.9 * (p[:, 0] > 0.5)))
    u, rep = minimize(g, w, adm, opts=SolveOptions(max_iters=200))
    assert rep.converged and np.isfinite(u.values).all()
    assert np.all(np.diff(rep.energy_history) <= 0.0)


def _underflowing_disk(n):
    g = build_grid(DomainSpec.masked_box([(-1, 1), (-1, 1)],
                                         lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 <= 1.0),
                   (n, n))
    w = Weight(lambda U: -2000.0 * np.sum(U * U, axis=-1),
               lambda U: np.full(U.shape[:-1], 4000.0))
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: 0.9 * (p[:, 0] > 0)))
    return g, w, adm


@pytest.mark.parametrize("n", [33])
def test_singular_metric_factor_is_a_floating_point_error(n):
    # on a disk the same weight and data leave whole regions of cells with
    # weights below float32 range: K_w is singular beyond its empty rows
    g, w, adm = _underflowing_disk(n)
    with pytest.raises(FloatingPointError, match="metric factorization failed"):
        minimize(g, w, adm)


def test_underflowing_disk_converges_once_its_bound_nodes_are_held():
    # at n = 17 the nodes on their bound cover the cells whose weights
    # underflow: held, they leave the factor regular
    g, w, adm = _underflowing_disk(17)
    u, rep = minimize(g, w, adm)
    assert rep.converged and rep.active_count > 0
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    assert np.array_equal(_project_values(u.values, adm), u.values)


@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_constant_weight_box_metric_is_the_averaged_inverse(grid):
    # with a constant weight S is exactly 1 and the metric is the DST-I K^{-1}
    rng = np.random.default_rng(8)
    metric = _Metric(grid, None)
    metric.refresh(np.zeros(tuple(d - 1 for d in grid.dims)), np.zeros(grid.dims, bool))
    r = rng.standard_normal(grid.dims + (2,))
    assert np.array_equal(metric.inverse(r), box_laplacian_inverse(grid, averaged=True)(r))


def test_no_progress_at_numerical_precision_stops_the_descent():
    g = interval(9)
    adm = AdmissibleSet(np.array([2.0]), sample_boundary(g, lambda p: p[:, 0]))
    u, rep = minimize(g, gaussian(1.0), adm, opts=SolveOptions(tol_pg=1e-300, max_iters=5000))
    assert rep.stall_reason == "no progress at numerical precision"
    assert not rep.converged
    assert 1000 <= rep.iterations < 5000
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    assert np.array_equal(_project_values(u.values, adm), u.values)


def test_line_search_stalled_at_the_minimum_step_returns_the_start(monkeypatch):
    g = square(9)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1]))
    start = _project_values(poisson_dirichlet(g, None, adm.boundary).values, adm)
    calls = []

    def nan_after_the_first(*args):
        calls.append(1)
        E, *rest = energy_raw(*args)
        return (E if len(calls) == 1 else np.nan, *rest)

    monkeypatch.setattr("quasimin.optim.energy_raw", nan_after_the_first)
    u, rep = minimize(g, gaussian(1.0), adm)
    assert rep.stall_reason == "line search failed: all 60 Armijo trials rejected"
    assert rep.line_search_failures == 1
    assert not rep.converged and rep.iterations == 0
    # the start, then _BACKTRACK_LIMIT trials, none of them accepted
    assert rep.energy_evals == 1 + rep.backtracks == 61
    assert rep.energy_history.tolist() == [energy_raw(g, start, gaussian(1.0))[0]]
    assert np.array_equal(u.values, start)


def test_report_counts_energy_evaluations():
    g = square(33)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1]))
    _, rep = minimize(g, gaussian(1.0), adm)
    assert rep.line_search_failures == 0
    assert rep.energy_evals == 1 + rep.iterations + rep.backtracks


def _disk(n):
    disk = DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda x: np.sum(x * x, axis=-1) <= 1.0)
    return build_grid(disk, (n, n))


def test_iteration_count_is_mesh_independent_on_the_disk():
    w = gaussian(1.0)
    iters = []
    for n in (33, 65, 129):
        g = _disk(n)
        adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1]))
        u, rep = minimize(g, w, adm)
        assert rep.converged
        assert kkt_residual(g, u, w, adm) <= rep.tol_pg
        iters.append(rep.iterations)
    assert max(iters) <= 1.3 * min(iters), iters


def test_strongly_weighted_disk_refactors_and_converges():
    # e^{f} spans e^{-10}..1 over the box: a weight frozen at the start is
    # a poor metric, so K_w is refactored as f_base moves
    g = _disk(33)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: 4.0 * p[:, 0] * p[:, 1]))
    u, rep = minimize(g, gaussian(10.0), adm)
    assert rep.converged and rep.active_count == 0
    assert rep.iterations <= 40 and rep.factorizations > 1
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    assert kkt_residual(g, u, gaussian(10.0), adm) <= rep.tol_pg


def test_components_share_a_factor_when_their_weights_agree():
    g = _disk(17)
    adm = AdmissibleSet.from_boundary(sample_boundary(
        g, lambda p: np.stack([p[:, 0] * p[:, 1], 0.5 * p[:, 0]], axis=1)))
    _, rep = minimize(g, gaussian(0.5), adm)
    assert rep.converged and rep.factorizations == 1


def test_interior_node_on_no_domain_cell_keeps_the_factor_regular():
    # the diamond's center is interior, but every cell around it has a
    # corner outside the domain: its row of K_w is empty
    dom = DomainSpec.masked_box(
        [(-2, 6), (-4, 4)],
        lambda x: (np.abs(x[..., 0]) + np.abs(x[..., 1]) <= 1) | (x[..., 0] >= 2))
    g = build_grid(dom, (9, 9))
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: np.sin(p[:, 0]) * p[:, 1]))
    u, rep = minimize(g, gaussian(0.1), adm)
    assert rep.converged and rep.iterations > 0
    # no cell couples the center to the energy: it keeps its start value
    assert u.values[2, 4, 0] == 0.0


@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_weighted_laplacian_with_unit_weight_is_the_box_k(grid):
    rng = np.random.default_rng(5)
    r = rng.standard_normal(grid.dims + (1,))
    v = box_laplacian_inverse(grid, averaged=True)(r)
    cells = tuple(d - 1 for d in grid.dims)
    K = weighted_laplacian(grid, [np.ones(cells)] * grid.ndim)
    idx = grid.interior_indices
    got = K @ v.reshape(-1)[idx]
    want = r.reshape(-1)[idx]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("domain, dims", [
    (DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda x: np.sum(x * x, axis=-1) <= 1.0), (17, 17)),
    (DomainSpec.half_ball(1.0, 3), (9, 9, 5)),
], ids=["disk", "half_ball_3d"])
def test_weighted_laplacian_form_is_the_weighted_cell_sum(domain, dims):
    g = build_grid(domain, dims)
    rng = np.random.default_rng(6)
    cells = tuple(d - 1 for d in g.dims)
    weights = [rng.uniform(0.1, 2.0, cells) for _ in range(g.ndim)]
    s = np.where(g.interior_mask, rng.standard_normal(g.dims), 0.0)
    K = weighted_laplacian(g, weights)
    x = s.reshape(-1)[g.interior_indices]
    form = float(x @ (K @ x))
    cell_sum = sum(float(np.sum(c * cell_op(s, g.spacing, i) ** 2))
                   for i, c in enumerate(weights))
    assert abs(form - cell_sum) <= 1e-12 * cell_sum


def _metric_step(g, fb, held, rng, tau):
    """A two-component gradient on the interior and the step -tau d of the metric."""
    metric = _Metric(g, None)
    metric.refresh(fb, held)
    grad = np.where(g.interior_mask[..., None], rng.standard_normal(g.dims + (2,)), 0.0)
    return grad, -tau * metric.inverse(grad) / g.cell_volume


def test_bb_numerator_is_the_form_of_the_held_cut_factor():
    # the LU block solves vol K d = g with K = K_w cut at the held nodes, so
    # -tau <g, s> = vol <s, K s> when the projection zeroes only held
    # components of s = -tau d; rtol covers the float32 factor
    from scipy import sparse

    g = _disk(17)
    rng = np.random.default_rng(9)
    fb = rng.uniform(-2.0, 1.0, tuple(n - 1 for n in g.dims))
    held = np.zeros(g.dims, bool)
    held[3:8, 5:12] = True
    held &= g.interior_mask
    tau = 0.3
    grad, s = _metric_step(g, fb, held, rng, tau)
    clipped = held[..., None] & (rng.uniform(size=s.shape) < 0.5)
    assert 0 < clipped.sum() < 2 * held.sum()
    s[clipped] = 0.0
    c = g.cell_mask * np.exp(fb)
    K = weighted_laplacian(g, [c, c])
    h = held.reshape(-1)[g.interior_indices]
    assert (K.diagonal() > 0).all()
    free = sparse.diags((~h).astype(float))
    M = free @ K @ free + sparse.diags(h * K.diagonal())
    x = s.reshape(-1, 2)[g.interior_indices]
    form = g.cell_volume * float(np.sum(x * (M @ x)))
    assert abs(-tau * float(np.sum(grad * s)) - form) <= 1e-5 * form


@pytest.mark.parametrize("grid", list(_boxes()), ids=["1d", "2d", "3d"])
def test_bb_numerator_is_the_form_of_the_scaled_box_block(grid):
    # the DST-I block solves vol S K S d = g, so -tau <g, s> = vol <S s, K S s>
    # for s = -tau d, with <v, K v> the sum of the squared D_i v of to_cells
    rng = np.random.default_rng(10)
    fb = rng.uniform(-2.0, 1.0, tuple(n - 1 for n in grid.dims))
    tau = 0.3
    grad, s = _metric_step(grid, fb, np.zeros(grid.dims, bool), rng, tau)
    S = np.sqrt(to_nodes(grid, np.exp(fb)))[..., None]
    form = grid.cell_volume * sum(float(np.sum(d ** 2)) for d in to_cells(grid, S * s)[1])
    assert abs(-tau * float(np.sum(grad * s)) - form) <= 1e-12 * form


def _cos_sin_box(n):
    # gaussian(10) with this data puts most interior nodes on their bound
    g = square(n)
    adm = AdmissibleSet.from_boundary(sample_boundary(
        g, lambda p: np.stack([np.cos(2 * np.pi * p[:, 0]), np.sin(2 * np.pi * p[:, 1])], axis=1)))
    return g, adm


def test_active_bound_box_solve_converges_in_the_metric():
    # the held nodes are Dirichlet nodes of the metric: every step stays
    # preconditioned, where plain projected steps needed 1,210
    g, adm = _cos_sin_box(17)
    u, rep = minimize(g, gaussian(10.0), adm, opts=SolveOptions(max_iters=200))
    assert rep.converged and rep.active_count > 0
    assert rep.iterations <= 100, rep.iterations
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    flat = u.flat()
    assert np.array_equal(flat[g.boundary_indices], adm.boundary.values)
    assert np.all(np.abs(flat) <= adm.box)


@pytest.mark.parametrize("n", [33, 65, 129])
def test_steep_disk_data_with_bound_nodes_converges_in_few_steps(n):
    # two interior nodes end on their bound; plain steps took 305-1119
    g = _disk(n)
    w = gaussian(1.0)
    adm = AdmissibleSet.from_boundary(
        sample_boundary(g, lambda p: 4.0 * (p[:, 0] - 0.5) * (p[:, 1] - 0.5)))
    u, rep = minimize(g, w, adm)
    assert rep.converged and rep.active_count > 0
    assert rep.iterations <= 30, rep.iterations
    assert kkt_residual(g, u, w, adm) <= rep.tol_pg


def test_steep_half_ball_data_with_bound_nodes_converges():
    # plain steps took 10,376 here
    g = build_grid(DomainSpec.half_ball(1.0, 3), (9, 9, 5))
    adm = AdmissibleSet.from_boundary(sample_boundary(
        g, lambda p: np.stack([np.cos(3 * p[:, 0]), np.sin(3 * p[:, 1])], axis=1)))
    u, rep = minimize(g, gaussian(20.0), adm, opts=SolveOptions(max_iters=1000))
    assert rep.converged and rep.active_count > 0
    assert rep.iterations <= 400, rep.iterations
    assert np.all(np.diff(rep.energy_history) <= 0.0)
    assert np.array_equal(_project_values(u.values, adm), u.values)


_BOUND_BOX_DIGEST = """
import hashlib
import numpy as np
from quasimin import AdmissibleSet, DomainSpec, build_grid, gaussian, minimize, sample_boundary
grid = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (33, 33))
bdry = sample_boundary(grid, lambda p: np.stack(
    [np.cos(2 * np.pi * p[:, 0]), np.sin(2 * np.pi * p[:, 1])], axis=1))
u, rep = minimize(grid, gaussian(10.0), AdmissibleSet.from_boundary(bdry))
assert rep.converged and rep.active_count > 0
print(hashlib.sha256(u.values.tobytes()).hexdigest())
print(hashlib.sha256(rep.energy_history.tobytes()).hexdigest())
"""


def test_bound_active_solve_bytes_do_not_depend_on_blas_threads():
    # BLAS must be capped before numpy loads, so each count runs in its own
    # process
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _BOUND_BOX_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_minimize_leaves_no_reference_cycles():
    # the metric's stored inverses must not capture the metric
    problems = [(g, AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, 0] * p[:, 1])))
                for g in (square(17), _disk(17))]
    for g, adm in problems:
        minimize(g, gaussian(1.0), adm)
    gc.collect()
    gc.disable()
    try:
        for g, adm in problems:
            minimize(g, gaussian(1.0), adm)
        assert gc.collect() == 0
    finally:
        gc.enable()
