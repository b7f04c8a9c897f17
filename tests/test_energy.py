import importlib

import numpy as np
import pytest

from quasimin import (
    AdmissibleSet,
    CoefficientTensor,
    DomainSpec,
    Field,
    TransformTable,
    build_grid,
    constant,
    el_residual,
    ellipticity_bounds,
    energy,
    gaussian,
    kkt_residual,
    minimize,
    sample_boundary,
    sphere_chart,
)
from quasimin.energy import (energy_raw, grad_raw, half_index, sample_tensor, to_cells,
                             to_nodes)
from stencils import cell_op, cell_op_transpose


def square(n):
    return build_grid(DomainSpec.box([(0, 1), (0, 1)]), (n, n))


def interval(n):
    return build_grid(DomainSpec.box([(0, 1)]), (n,))


def unit_disk(n):
    dom = DomainSpec.masked_box(
        [(-1, 1), (-1, 1)], lambda p: np.sum(p * p, axis=-1) <= 1.0 + 1e-12
    )
    return build_grid(dom, (n, n))


def random_field(grid, ncomp, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-scale, scale, grid.dims + (ncomp,))
    vals[~grid.in_mask] = 0.0
    return vals


def fd_gradient(grid, vals, w, A=None, step=None):
    if step is None:
        step = 1e-5 * (1.0 + np.abs(vals).max())
    fd = np.zeros_like(vals)
    for idx in np.ndindex(*grid.dims):
        if not grid.interior_mask[idx]:
            continue
        for a in range(vals.shape[-1]):
            up = vals.copy()
            up[idx + (a,)] += step
            dn = vals.copy()
            dn[idx + (a,)] -= step
            fd[idx + (a,)] = (
                energy_raw(grid, up, w, A)[0] - energy_raw(grid, dn, w, A)[0]
            ) / (2 * step)
    return fd


def test_constant_field_zero_energy_and_gradient():
    g = square(7)
    f = Field(g, np.tile([0.3, -0.4], g.dims + (1,)))
    for w in (gaussian(1.0), sphere_chart(2.0), constant(0.5)):
        ev = energy(g, f, w)
        assert ev.value == 0.0
        assert np.all(grad_raw(g, f.values, w) == 0.0)


def test_linear_1d_energy_exact():
    for n in (5, 9, 33):
        g = interval(n)
        f = Field(g, g.axis_coords()[0][..., None])
        assert energy(g, f, constant(0.0)).value == pytest.approx(1.0, rel=1e-14)


def test_energy_value_equals_cell_sum_and_qnorms():
    g = interval(9)
    f = Field(g, g.axis_coords()[0][..., None])
    ev = energy(g, f, constant(0.0), q_exponents=(2.0, 2.5, 3.0))
    assert ev.value == pytest.approx(ev.cell_values.sum(), rel=0, abs=0)
    for q, val in ev.q_norms.items():
        assert val == pytest.approx(1.0, rel=1e-14)  # |u'| = 1 everywhere


def test_qnorms_take_no_second_kernel_pass(monkeypatch):
    # the package's energy function shadows the module of the same name
    module = importlib.import_module("quasimin.energy")
    calls = []
    kernel = module._cell_kernel

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(module, "_cell_kernel", counted)
    g = square(8)
    energy(g, Field(g, random_field(g, 2, seed=3)), gaussian(1.0), q_exponents=(2.0, 3.0))
    assert len(calls) == 1


def test_shift_scales_energy_and_gradient_exactly():
    g = square(8)
    vals = random_field(g, 2, seed=11)
    w = gaussian(1.0)
    ws = w.shifted(0.7)
    e0 = energy_raw(g, vals, w)[0]
    e1 = energy_raw(g, vals, ws)[0]
    assert e1 == pytest.approx(np.exp(0.7) * e0, rel=1e-13)
    g0 = grad_raw(g, vals, w)
    g1 = grad_raw(g, vals, ws)
    assert np.array_equal(g1, np.exp(0.7) * g0)


@pytest.mark.parametrize(
    "make_grid, weight, A",
    [pytest.param(lambda: square(8), w, None, id=w.label)
     for w in (gaussian(1.0), sphere_chart(2.0), constant(0.3))]
    + [
        pytest.param(lambda: interval(9), gaussian(1.0), None, id="1d"),
        pytest.param(
            lambda: build_grid(DomainSpec.box([(0, 1), (-1, 1), (0, 0.5)]), (5, 7, 4)),
            sphere_chart(2.0), None, id="3d_box",
        ),
        pytest.param(
            lambda: build_grid(DomainSpec.half_ball(1.0, 3), (9, 9, 5)), gaussian(0.5),
            CoefficientTensor.diagonal([1.0, lambda p: 2.0 + p[..., 0] ** 2, 0.5]),
            id="3d_half_ball_tensor",
        ),
    ],
)
def test_gradient_matches_finite_differences(make_grid, weight, A):
    g = make_grid()
    vals = random_field(g, 2, seed=5)
    analytic = grad_raw(g, vals, weight, A)
    fd = fd_gradient(g, vals, weight, A)
    rel = np.abs(analytic - fd).max() / max(np.abs(analytic).max(), 1e-300)
    assert rel <= 1e-6


def test_gradient_fd_on_masked_domain_with_tensor():
    dom = DomainSpec.masked_box(
        [(-1, 1), (-1, 1)], lambda p: np.sum(p * p, axis=-1) <= 1.0 + 1e-12
    )
    g = build_grid(dom, (9, 9))
    A = CoefficientTensor.diagonal([1.0, lambda p: 2.0 + p[..., 0] ** 2])
    vals = random_field(g, 2, seed=9)
    analytic = grad_raw(g, vals, gaussian(0.5), A)
    fd = fd_gradient(g, vals, gaussian(0.5), A)
    rel = np.abs(analytic - fd).max() / max(np.abs(analytic).max(), 1e-300)
    assert rel <= 1e-6


def test_energy_nonnegative_under_positive_tensor():
    g = square(9)
    A = CoefficientTensor.diagonal([0.5, 3.0])
    for seed in range(3):
        vals = random_field(g, 2, seed=seed)
        assert energy_raw(g, vals, gaussian(1.0), A)[0] >= 0.0


def test_residual_zero_on_constants_and_linears():
    g = square(9)
    const = Field(g, np.full(g.dims + (1,), 0.7))
    assert np.all(el_residual(g, const, gaussian(1.0)).values == 0.0)

    pts = g.points()
    lin = Field(g, (2.0 * pts[..., 0] - 0.5 * pts[..., 1])[..., None])
    res = el_residual(g, lin, constant(2.0))
    assert np.abs(res.values).max() < 1e-12


def test_residual_refinement_on_transform_solution():
    # exact scalar solution sampled from the half-weight transform
    w = gaussian(1.0)
    table = TransformTable(w, 3.0)
    w1 = float(table.forward(np.array(1.0)))
    res = {}
    for n in (17, 33):
        g = interval(n)
        u = table.inverse(g.axis_coords()[0] * w1)
        f = Field(g, u[..., None])
        res[n] = float(np.abs(el_residual(g, f, w).values).max())
    ratio = res[17] / res[33]
    assert 3.0 <= ratio <= 5.0


def test_residual_gradient_compatibility():
    # grad ~= 2 * cellvol * e^f * residual, difference shrinking under refinement
    w = gaussian(1.0)
    diffs = []
    for n in (17, 33, 65):
        g = interval(n)
        x = g.axis_coords()[0]
        f = Field(g, (np.sin(np.pi * x) * 0.5)[..., None])
        gr = grad_raw(g, f.values, w)
        rs = el_residual(g, f, w).values
        ef = np.exp(w.f_total(f.values))[..., None]
        pred = 2.0 * g.cell_volume * ef * rs
        mask = g.interior_mask
        diffs.append(np.abs((gr - pred)[mask]).max())
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_anisotropic_identity_matches_isotropic_bitwise():
    g = square(8)
    vals = random_field(g, 2, seed=3)
    w = gaussian(1.0)
    A = CoefficientTensor.identity()
    assert energy_raw(g, vals, w, None)[0] == energy_raw(g, vals, w, A)[0]
    assert np.array_equal(grad_raw(g, vals, w, None), grad_raw(g, vals, w, A))


def test_unit_tensor_residual_is_the_isotropic_residual_on_the_disk():
    # one residual path: a_i = 1 multiplies exactly, and no node next to the
    # staircase is masked out
    g = unit_disk(17)
    U = Field(g, random_field(g, 2, seed=4))
    iso = el_residual(g, U, gaussian(1.0)).values
    unit = el_residual(g, U, gaussian(1.0), CoefficientTensor.diagonal([1.0, 1.0])).values
    assert np.array_equal(iso, unit)
    assert (np.abs(unit).max(axis=-1) > 0.0)[g.interior_mask].all()


def test_residual_leaves_the_nodes_on_the_box_bound_out():
    # a node with a component on its bound reads 0; every other node keeps
    # the bits of the residual without a box
    g = unit_disk(17)
    box = np.array([0.6, 0.8])
    vals = np.clip(random_field(g, 2, seed=5), -box, box)
    U = Field(g, vals)
    on = (np.abs(vals) >= box).any(axis=-1) & g.interior_mask
    assert on.any() and (g.interior_mask & ~on).any()
    free = el_residual(g, U, gaussian(1.0)).values
    held = el_residual(g, U, gaussian(1.0), box=box).values
    assert np.all(held[on] == 0.0)
    assert np.array_equal(held[~on], free[~on])


def test_residual_skips_the_face_weights_of_nodes_on_the_bound():
    # e^{f_face - f_node} is e^{1215} at the node held at 0.9 beside 0
    g = interval(5)
    vals = np.array([0.0, 0.0, 0.9, 0.0, 0.0])[:, None]
    res = el_residual(g, Field(g, vals), gaussian(2000.0), box=np.array([0.9]))
    assert np.isfinite(res.values).all() and res.values[2, 0] == 0.0


def test_ellipticity_bounds():
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    lo, hi = ellipticity_bounds(CoefficientTensor.identity(), pts)
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12

    two = CoefficientTensor.diagonal([2.0, 2.0])
    lo, hi = ellipticity_bounds(two, pts)
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)

    mixed = CoefficientTensor.diagonal([1.0, 3.0])
    lo, hi = ellipticity_bounds(mixed, pts)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(3.0, abs=1e-12)


def test_sample_tensor_reads_the_points_the_formulas_read():
    # 1.01 - |x|^2 is elliptic on the closed unit disk only
    g = unit_disk(17)
    A = CoefficientTensor.diagonal([lambda p: 1.01 - np.sum(p * p, axis=-1), 2.0])
    S = sample_tensor(g, A)
    assert S.shape == (33, 33, 2)
    nodes = S[half_index(2)]
    assert np.array_equal(nodes[g.interior_mask], A.eval(g.points()[g.interior_mask]))
    assert (nodes[~g.interior_mask] == 1.0).all()
    mids = S[half_index(2, (0, 1))]
    assert (mids[~g.cell_mask] == 1.0).all() and (mids[g.cell_mask] > 0.0).all()
    assert sample_tensor(g, S) is S
    assert sample_tensor(g, CoefficientTensor.identity()) is None


def test_sampled_tensor_gives_the_bits_of_the_tensor():
    g = unit_disk(17)
    w = gaussian(1.0)
    A = CoefficientTensor.diagonal([1.0, lambda p: 1.01 - np.sum(p * p, axis=-1)])
    S = sample_tensor(g, A)
    U = Field(g, random_field(g, 2, seed=5))
    assert np.array_equal(el_residual(g, U, w, A).values, el_residual(g, U, w, S).values)
    adm = AdmissibleSet.from_boundary(sample_boundary(g, lambda p: p[:, :1] * p[:, 1:]))
    U_a, rep_a = minimize(g, w, adm, A=A)
    U_s, rep_s = minimize(g, w, adm, A=S)
    assert rep_a.converged
    assert np.array_equal(U_a.values, U_s.values)
    assert np.array_equal(rep_a.energy_history, rep_s.energy_history)
    assert kkt_residual(g, U_a, w, adm, A) == kkt_residual(g, U_a, w, adm, S)


def _reference_energy(grid, vals, w, A):
    """energy_raw written plainly: stacked D, one np.sum over (-2, -1), the mask per call."""
    h = grid.spacing
    ubar = cell_op(vals, h)
    D = np.stack([cell_op(vals, h, i) for i in range(grid.ndim)], axis=-2)
    cell_in = cell_op(grid.in_mask, h) == 1.0
    fcell = w.f_base(ubar)
    wcell = np.exp(fcell)
    S = sample_tensor(grid, A)
    G = D if S is None else S[half_index(grid.ndim, range(grid.ndim))][..., None] * D
    Q = np.sum(D * G, axis=(-2, -1))
    cells = np.exp(w.shift) * grid.cell_volume * (wcell * Q * cell_in)
    base = (wcell * cell_in) * grid.cell_volume
    grad = cell_op_transpose((base * Q)[..., None] * w.fprime(ubar), h)
    for i in range(grid.ndim):
        grad += cell_op_transpose(2.0 * base[..., None] * G[..., i, :], h, i)
    grad *= np.exp(w.shift)
    grad[~grid.interior_mask] = 0.0
    return float(cells.sum()), cells, grad, fcell


_KERNEL_GRIDS = {
    "1d": lambda: interval(9),
    "box": lambda: square(7),
    "disk": lambda: unit_disk(11),
    "3d_box": lambda: build_grid(DomainSpec.box([(0, 1), (-1, 1), (0, 0.5)]), (5, 7, 4)),
    "half_ball": lambda: build_grid(DomainSpec.half_ball(1.0, 3), (9, 9, 5)),
}


@pytest.mark.parametrize("ncomp", [1, 2])
@pytest.mark.parametrize("kind", ["1d", "box", "disk", "half_ball"])
def test_to_nodes_is_the_transpose_of_to_cells(kind, ncomp):
    g = _KERNEL_GRIDS[kind]()
    rng = np.random.default_rng(7 + ncomp)
    cells = tuple(d - 1 for d in g.dims) + (ncomp,)
    x = rng.standard_normal(g.dims + (ncomp,))
    ybar = rng.standard_normal(cells)
    ys = [rng.standard_normal(cells) for _ in range(g.ndim)]
    xbar, D = to_cells(g, x)
    back = to_nodes(g, ybar, ys)
    lhs = np.sum(xbar * ybar) + sum(np.sum(d * y) for d, y in zip(D, ys))
    assert abs(lhs - np.sum(x * back)) <= 1e-13 * abs(lhs)
    # the reference adjoint, summed in the same order, has the same bits
    want = cell_op_transpose(ybar, g.spacing)
    assert np.array_equal(to_nodes(g, ybar), want)
    for i, y in enumerate(ys):
        want += cell_op_transpose(y, g.spacing, i)
    assert np.array_equal(back, want)


@pytest.mark.parametrize("weight", [gaussian(1.0), sphere_chart(2.0)], ids=lambda w: w.label)
@pytest.mark.parametrize("tensor", [False, True], ids=["iso", "tensor"])
@pytest.mark.parametrize("ncomp", [1, 2, 3])
@pytest.mark.parametrize("kind", list(_KERNEL_GRIDS))
def test_cell_kernel_matches_the_plain_reference(kind, ncomp, tensor, weight):
    g = _KERNEL_GRIDS[kind]()
    A = None
    if tensor:
        entries = [lambda p: 2.0 + p[..., 0] ** 2] + [0.5 + i for i in range(g.ndim - 1)]
        A = CoefficientTensor.diagonal(entries)
    vals = random_field(g, ncomp, seed=ncomp)
    value, cells, grad, fb = energy_raw(g, vals, weight, A)
    grad = grad()
    want = _reference_energy(g, vals, weight, A)
    # the cell averages take the same stencils in the same order
    assert np.array_equal(fb, want[3])
    if g.ndim * ncomp <= 7:
        # |DU|^2 sums its n N terms in order, as np.sum does below 8
        assert value == want[0]
        assert np.array_equal(cells, want[1])
        assert np.array_equal(grad, want[2])
    else:
        # np.sum adds 8 or more terms pairwise, the kernel still in order
        assert abs(value - want[0]) <= 1e-15 * abs(want[0])
        assert np.abs(cells - want[1]).max() <= 1e-15 * np.abs(want[1]).max()
        assert np.abs(grad - want[2]).max() <= 1e-15 * np.abs(want[2]).max()
