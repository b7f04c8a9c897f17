import numpy as np
import pytest

from quasimin import (
    CoefficientTensor,
    DomainSpec,
    Field,
    build_grid,
    constant,
    el_residual,
    ellipticity_bounds,
    energy,
    gaussian,
    grad_energy,
    halfweight_table,
    sphere_chart,
)
from quasimin.energy import energy_raw, grad_raw


def square(n):
    return build_grid(DomainSpec.box([(0, 1), (0, 1)]), (n, n))


def interval(n):
    return build_grid(DomainSpec.box([(0, 1)]), (n,))


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
    f = Field(g, 2, np.tile([0.3, -0.4], g.dims + (1,)))
    for w in (gaussian(1.0), sphere_chart(2.0), constant(0.5)):
        ev = energy(g, f, w)
        assert ev.value == 0.0
        assert np.all(grad_energy(g, f, w).values == 0.0)


def test_linear_1d_energy_exact():
    for n in (5, 9, 33):
        g = interval(n)
        f = Field.from_values(g, g.axis_coords()[0])
        assert energy(g, f, constant(0.0)).value == pytest.approx(1.0, rel=1e-14)


def test_energy_value_equals_cell_sum_and_qnorms():
    g = interval(9)
    f = Field.from_values(g, g.axis_coords()[0])
    ev = energy(g, f, constant(0.0), q_exponents=(2.0, 2.5, 3.0))
    assert ev.value == pytest.approx(ev.cell_values.sum(), rel=0, abs=0)
    for q, val in ev.q_norms.items():
        assert val == pytest.approx(1.0, rel=1e-14)  # |u'| = 1 everywhere


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
    const = Field(g, 1, np.full(g.dims + (1,), 0.7))
    assert np.all(el_residual(g, const, gaussian(1.0)).values == 0.0)

    pts = g.points()
    lin = Field.from_values(g, 2.0 * pts[..., 0] - 0.5 * pts[..., 1])
    res = el_residual(g, lin, constant(2.0))
    assert np.abs(res.values).max() < 1e-12


def test_residual_refinement_on_transform_solution():
    # exact scalar solution sampled from the half-weight transform
    w = gaussian(1.0)
    table = halfweight_table(w, 3.0)
    w1 = float(table.forward(np.array(1.0)))
    res = {}
    for n in (17, 33):
        g = interval(n)
        u = table.inverse(g.axis_coords()[0] * w1)
        f = Field.from_values(g, u)
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
        f = Field.from_values(g, np.sin(np.pi * x) * 0.5)
        gr = grad_energy(g, f, w).values
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


def test_symmetrization_delta_recorded():
    def skewed(points, ncomp):
        n = points.shape[-1]
        base = np.einsum("ij,ab->ijab", np.eye(n), np.eye(ncomp))
        out = np.broadcast_to(base, points.shape[:-1] + base.shape).copy()
        out[..., 0, 1, 0, 0] += 0.25  # asymmetric under (i,a) <-> (j,b)
        return out

    A = CoefficientTensor(func=skewed, label="skewed")
    g = square(6)
    vals = random_field(g, 1, seed=1)
    ev = energy(g, Field(g, 1, vals), gaussian(1.0), A)
    assert ev.symmetrization_delta == pytest.approx(0.125, abs=1e-14)


def test_ellipticity_bounds():
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    lo, hi = ellipticity_bounds(CoefficientTensor.identity(), pts, 64, ncomp=2)
    assert abs(lo - 1.0) <= 1e-12 and abs(hi - 1.0) <= 1e-12

    two = CoefficientTensor.diagonal([2.0, 2.0])
    lo, hi = ellipticity_bounds(two, pts, 64, ncomp=1)
    assert lo == pytest.approx(2.0, abs=1e-12)
    assert hi == pytest.approx(2.0, abs=1e-12)

    mixed = CoefficientTensor.diagonal([1.0, 3.0])
    lo, hi = ellipticity_bounds(mixed, pts, 64, ncomp=2)
    assert lo == pytest.approx(1.0, abs=1e-12)
    assert hi == pytest.approx(3.0, abs=1e-12)
