import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimin import (
    AdmissibleSet,
    BoundaryData,
    DomainSpec,
    Field,
    SolveOptions,
    build_grid,
    choose_poles,
    energy,
    harmonic_residual,
    make_pole,
    minimize,
    sample_boundary,
    solve_chart,
    solve_harmonic_pair,
    sphere_chart,
    stereo_inverse,
    stereo_project,
    sup_distance,
)
from quasimin.sphere import as_unit_points, candidate_poles
from stencils import neighbor


def interval(n):
    return build_grid(DomainSpec.box([(0, 1)]), (n,))


def geodesic_boundary(grid):
    def expr(p):
        out = np.zeros((p.shape[0], 3))
        out[p[:, 0] < 0.5, 0] = 1.0
        out[p[:, 0] >= 0.5, 1] = 1.0
        return out

    return sample_boundary(grid, expr)


def disk_grid(n=25):
    dom = DomainSpec.masked_box(
        [(-1, 1), (-1, 1)], lambda p: np.sum(p * p, axis=-1) <= 1.0 + 1e-12
    )
    return build_grid(dom, (n, n))


def equator_boundary(grid):
    def expr(p):
        th = np.arctan2(p[:, 1], p[:, 0])
        return np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)

    return sample_boundary(grid, expr)


def holomorphic(g):
    """The map x -> (Re g(z), Im g(z)) with z = x1 + i x2, on points (..., 2)."""
    def expr(p):
        w = g(p[..., 0] + 1j * p[..., 1])
        return np.stack([w.real, w.imag], axis=-1)

    return expr


def test_pole_frame_orthonormal_and_shared_axes():
    p = np.array([0.3, -0.4, 0.8660254037844386])
    pole = make_pole(p)
    frame = np.vstack([pole.axes, pole.pole])
    assert np.abs(frame @ frame.T - np.eye(3)).max() <= 1e-12
    anti = pole.antipode()
    assert np.array_equal(anti.axes, pole.axes)
    assert np.array_equal(anti.pole, -pole.pole)


def test_stereo_special_points():
    pole = make_pole(np.array([0.0, 0.0, 1.0]))
    assert np.allclose(stereo_project(pole, -pole.pole), 0.0)
    eq = pole.axes[0]
    assert np.allclose(stereo_project(pole, eq), [1.0, 0.0])
    assert np.allclose(stereo_inverse(pole, np.zeros(2)), -pole.pole)
    with pytest.raises(ValueError, match="pole"):
        stereo_project(pole, pole.pole)


def test_stereo_large_argument_approaches_pole():
    pole = make_pole(np.array([0.0, 0.0, 1.0]))
    for r in (10.0, 100.0):
        p = stereo_inverse(pole, np.array([r, 0.0]))
        assert np.linalg.norm(p - pole.pole) <= 2.0 / r


@given(st.lists(st.floats(-1, 1), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
def test_stereo_round_trip(raw):
    v = np.array(raw)
    if np.linalg.norm(v) < 1e-3:
        v = v + np.array([0.0, 0.0, 1.0])
    v = v / np.linalg.norm(v)
    pole = make_pole(np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(v - pole.pole) < 1e-6:
        return
    back = stereo_inverse(pole, stereo_project(pole, v))
    assert np.linalg.norm(back - v) <= 1e-12


def test_candidate_poles_on_s3_are_deterministic_unit_points():
    pts = candidate_poles(3, 40)
    assert pts.shape == (40, 4)
    assert np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max() <= 1e-15
    assert np.array_equal(pts, candidate_poles(3, 40))


def test_choose_poles_single_point_margin():
    samples = np.tile([1.0, 0.0, 0.0], (8, 1))
    pole = choose_poles(samples)
    margin = min(
        np.linalg.norm(pole.pole - samples[0]), np.linalg.norm(pole.pole + samples[0])
    )
    assert margin >= 1.0


def test_choose_poles_equator_data():
    th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    samples = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
    pole = choose_poles(samples)
    assert abs(abs(pole.pole[2]) - 1.0) <= 0.05
    dots = np.abs(samples @ pole.pole)
    margin = np.sqrt(2.0 - 2.0 * dots.max())
    assert margin >= np.sqrt(2.0) - 0.1


def test_choose_poles_surjective_circle_fails():
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    samples = np.stack([np.cos(th), np.sin(th)], axis=-1)  # dense net of S^1
    with pytest.raises(ValueError, match="margin"):
        choose_poles(samples)


def test_harmonic_residual_constant_zero():
    g = interval(33)
    vals = np.tile([0.0, 0.6, 0.8], g.dims + (1,))
    assert harmonic_residual(g, Field(g, vals)) == 0.0


def test_harmonic_residual_geodesic_refines():
    res = {}
    for n in (51, 101, 201):
        g = interval(n)
        th = g.axis_coords()[0] * (np.pi / 2)
        V = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
        res[n] = harmonic_residual(g, Field(g, V))
    assert 3.0 <= res[51] / res[101] <= 5.0
    assert 3.0 <= res[101] / res[201] <= 5.0



@pytest.mark.parametrize(
    "domain, resolution",
    [(DomainSpec.masked_box([(-1, 1), (-1, 1)], lambda p: np.sum(p * p, axis=-1) <= 1.0),
      (17, 17)),
     (DomainSpec.half_ball(1.0, 3), (11, 13, 7)), (DomainSpec.box([(0, 1)]), (9,))],
    ids=["disk", "half_ball_3d", "interval"],
)
def test_harmonic_residual_is_the_zero_padded_residual(domain, resolution):
    g = build_grid(domain, resolution)
    vals = np.random.default_rng(8).standard_normal(g.dims + (3,))
    vals /= np.linalg.norm(vals, axis=-1, keepdims=True)
    lap = np.zeros_like(vals)
    grad_sq = np.zeros(g.dims)
    for ax, h in enumerate(g.spacing):
        up, dn = neighbor(vals, ax, +1), neighbor(vals, ax, -1)
        lap += (up - 2.0 * vals + dn) / h**2
        cent = (up - dn) / (2.0 * h)
        grad_sq += np.sum(cent * cent, axis=-1)
    mags = np.linalg.norm(lap + grad_sq[..., None] * vals, axis=-1)
    want = float(mags[g.interior_mask].max())
    assert harmonic_residual(g, Field(g, vals)) == want

def test_harmonic_residual_detects_bump():
    g = interval(33)
    vals = np.tile([1.0, 0.0, 0.0], g.dims + (1,))
    vals[16] = [np.cos(0.1), np.sin(0.1), 0.0]  # unit-length tangential nudge
    r = harmonic_residual(g, Field(g, vals))
    assert r > 1.0  # O(bump / h^2)

    bad = vals.copy()
    bad[10] = [1.1, 0.0, 0.0]
    with pytest.raises(ValueError, match="unit"):
        harmonic_residual(g, Field(g, bad))


def test_constant_boundary_pair_is_constant():
    g = interval(41)
    bd = sample_boundary(g, lambda p: np.tile([1.0, 0.0, 0.0], (p.shape[0], 1)))
    r1, r2 = solve_harmonic_pair(g, bd)
    for r in (r1, r2):
        assert r.dirichlet_energy <= 1e-12
        assert sup_distance(r.mapped, Field(g, np.tile([1.0, 0.0, 0.0], g.dims + (1,)))) <= 1e-8


def test_geodesic_pair_energies_and_distance():
    g = interval(101)
    bd = geodesic_boundary(g)
    r1, r2 = solve_harmonic_pair(g, bd)
    e_lo, e_hi = sorted([r1.dirichlet_energy, r2.dirichlet_energy])
    assert e_lo == pytest.approx(np.pi**2 / 4, rel=0.02)
    assert e_hi == pytest.approx(9 * np.pi**2 / 4, rel=0.02)
    assert sup_distance(r1.mapped, r2.mapped) >= 1.0
    for r in (r1, r2):
        assert r.report.converged
        norms = np.linalg.norm(r.mapped.values[g.in_mask], axis=-1)
        assert np.abs(norms - 1.0).max() <= 1e-12


def test_disk_equator_pair_distinct():
    g = disk_grid(25)
    bd = equator_boundary(g)
    r1, r2 = solve_harmonic_pair(g, bd)
    assert sup_distance(r1.mapped, r2.mapped) >= 0.5
    assert r1.dirichlet_energy != r2.dirichlet_energy
    z1 = r1.mapped.values[..., 2][g.interior_mask]
    z2 = r2.mapped.values[..., 2][g.interior_mask]
    assert z1.max() > 0.5 and z2.min() < -0.5  # opposite caps


def test_disk_pair_with_s3_valued_data():
    # the equator of the e1-e2 plane in S^3 bounds a circle of hemispheres,
    # all of one energy; the two charts reach two far-apart ones
    g = disk_grid(17)
    bd = BoundaryData(g, np.pad(equator_boundary(g).values[:, :2], ((0, 0), (0, 2))))
    r1, r2 = solve_harmonic_pair(g, bd)
    assert r1.report.converged and r2.report.converged
    assert r1.dirichlet_energy == pytest.approx(r2.dirichlet_energy, rel=1e-9)
    assert sup_distance(r1.mapped, r2.mapped) >= 1.0
    for r in (r1, r2):
        norms = np.linalg.norm(r.mapped.values[g.in_mask], axis=-1)
        assert np.abs(norms - 1.0).max() <= 1e-12
        assert np.array_equal(r.mapped.values[g.boundary_mask], as_unit_points(bd.values))


def test_chart_energy_matches_dirichlet_energy_under_refinement():
    diffs = []
    for n in (51, 101):
        g = interval(n)
        bd = geodesic_boundary(g)
        pole = make_pole(np.array([0.0, 0.0, 1.0]))
        res = solve_chart(g, bd, pole)
        assert res.report.final_energy == energy(g, res.chart, sphere_chart(2.0)).value
        diffs.append(abs(res.report.final_energy - res.dirichlet_energy))
    assert diffs[1] < diffs[0]


def test_chart_round_trip_consistency():
    g = interval(41)
    bd = geodesic_boundary(g)
    pole = make_pole(np.array([0.0, 0.0, 1.0]))
    res = solve_chart(g, bd, pole)
    re_chart = stereo_project(pole, res.mapped.values)
    assert np.abs(re_chart - res.chart.values).max() <= 1e-10


def test_chart_solve_honours_an_explicit_tolerance_factor():
    g = interval(41)
    bd = geodesic_boundary(g)
    pole = make_pole(np.array([0.0, 0.0, 1.0]))
    for factor, want in ((None, 1e-7), (1e-8, 1e-8), (1e-9, 1e-9)):
        rep = solve_chart(g, bd, pole, SolveOptions(tol_factor=factor)).report
        assert rep.tol_pg / (1.0 + rep.energy_history[0]) == pytest.approx(want, rel=1e-12)


def test_antipodal_symmetry_with_explicit_poles():
    g = interval(41)
    bd = geodesic_boundary(g)
    pole = make_pole(np.array([0.1, -0.2, 1.0]) / np.linalg.norm([0.1, -0.2, 1.0]))
    anti = pole.antipode()
    r1, r2 = solve_chart(g, bd, pole), solve_chart(g, bd, anti)
    neg = BoundaryData(g, -bd.values)
    n1, n2 = solve_chart(g, neg, anti), solve_chart(g, neg, anti.antipode())
    assert sup_distance(n1.mapped, Field(g, -r1.mapped.values)) <= 1e-10
    assert sup_distance(n2.mapped, Field(g, -r2.mapped.values)) <= 1e-10


def test_dimension_hypothesis_warning():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    bd = sample_boundary(
        g, lambda p: np.stack([np.cos(p[:, 0]), np.sin(p[:, 0])], axis=-1)
    )
    with pytest.warns(UserWarning, match="exceeds target"):
        solve_harmonic_pair(g, bd)


def test_geodesic_pair_asymmetric_angle():
    # endpoints at angle 2pi/3: arcs of length 2pi/3 and 4pi/3
    g = interval(101)
    theta = 2 * np.pi / 3

    def expr(p):
        out = np.zeros((p.shape[0], 3))
        out[p[:, 0] < 0.5] = [1.0, 0.0, 0.0]
        out[p[:, 0] >= 0.5] = [np.cos(theta), np.sin(theta), 0.0]
        return out

    r1, r2 = solve_harmonic_pair(g, sample_boundary(g, expr))
    e_lo, e_hi = sorted([r1.dirichlet_energy, r2.dirichlet_energy])
    assert e_lo == pytest.approx(theta**2, rel=0.02)
    assert e_hi == pytest.approx((2 * np.pi - theta) ** 2, rel=0.02)


def test_geodesic_pair_circle_target():
    # maps into S^1: the reduction applies verbatim to the 2-component case
    g = interval(101)

    def expr(p):
        out = np.zeros((p.shape[0], 2))
        out[p[:, 0] < 0.5] = [1.0, 0.0]
        out[p[:, 0] >= 0.5] = [0.0, 1.0]
        return out

    r1, r2 = solve_harmonic_pair(g, sample_boundary(g, expr))
    e_lo, e_hi = sorted([r1.dirichlet_energy, r2.dirichlet_energy])
    assert e_lo == pytest.approx(np.pi**2 / 4, rel=0.02)
    assert e_hi == pytest.approx(9 * np.pi**2 / 4, rel=0.02)


def test_holomorphic_data_converges_at_second_order_on_the_box():
    # sphere_chart(2) is the round metric in stereographic coordinates, and a
    # holomorphic map into the Riemann sphere is harmonic, so (Re g, Im g)
    # solves the system; max |U| = 0.825 keeps the data in the hemisphere
    exact = holomorphic(lambda z: 0.25 * z**2 + 0.2 * z + 0.1j)
    errs = []
    for n in (33, 65, 129):
        g = build_grid(DomainSpec.box([(-1, 1), (-1, 1)]), (n, n))
        adm = AdmissibleSet.from_boundary(sample_boundary(g, exact))
        u, rep = minimize(g, sphere_chart(2.0), adm, opts=SolveOptions(tol_pg=1e-13))
        assert rep.converged and rep.active_count == 0
        errs.append(np.abs(u.values - exact(g.points())).max())
    assert errs[0] / errs[1] >= 3.5 and errs[1] / errs[2] >= 3.5
