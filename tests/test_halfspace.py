import numpy as np
import pytest

from quasimin import energy, gaussian, halfspace, minimize, solve_exhaustion, sphere_chart


def gauss_bump(p):
    return np.exp(-np.sum(p * p, axis=-1))


def test_constant_data_stays_constant():
    rep = solve_exhaustion(
        phi=lambda p: np.full(p.shape[:-1], 0.5),
        w=gaussian(1.0),
        radii=[1, 2],
        h=0.5,
        window=[(0, 0.5), (0, 0.5)],
    )
    assert rep.sup_norms == [0.5, 0.5]
    assert rep.window_diffs == [0.0]
    assert rep.uniform_bound_ok


def test_gaussian_data_stabilizes():
    rep = solve_exhaustion(
        phi=gauss_bump, w=gaussian(1.0), radii=[2, 4, 8], h=0.25,
        window=[(0, 1), (0, 1)],
    )
    assert rep.converged_all
    assert rep.uniform_bound_ok
    assert len(rep.window_diffs) == 2
    assert rep.window_diffs[1] <= rep.window_diffs[0]
    # exact minimizer-vs-competitor inequality, every radius
    for r in rep.reports:
        assert r.final_energy <= r.energy_history[0]
    # window energy is part of the full-domain energy
    for we, r in zip(rep.window_energies, rep.reports):
        assert we <= r.final_energy
    box_sup = float(rep.box_bound.max())
    for sup in rep.sup_norms:
        assert sup <= box_sup


@pytest.mark.parametrize("w", [gaussian(1.0), sphere_chart(2.0)], ids=lambda w: w.label)
@pytest.mark.parametrize("ncomp", [1, 2])
def test_full_energy_is_each_solves_final_energy(monkeypatch, w, ncomp):
    solves = []

    def recorded(g, *args, **kwargs):
        u, rep = minimize(g, *args, **kwargs)
        solves.append((g, u))
        return u, rep

    monkeypatch.setattr(halfspace, "minimize", recorded)
    phi = gauss_bump if ncomp == 1 else (
        lambda p: np.stack([gauss_bump(p), 0.5 * np.tanh(p[..., 0])], axis=-1))
    rep = solve_exhaustion(phi=phi, w=w, radii=[1, 2, 3], h=0.25, window=[(0, 0.5), (0, 0.5)])
    assert len(solves) == 3
    # the descent's last recorded energy is the energy of the field it returns
    assert [r.final_energy for r in rep.reports] == [energy(g, u, w).value for g, u in solves]


def test_competitor_energy_is_the_start_the_descent_used():
    # the box clips phi inside the domain: the start is not phi, and its
    # energy (1.03 and 1.63) lies below E(phi sample) (1.62 and 2.22)
    rep = solve_exhaustion(
        phi=lambda p: np.exp(-(p[..., 0] ** 2 + (p[..., 1] - 1.0) ** 2)),
        w=gaussian(1.0), radii=[2, 4], h=0.25, window=[(0, 1), (0, 1)], box_bound=0.6,
    )
    assert rep.reports[0].energy_history[0] < 1.1
    for r in rep.reports:
        assert r.final_energy <= r.energy_history[0]


def test_window_fields_share_coordinates():
    rep = solve_exhaustion(
        phi=gauss_bump, w=gaussian(1.0), radii=[2, 4], h=0.5,
        window=[(0, 1), (0, 1)],
    )
    g0, g1 = (f.grid for f in rep.window_fields)
    assert g0.dims == g1.dims
    assert np.allclose(g0.origin, g1.origin)
    assert np.allclose(g0.spacing, g1.spacing)


@pytest.mark.parametrize("h", [0.0, -0.5, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_spacing_that_is_not_finite_and_positive_is_refused(h):
    with pytest.raises(ValueError, match="spacing h must be finite and positive"):
        solve_exhaustion(gauss_bump, gaussian(1.0), [1, 2], h, [(0, 0.5), (0, 0.5)])


def test_validation_errors():
    with pytest.raises(ValueError, match="increasing"):
        solve_exhaustion(gauss_bump, gaussian(1.0), [2, 2], 0.5, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="half-ball"):
        solve_exhaustion(gauss_bump, gaussian(1.0), [1, 2], 0.5, [(0, 2), (0, 1)])
    with pytest.raises(ValueError, match="half-space"):
        solve_exhaustion(gauss_bump, gaussian(1.0), [2, 4], 0.5, [(0, 1), (-1, 1)])
    with pytest.raises(ValueError, match="multiple"):
        solve_exhaustion(gauss_bump, gaussian(1.0), [1.75, 2], 0.5, [(0, 1), (0, 1)])
