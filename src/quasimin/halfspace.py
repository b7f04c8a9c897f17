"""Half-space Dirichlet problems by exhaustion with growing half-balls.

The half-space problem with bounded finite-energy data phi is approximated
on the half-balls B_R^+ = {x_n >= 0, |x| <= R} for an increasing list of
radii at a fixed spacing, Dirichlet data being phi itself on the whole
boundary of B_R^+ (flat and artificial curved part alike).  Stabilization
is reported on a fixed observation window: sup differences of consecutive
solutions restricted to the window, window energies, and the exact uniform
bound |u_R| <= C enforced by the box constraint.

Each solve starts from the sampled phi projected into the box, which is
phi itself under the default box.  The energy of that start, the first
entry of the solve's energy history, is the competitor energy: E(u_R) <=
E(start) holds exactly by monotonicity of the descent.  A box_bound that
clips phi inside the domain changes the start, and E(phi sample) is then
no bound on E(u_R).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .energy import energy
from .grids import DomainSpec, Field, Grid, build_grid, restrict, sample_boundary
from .optim import AdmissibleSet, SolveOptions, SolveReport, minimize
from .weights import Weight


@dataclass
class ExhaustionReport:
    """Per-radius records of the exhaustion run."""

    radii: list[float]
    sup_norms: list[float]
    window_energies: list[float]
    window_diffs: list[float]  # one entry per consecutive radius pair
    uniform_bound_ok: bool
    box_bound: np.ndarray
    window_fields: list[Field] = dataclass_field(default_factory=list)
    # per radius: final_energy is E(u_R), energy_history[0] is E(start)
    reports: list[SolveReport] = dataclass_field(default_factory=list)

    @property
    def converged_all(self) -> bool:
        return all(r.converged for r in self.reports)


def _half_ball_grid(radius: float, spacing: float, ndim: int) -> Grid:
    steps = radius / spacing
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(
            f"radius {radius} is not an integer multiple of spacing {spacing}"
        )
    steps = int(round(steps))
    resolution = tuple(2 * steps + 1 for _ in range(ndim - 1)) + (steps + 1,)
    return build_grid(DomainSpec.half_ball(radius, ndim), resolution)


def _as_field_fn(phi: Callable) -> Callable:
    def fn(points):
        out = np.asarray(phi(points), dtype=float)
        if out.ndim == points.ndim - 1:
            out = out[..., None]
        return out

    return fn


def solve_exhaustion(phi: Callable, w: Weight, radii: Sequence[float],
                     h: float, window: Sequence[Sequence[float]],
                     opts: SolveOptions | None = None,
                     box_bound=None) -> ExhaustionReport:
    """Solve on each half-ball and record stabilization on the window.

    phi maps point arrays (..., n) to scalars or (..., N) vectors and must
    be bounded with finite Dirichlet energy on the sampled extent; the
    window must lie inside the smallest half-ball.  The same box bound
    (componentwise sup of |phi| over all sampled nodes unless overridden)
    is used for every radius, which makes the uniform bound exact.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError("spacing h must be finite and positive")
    radii = [float(r) for r in radii]
    if len(radii) < 1 or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    window = tuple((float(a), float(b)) for a, b in window)
    ndim = len(window)
    r0 = radii[0]
    for lo, hi in window[:-1]:
        if max(abs(lo), abs(hi)) > r0:
            raise ValueError("window leaves the smallest half-ball")
    if window[-1][0] < 0 or window[-1][1] > r0:
        raise ValueError("window leaves the half-space or the smallest half-ball")
    corner = np.array([max(abs(lo), abs(hi)) for lo, hi in window])
    if np.linalg.norm(corner) > r0 * (1 + 1e-12):
        raise ValueError("window leaves the smallest half-ball")

    fn = _as_field_fn(phi)
    grids = [_half_ball_grid(r, h, ndim) for r in radii]
    phi_fields = []
    for g in grids:
        vals = fn(g.points())
        vals = np.where(g.in_mask[..., None], vals, 0.0)
        if not np.isfinite(vals[g.in_mask]).all():
            raise ValueError("phi evaluated to non-finite values")
        phi_fields.append(Field(g, vals))

    if box_bound is None:
        box = np.zeros(phi_fields[0].ncomp)
        for g, f in zip(grids, phi_fields):
            box = np.maximum(box, np.abs(f.flat()[g.in_mask.ravel()]).max(axis=0))
    else:
        box = np.atleast_1d(np.asarray(box_bound, dtype=float))
    box_sup = float(box.max())

    report = ExhaustionReport(
        radii=radii, sup_norms=[], window_energies=[], window_diffs=[],
        uniform_bound_ok=True, box_bound=box,
    )
    prev_window = None
    for g, phi_f in zip(grids, phi_fields):
        bdry = sample_boundary(g, fn)
        adm = AdmissibleSet(box, bdry)
        run_opts = dataclasses.replace(opts or SolveOptions(), init=phi_f)
        u, solve_rep = minimize(g, w, adm, opts=run_opts)

        sup = u.sup_norm()
        report.sup_norms.append(sup)
        report.uniform_bound_ok &= sup <= box_sup

        u_win = restrict(u, window)
        report.window_energies.append(energy(u_win.grid, u_win, w).value)
        if prev_window is not None:
            diff = np.abs(u_win.values - prev_window.values)
            mask = u_win.grid.in_mask & prev_window.grid.in_mask
            report.window_diffs.append(float(diff[mask].max()))
        prev_window = u_win
        report.window_fields.append(u_win)
        report.reports.append(solve_rep)
    return report
