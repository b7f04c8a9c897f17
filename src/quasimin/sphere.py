"""Harmonic maps into round spheres via stereographic charts.

A map into S^N avoiding a pole Q is represented in the stereographic chart
at Q, where the pullback of the round metric is 4/(1+|Y|^2)^2 dY^2, i.e. the
sphere_chart(2) weight.  Minimizing that weighted energy over a box in chart
coordinates produces a weakly harmonic map that stays away from Q; doing so
in the charts of an antipodal pole pair {P, -P} gives the two-sided solver.

For boundary data that winds around the pole pair (say a degree-one circle
on a disk) the two chart solves are forced apart by the box constraint and
yield the classical small/large pair on their own.  Interval domains are
special: their solutions are geodesics, every geodesic between two distinct
non-antipodal endpoints lies on the great circle through them, and on that
circle target the antipodal pole pair straddles the two arcs, one pole on
each.  Each chart therefore excludes one arc and has the other as its
strict minimizer, so the pair solver reduces interval problems to the great
circle, solves the two charts there, and embeds the results back; both
returned maps are verified critical points found by plain minimization.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .energy import energy
from .grids import BoundaryData, Field, Grid, successors
from .optim import AdmissibleSet, SolveOptions, SolveReport, minimize
from .weights import constant, sphere_chart

_POLE_EPS = 1e-8
_MARGIN_MIN = 1e-3
_POLE_CANDIDATES = 256
# added to the chart data's componentwise max |Y| to make a chart's box
_CHART_MARGIN = 0.5
# the conformal factor inflates the attainable projected-gradient floor
# relative to flat problems, so chart solves default to a looser tol_factor
_CHART_TOL_FACTOR = 1e-7
# the largest | |x| - 1 | accepted of a sphere point
_UNIT_TOL = 1e-8


def as_unit_points(values: np.ndarray) -> np.ndarray:
    """Validate and exactly renormalize an array of sphere points."""
    values = np.asarray(values, dtype=float)
    norms = np.linalg.norm(values, axis=-1)
    if values.size and np.abs(norms - 1.0).max() > _UNIT_TOL:
        raise ValueError("points are not unit vectors")
    return values / norms[..., None]


@dataclass(frozen=True)
class ChartPole:
    """A pole with a deterministic orthonormal frame of chart axes.

    axes has shape (N, N+1); together with the pole it forms an orthonormal
    basis of R^{N+1} whose last element is the pole.
    """

    pole: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        pole = np.asarray(self.pole, dtype=float)
        axes = np.asarray(self.axes, dtype=float)
        object.__setattr__(self, "pole", pole)
        object.__setattr__(self, "axes", axes)
        frame = np.vstack([axes, pole[None, :]])
        if np.abs(frame @ frame.T - np.eye(frame.shape[0])).max() > 1e-12:
            raise ValueError("chart frame is not orthonormal")

    def antipode(self) -> "ChartPole":
        return make_pole(-self.pole)


def make_pole(p: np.ndarray) -> ChartPole:
    """Complete a pole to an orthonormal frame by pivoted Gram-Schmidt.

    Standard basis vectors are fed in ascending order of |p_i| (ties by
    index), which fixes the chart axes deterministically; the frame of -p
    has the same axes as the frame of p.
    """
    p = np.asarray(p, dtype=float)
    p = p / np.linalg.norm(p)
    d = p.size
    order = np.argsort(np.abs(p), kind="stable")
    axes = []
    for idx in order:
        v = np.zeros(d)
        v[idx] = 1.0
        v = v - (v @ p) * p
        for a in axes:
            v = v - (v @ a) * a
        # second pass keeps the frame orthonormal to machine precision
        v = v - (v @ p) * p
        for a in axes:
            v = v - (v @ a) * a
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            axes.append(v / nrm)
        if len(axes) == d - 1:
            break
    return ChartPole(pole=p, axes=np.asarray(axes))


def stereo_project(pole: ChartPole, points: np.ndarray) -> np.ndarray:
    """Chart coordinates Y = p_perp / (1 - p . pole); singular at the pole."""
    pts = np.asarray(points, dtype=float)
    dist = np.linalg.norm(pts - pole.pole, axis=-1)
    if pts.size and dist.min() < _POLE_EPS:
        raise ValueError("point at or numerically at the chart pole")
    # 1 - p . pole == |p - pole|^2 / 2 for unit vectors, without cancellation
    den = 0.5 * dist * dist
    return (pts @ pole.axes.T) / den[..., None]


def stereo_inverse(pole: ChartPole, Y: np.ndarray) -> np.ndarray:
    """Map chart coordinates back to the sphere, exactly renormalized."""
    Y = np.asarray(Y, dtype=float)
    ysq = np.sum(Y * Y, axis=-1)
    p = (2.0 * (Y @ pole.axes) + (ysq - 1.0)[..., None] * pole.pole) / (1.0 + ysq)[..., None]
    return p / np.linalg.norm(p, axis=-1)[..., None]


def candidate_poles(sphere_dim: int, count: int) -> np.ndarray:
    """Deterministic, roughly uniform candidate poles on S^N.

    Uniform angles on the circle, a Fibonacci lattice on S^2, and a
    fixed-seed Gaussian sample in higher dimensions.
    """
    if count < 1:
        raise ValueError("candidate count must be positive")
    if sphere_dim == 1:
        ang = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if sphere_dim == 2:
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    rng = np.random.default_rng(7130531)
    pts = rng.standard_normal((count, sphere_dim + 1))
    return pts / np.linalg.norm(pts, axis=-1, keepdims=True)


def choose_poles(boundary_points: np.ndarray) -> ChartPole:
    """Pick the pole whose antipodal pair stays farthest from the data.

    Maximizes min over samples of min(dist(P, s), dist(-P, s)) over a
    deterministic set of _POLE_CANDIDATES candidates; fails when no pair
    clears a small margin (boundary data nearly surjective onto the sphere).
    """
    samples = as_unit_points(boundary_points)
    sphere_dim = samples.shape[-1] - 1
    cands = candidate_poles(sphere_dim, _POLE_CANDIDATES)
    # squared distance to the nearer of {P, -P} is 2 - 2 |P . s|
    dots = np.abs(cands @ samples.reshape(-1, samples.shape[-1]).T)
    margins = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * dots.max(axis=1)))
    best = int(np.argmax(margins))
    if margins[best] < _MARGIN_MIN:
        raise ValueError(
            f"no pole pair clears margin {_MARGIN_MIN}; "
            "boundary data covers the sphere too densely"
        )
    return make_pole(cands[best])


@dataclass
class SphereMapResult:
    """One chart solve: chart solution, mapped-back sphere field, diagnostics.

    The chart energy is report.final_energy.
    """

    chart: Field
    mapped: Field
    dirichlet_energy: float
    residual: float
    pole: ChartPole
    report: SolveReport


def harmonic_residual(grid: Grid, V: Field) -> float:
    """Sup norm over interior nodes of Delta_h V + |D_h V|^2 V.

    V must be unit nodewise on in-domain nodes; central stencils throughout.
    """
    vals = V.values
    if np.abs(np.linalg.norm(vals[grid.in_mask], axis=-1) - 1.0).max() > 1e-8:
        raise ValueError("field is not unit-length on in-domain nodes")
    lap = np.zeros_like(vals)
    grad_sq = np.zeros(grid.dims)
    for ax in range(grid.ndim):
        lo, hi = successors(ax)
        # [lo][hi] holds the nodes with both neighbours along ax
        up, mid, dn = vals[hi][hi], vals[lo][hi], vals[lo][lo]
        h = grid.spacing[ax]
        lap[lo][hi] += (up - 2.0 * mid + dn) / h**2
        cent = (up - dn) / (2.0 * h)
        grad_sq[lo][hi] += np.sum(cent * cent, axis=-1)
    res = lap + grad_sq[..., None] * vals
    return float(np.linalg.norm(res[grid.interior_mask], axis=-1).max())


def _chart_boundary(pole: ChartPole, boundary: BoundaryData) -> BoundaryData:
    Y = stereo_project(pole, as_unit_points(boundary.values))
    return BoundaryData(boundary.grid, Y)


def _chart_box(chart_bdry: BoundaryData) -> np.ndarray:
    return np.abs(chart_bdry.values).max(axis=0) + _CHART_MARGIN


def solve_chart(grid: Grid, boundary: BoundaryData, pole: ChartPole,
                opts: SolveOptions | None = None) -> SphereMapResult:
    """Minimize the sphere_chart(2) energy in one chart and map back.

    Unless the options set tol_pg or tol_factor, the tolerance scale is
    _CHART_TOL_FACTOR.
    """
    chart_bdry = _chart_boundary(pole, boundary)
    adm = AdmissibleSet(_chart_box(chart_bdry), chart_bdry)
    opts = opts or SolveOptions()
    if opts.tol_factor is None:
        opts = dataclasses.replace(opts, tol_factor=_CHART_TOL_FACTOR)
    w = sphere_chart(2.0)
    U, report = minimize(grid, w, adm, opts=opts)

    unit_bdry = BoundaryData(grid, as_unit_points(boundary.values))
    V = Field(grid, unit_bdry.hold(stereo_inverse(pole, U.values)))

    dirichlet = energy(grid, V, constant(0.0)).value
    res = harmonic_residual(grid, V)
    return SphereMapResult(
        chart=U, mapped=V, dirichlet_energy=dirichlet, residual=res, pole=pole, report=report,
    )


def sup_distance(a: Field, b: Field) -> float:
    """Nodewise sup of |a - b| over in-domain nodes."""
    mask = a.grid.in_mask
    diff = np.linalg.norm(a.values - b.values, axis=-1)
    return float(diff[mask].max())


def _interval_circle_pair(grid: Grid, boundary: BoundaryData,
                          opts: SolveOptions | None
                          ) -> tuple[SphereMapResult, SphereMapResult] | None:
    """Two-chart solve of an interval problem reduced to its great circle.

    Returns None unless the domain is an interval and the two endpoint
    values are distinct and non-antipodal.  In the reduced circle target
    the pole normalize(a + b) lies on the minimizing arc and its antipode
    on the complementary arc, so the two chart solves deliver exactly the
    two geodesics; results come back embedded in the ambient sphere,
    minimizing arc first.
    """
    if grid.ndim != 1 or boundary.values.shape[0] != 2:
        return None
    unit_bdry = BoundaryData(grid, as_unit_points(boundary.values))
    a, b = unit_bdry.values
    c = float(a @ b)
    if abs(c) > 1.0 - 1e-8:
        return None
    theta = float(np.arccos(np.clip(c, -1.0, 1.0)))
    e2 = b - c * a
    e2 = e2 / np.linalg.norm(e2)
    plane = np.stack([a, e2])  # rows: orthonormal basis of the circle plane

    circle_bdry = BoundaryData(
        grid, np.array([[1.0, 0.0], [np.cos(theta), np.sin(theta)]])
    )
    mid_short = np.array([np.cos(0.5 * theta), np.sin(0.5 * theta)])
    pole_on_short = make_pole(mid_short)
    pole_on_long = pole_on_short.antipode()

    # the chart whose pole sits on an arc excludes it; the other arc is the
    # chart minimizer
    long_res = solve_chart(grid, circle_bdry, pole_on_short, opts)
    short_res = solve_chart(grid, circle_bdry, pole_on_long, opts)

    def embed(res: SphereMapResult) -> SphereMapResult:
        field = Field(grid, unit_bdry.hold(res.mapped.values @ plane))
        pole3 = make_pole(res.pole.pole @ plane)
        return SphereMapResult(
            chart=res.chart,
            mapped=field,
            dirichlet_energy=energy(grid, field, constant(0.0)).value,
            residual=harmonic_residual(grid, field),
            pole=pole3,
            report=res.report,
        )

    return embed(short_res), embed(long_res)


def solve_harmonic_pair(grid: Grid, boundary: BoundaryData,
                        opts: SolveOptions | None = None
                        ) -> tuple[SphereMapResult, SphereMapResult]:
    """Compute two weakly harmonic maps with the given Dirichlet data.

    Solves in the charts of a deterministically chosen antipodal pole pair.
    Interval domains with distinct non-antipodal endpoint values are reduced
    to the great circle through the endpoints, where the two charts
    separate the minimizing and complementary geodesic (see module notes).
    For data without winding the two results may legitimately coincide.
    """
    sphere_dim = boundary.ncomp - 1
    if grid.ndim > sphere_dim:
        warnings.warn(
            f"domain dimension {grid.ndim} exceeds target sphere dimension "
            f"{sphere_dim}; a pole pair off the boundary range is not guaranteed",
            stacklevel=2,
        )
    reduced = _interval_circle_pair(grid, boundary, opts)
    if reduced is not None:
        return reduced
    pole = choose_poles(boundary.values)
    first = solve_chart(grid, boundary, pole, opts)
    second = solve_chart(grid, boundary, pole.antipode(), opts)
    return first, second
