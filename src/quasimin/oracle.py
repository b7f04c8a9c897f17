"""Independent exact solvers for the scalar (N = 1) problem.

For a scalar weight f, the substitution w = W(u) with W'(u) = e^{f(u)/2}
linearizes the Euler-Lagrange equation: if u solves

    Delta u + (1/2) f'(u) |Du|^2 = 0,

then Delta w = e^{f/2} (Delta u + (1/2) f'|Du|^2) = 0, so w is harmonic.
solve_scalar_exact therefore computes the discrete harmonic extension of
W(phi) and maps it back through the inverse transform, an exact reference
up to the 5-point stencil's discretization error; the boundary nodes hold
phi itself.  A damped Picard iteration handles the inhomogeneous equation,
whose transform reads -Delta w = e^{f(u)/2} h.

poisson_dirichlet is the package's one 5-point Dirichlet Poisson solve and
also gives the descent's harmonic start: direct by DST-I on box grids
(Buzbee, Golub and Nielson 1970), DST-I-preconditioned conjugate gradients
elsewhere, with the bounding lattice's DST-I inverse as the preconditioner
(Concus and Golub 1973).

The transform table evaluates W by per-interval Gauss-Legendre quadrature
(machine precision for smooth f) and inverts it by bracketed, safeguarded
Newton iteration on the tabulated monotone values, checked to a 1e-15
relative residual.  A Picard step needs u only as accurately as the
iteration's own stop (inexact Newton: Dembo, Eisenstat and Steihaug
1982), so the steps take an unchecked estimate, a cubic Hermite start and
one Newton step whose residual integrates the start's own table interval
with 4 Gauss points, where a forward takes 12.  The estimate's error is
not bounded, so the iteration stops only on a step taken with the checked
inverse.  A Picard run prepares its Dirichlet solve once and takes every
step's Poisson solve from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import BoundaryData, Field, Grid, any_neighbor, successors
from .weights import Weight


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass
class SourceField:
    """Per-node scalar source term h(x)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float).reshape(self.grid.dims)
        if not np.isfinite(self.values[self.grid.in_mask]).all():
            raise ValueError("source holds non-finite values on in-domain nodes")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
# inverse_estimate's Newton residual: the estimate's error is Newton's
# quadratic term, and on the tables its tests build 3 to 12 points give
# the same error against the checked inverse
_GL4_NODES, _GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)
# odd, so that 0 is a table node and W(0) = 0 exactly
_TABLE_NODES = 2049
# the stopping rule of solve_scalar_source
_PICARD_TOL = 1e-10
_PICARD_MAX_ITERS = 500


def _gl_integrate(fn, a: np.ndarray, b: np.ndarray,
                  nodes=_GL_NODES, weights=_GL_WEIGHTS) -> np.ndarray:
    """Fixed-order Gauss-Legendre integral of fn over [a, b], elementwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    acc = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for x, wgt in zip(nodes, weights):
        acc = acc + wgt * fn(mid + half * x)
    return acc * half


class TransformTable:
    """Tabulated monotone map W(u) = int_0^u e^{f(s)/2} ds and its inverse.

    inverse is the checked W^{-1}: a linear start on the table interval,
    then Newton steps until the residual in w is at most 1e-15 (1 + |w|).
    inverse_estimate costs one 4-point quadrature on the table interval
    and checks nothing.  Its error grows with the interval width times
    the slope of f: on |u| <= 3 for gaussian(1), 2e-14 on a table of
    range 14 and 1.2e-12 at range 38.
    A range past the point where e^{f/2} underflows is cut back to where
    every interval integrates to a positive value (gaussian(1): range 39
    becomes 38.50), and an argument beyond the cut is refused because the
    density is not positive there.
    """

    def __init__(self, weight: Weight, range_m: float):
        if range_m <= 0:
            raise ValueError("table range must be positive")
        self.weight = weight
        self.range_m = float(range_m)
        mid = _TABLE_NODES // 2
        # where e^{f/2} underflows, an interval integrates to 0: the range
        # is cut back to the inner end of the innermost such interval, and
        # the table is built again on the shorter range
        self._outside = "argument leaves the transform table range"
        while True:
            self.table_u = np.linspace(-self.range_m, self.range_m, _TABLE_NODES)
            fhalf = 0.5 * self._f_scalar(self.table_u)
            if fhalf.max() > 700.0:
                raise OverflowError(
                    f"e^(f/2) overflows on [-{self.range_m}, {self.range_m}]"
                )
            seg = _gl_integrate(self._density, self.table_u[:-1], self.table_u[1:])
            bad = np.flatnonzero(~(seg > 0))
            if not bad.size:
                break
            self.range_m = float(np.abs(self.table_u[np.where(bad < mid, bad + 1, bad)]).min())
            self._outside = "transform density must be positive on the range"
            if self.range_m == 0.0:
                raise ValueError(self._outside)
        w = np.zeros(_TABLE_NODES)
        w[mid + 1 :] = np.cumsum(seg[mid:])
        w[:mid] = -np.cumsum(seg[:mid][::-1])[::-1]
        self.table_w = w
        # du/dw = e^{-f/2} at the nodes, the slopes of inverse_estimate's
        # cubic Hermite start, clamped where it would overflow; W is flat
        # in double precision next to such a node, so the clamped slope
        # meets a width dw of 0 or a few ulps
        self._dudw = np.exp(-np.maximum(fhalf, -709.0))

    def _f_scalar(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.weight.f_total(u[..., None])

    def _density(self, u: np.ndarray) -> np.ndarray:
        return np.exp(0.5 * self._f_scalar(u))

    @property
    def w_min(self) -> float:
        return float(self.table_w[0])

    @property
    def w_max(self) -> float:
        return float(self.table_w[-1])

    def forward(self, u) -> np.ndarray:
        """W(u); u must lie in [-M, M]."""
        u = np.asarray(u, dtype=float)
        if u.size and (u.min() < -self.range_m or u.max() > self.range_m):
            raise ValueError(self._outside)
        step = self.table_u[1] - self.table_u[0]
        k = np.clip(
            np.floor((u - self.table_u[0]) / step).astype(int), 0, self.table_u.size - 2
        )
        base_u = self.table_u[k]
        return self.table_w[k] + _gl_integrate(self._density, base_u, u)

    def _bracket(self, w):
        """The table interval that holds each w, after the range check.

        Returns w clipped to the table, the interval index k, its ends lo
        and hi, its width dw in w and the fraction t = (w - w_k) / dw.  The
        table's tails can round to one value of w; t is 0 on such a flat
        interval, so a start there is lo.
        """
        w = np.asarray(w, dtype=float)
        if w.size and (w.min() < self.w_min - 1e-12 or w.max() > self.w_max + 1e-12):
            raise ValueError("value leaves the transform table range")
        wc = np.clip(w, self.w_min, self.w_max)
        k = np.clip(np.searchsorted(self.table_w, wc) - 1, 0, self.table_w.size - 2)
        wlo = self.table_w[k]
        dw = self.table_w[k + 1] - wlo
        t = (wc - wlo) / np.where(dw > 0, dw, np.inf)
        return wc, k, self.table_u[k], self.table_u[k + 1], dw, t

    def inverse(self, w) -> np.ndarray:
        """W^{-1}(w) by bracketed Newton iteration on the table."""
        scale = 1.0 + np.abs(np.asarray(w, dtype=float))
        wc, _, lo, hi, _, t = self._bracket(w)
        u = lo + t * (hi - lo)
        for _ in range(60):
            resid = self.forward(u) - wc
            if np.all(np.abs(resid) <= 1e-15 * scale):
                break
            u = np.clip(u - resid / self._density(u), lo, hi)
        else:
            resid = self.forward(u) - wc
            if not np.all(np.abs(resid) <= 1e-12 * scale):
                raise ConvergenceError(
                    "transform inversion did not converge",
                    residual=float(np.abs(resid).max()),
                )
        return u

    def inverse_estimate(self, w) -> np.ndarray:
        """W^{-1}(w), unchecked, at the cost of one 4-point quadrature.

        A cubic Hermite start in w on the table interval, with the slopes
        du/dw = e^{-f/2} of its ends, then one Newton step, clipped to the
        interval.  The step's residual W(u) - w is (w_k - w) plus the
        integral of e^{f/2} from the interval's lower end to u.
        """
        wc, k, lo, hi, dw, t = self._bracket(w)
        s = 1.0 - t
        u = np.clip(lo + t * t * (3.0 - 2.0 * t) * (hi - lo) + dw * t * s * (
            s * self._dudw[k] - t * self._dudw[k + 1]), lo, hi)
        resid = (self.table_w[k] - wc) + _gl_integrate(self._density, lo, u,
                                                       _GL4_NODES, _GL4_WEIGHTS)
        density = self._density(u)
        # a step at least as long as the interval is clipped to one of its
        # ends; taking that end without the division keeps a density that
        # underflows to 0 from making 0/0 or r/0
        step = np.divide(resid, density, out=np.sign(resid) * (hi - lo),
                         where=np.abs(resid) < density * (hi - lo))
        return np.clip(u - step, lo, hi)

    def boundary_values(self, boundary: BoundaryData) -> BoundaryData:
        """W applied to scalar Dirichlet data."""
        if boundary.ncomp != 1:
            raise ValueError("transform oracle handles scalar data only")
        return BoundaryData(boundary.grid, self.forward(boundary.values[:, 0]))


def default_table_range(boundary: BoundaryData) -> float:
    """2 (1 + max|phi| + C), with the box bound C = max|phi| of the data."""
    phi_max = float(np.abs(boundary.values).max()) if boundary.values.size else 0.0
    return 2.0 * (1.0 + phi_max + phi_max)


def _neighbor_sum(values: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.zeros_like(values)
    for ax in range(grid.ndim):
        lo, hi = successors(ax)
        out[lo] += values[hi] / grid.spacing[ax] ** 2
        out[hi] += values[lo] / grid.spacing[ax] ** 2
    return out


def lattice_laplacian_inverse(grid: Grid, averaged: bool = False):
    """DST-I inverse of a Dirichlet Laplacian on the lattice's non-hull nodes.

    The default operator is the 5-point stencil -Delta_h.  averaged=True
    gives the cell-averaged Laplacian K, whose second difference along each
    axis is averaged with weights (1/4, 1/2, 1/4) along every other axis:
    sum over cells of |DU|^2 vol is vol <U, K U>, so K is the Hessian of
    the isotropic energy up to the factor 2 vol.  In one dimension the two
    coincide.  Both are diagonal in the DST-I basis.

    Returns a function taking a full-lattice array r (grid dims, then any
    component axes) to v that solves the chosen operator's equation with r
    on every non-hull node and is 0 on the hull; hull entries of r are
    never read.  The domain mask plays no part: on a box grid this is the
    grid's own Dirichlet inverse, elsewhere it is the bounding lattice's.
    """
    inner = tuple(d - 2 for d in grid.dims)
    # imported here: scipy.fft costs about 80 ms at import, and only
    # Poisson solves and the box metric need it
    from scipy.fft import dstn, idstn

    def along(v, ax):
        return v.reshape([-1 if k == ax else 1 for k in range(grid.ndim)])

    # sin^2(theta / 2) of the DST-I frequencies theta = pi j / (m + 1)
    sin2 = [np.sin(0.5 * np.pi * np.arange(1, m + 1) / (m + 1)) ** 2 for m in inner]
    eig = np.zeros(inner)
    for i, h in enumerate(grid.spacing):
        term = along(4.0 * sin2[i] / h**2, i)
        if averaged:
            for j in range(grid.ndim):
                if j != i:
                    term = term * along(1.0 - sin2[j], j)
        eig += term
    axes = tuple(range(grid.ndim))
    core = (slice(1, -1),) * grid.ndim

    def apply(r: np.ndarray) -> np.ndarray:
        lam = eig.reshape(inner + (1,) * (r.ndim - grid.ndim))
        out = np.zeros(r.shape)
        out[core] = idstn(dstn(r[core], type=1, axes=axes) / lam, type=1, axes=axes)
        return out

    return apply


def box_laplacian_inverse(grid: Grid, averaged: bool = False):
    """lattice_laplacian_inverse on box grids, None elsewhere.

    A box grid is one whose interior nodes are exactly the lattice's
    non-hull nodes, so the lattice inverse is its own Dirichlet inverse.
    """
    if grid.num_interior != math.prod(d - 2 for d in grid.dims):
        return None
    return lattice_laplacian_inverse(grid, averaged)


def _pcg(apply, precond, b: np.ndarray, maxiter: int) -> np.ndarray:
    """Preconditioned conjugate gradients from zero until |r| <= 1e-12 |b|.

    Inner products are np.sum reductions, not BLAS dot products, so the
    iterates do not depend on the BLAS thread count.  apply runs once per
    iteration.
    """
    x = np.zeros_like(b)
    r = b.copy()
    tol = 1e-12 * np.sqrt(np.sum(b * b))
    p, rz = None, None
    for _ in range(maxiter):
        if np.sqrt(np.sum(r * r)) <= tol:
            return x
        z = precond(r)
        rz, rz_prev = np.sum(r * z), rz
        p = z if p is None else z + (rz / rz_prev) * p
        q = apply(p)
        alpha = rz / np.sum(p * q)
        x += alpha * p
        r -= alpha * q
    raise ConvergenceError(f"conjugate gradients did not converge in {maxiter} iterations",
                           residual=float(np.sqrt(np.sum(r * r))))


def _dirichlet_solve(grid: Grid, boundary: BoundaryData):
    """poisson_dirichlet's per-data work, done once; returns solve(rhs).

    The work is the lift of the data onto the interior's right-hand side,
    and box_laplacian_inverse on box grids or the CG operator and its
    preconditioner elsewhere.  solve(rhs), with rhs a SourceField or None,
    returns a new array of values, the same bits as poisson_dirichlet's.
    """
    if grid.num_interior == 0:
        raise ValueError("grid has no interior nodes")
    bfield = boundary.hold(np.zeros(grid.dims + (boundary.ncomp,)))
    # move the boundary columns to the right-hand side
    lift = _neighbor_sum(bfield, grid)

    def source(rhs: SourceField | None) -> np.ndarray:
        return lift if rhs is None else lift + rhs.values[..., None]

    lap_inv = box_laplacian_inverse(grid)
    if lap_inv is not None:
        return lambda rhs: lap_inv(source(rhs)) + bfield

    int_idx = grid.interior_indices
    diag = 2.0 * sum(1.0 / h**2 for h in grid.spacing)

    def apply_homogeneous(v_int: np.ndarray) -> np.ndarray:
        full = np.zeros(grid.num_nodes)
        full[int_idx] = v_int
        full = full.reshape(grid.dims)
        out = diag * full - _neighbor_sum(full, grid)
        return out.reshape(-1)[int_idx]

    lattice_inv = lattice_laplacian_inverse(grid)
    # an interior node with no interior neighbour is a 1x1 block of the
    # operator: M inverts it exactly and keeps it out of the lattice solve,
    # so a zero source there stays exactly zero, as the operator's own
    # Krylov space keeps it
    lone = ~any_neighbor(grid.interior_mask).reshape(-1)[int_idx]

    def apply_preconditioner(r_int: np.ndarray) -> np.ndarray:
        full = np.zeros(grid.num_nodes)
        full[int_idx] = np.where(lone, 0.0, r_int)
        out = lattice_inv(full.reshape(grid.dims)).reshape(-1)[int_idx]
        out[lone] = r_int[lone] / diag
        return out

    def solve(rhs: SourceField | None) -> np.ndarray:
        b = source(rhs)
        # CG fills the interior of a copy, so the lift serves every call
        values = bfield.copy()
        flat = values.reshape(grid.num_nodes, boundary.ncomp)  # a view of values
        for a in range(boundary.ncomp):
            flat[int_idx, a] = _pcg(apply_homogeneous, apply_preconditioner,
                                    b[..., a].reshape(-1)[int_idx], 20 * int_idx.size + 200)
        return values

    return solve


def poisson_dirichlet(grid: Grid, rhs: SourceField | None,
                      boundary: BoundaryData) -> Field:
    """Solve -Delta_h v = rhs with Dirichlet data, per component.

    Standard second-order cross stencil on interior nodes; rhs applies to
    every component.  Box grids solve directly by box_laplacian_inverse.
    Elsewhere CG runs on the interior nodes, preconditioned by
    M = R L^{-1} R^T: R^T scatters a residual onto the bounding lattice
    (zero off the interior), L^{-1} is lattice_laplacian_inverse, and R
    gathers the interior back (Concus and Golub 1973); an interior node
    with no interior neighbour is its own block of M.  The operator and M
    are symmetric positive definite, so CG failure signals an assembly bug
    and raises ConvergenceError.
    """
    return Field(grid, _dirichlet_solve(grid, boundary)(rhs))


def solve_scalar_exact(grid: Grid, f: Weight, boundary: BoundaryData) -> Field:
    """Exact scalar solve via the half-weight transform.

    Computes the discrete harmonic extension of W(phi) and maps it back
    nodewise through the checked inverse transform; the boundary nodes
    hold phi.
    """
    table = TransformTable(f, default_table_range(boundary))
    wfield = poisson_dirichlet(grid, None, table.boundary_values(boundary))
    # the inverse runs on the boundary nodes too, so the interior bits and
    # the Newton count do not depend on the data held over them
    u = table.inverse(np.where(grid.in_mask, wfield.values[..., 0], 0.0))
    return Field(grid, boundary.hold(u[..., None]))


def solve_scalar_source(grid: Grid, f: Weight, boundary: BoundaryData,
                        h: SourceField, damping: float = 1.0) -> tuple[Field, int]:
    """Damped Picard iteration for the inhomogeneous scalar problem.

    Iterates v_{k+1} = (1-theta) v_k + theta * solve(-Delta v = e^{f(u_k)/2} h)
    with u_k = W^{-1}(v_k), starting from the harmonic extension of W(phi).
    The damping is halved whenever the step residual grows.  The steps
    take u_k from TransformTable.inverse_estimate until one moves v by at
    most _PICARD_TOL; from then on they take the checked inverse, and the
    first of those that moves v by at most _PICARD_TOL ends the iteration.
    An estimate's error shifts the fixed point the steps approach, so the
    one step with the checked inverse verifies the answer, or the checked
    steps go on to the true fixed point.  The first checked step moves v
    by that shift, which says nothing of divergence: the residual it is
    compared with restarts at infinity there, so the switch keeps the
    damping.  Every step's Poisson solve comes from one _dirichlet_solve.
    Returns that step's u_k, phi on the boundary nodes, and the number of
    steps; fails after _PICARD_MAX_ITERS steps.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    hmax = float(np.abs(h.values[grid.in_mask]).max()) if h.values.size else 0.0
    table = TransformTable(f, default_table_range(boundary) + hmax)
    solve = _dirichlet_solve(grid, table.boundary_values(boundary))
    v = solve(None)[..., 0]

    theta = damping
    prev_resid = np.inf
    checked = False
    for k in range(1, _PICARD_MAX_ITERS + 1):
        invert = table.inverse if checked else table.inverse_estimate
        u = invert(np.where(grid.in_mask, v, 0.0))
        scale = np.exp(0.5 * f.f_total(u[..., None]))
        v_raw = solve(SourceField(grid, scale * h.values))[..., 0]
        v_next = (1.0 - theta) * v + theta * v_raw
        resid = float(np.abs((v_next - v)[grid.in_mask]).max())
        if resid <= _PICARD_TOL and checked:
            return Field(grid, boundary.hold(u[..., None])), k
        v = v_next
        if resid > prev_resid:
            theta *= 0.5
        prev_resid = resid
        if resid <= _PICARD_TOL:
            checked, prev_resid = True, np.inf
    raise ConvergenceError(
        f"Picard iteration did not contract within {_PICARD_MAX_ITERS} steps",
        residual=resid,
    )
