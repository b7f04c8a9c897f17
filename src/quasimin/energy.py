"""Discrete weighted Dirichlet energy, its exact gradient, and residuals.

The energy of a nodal field U is assembled cell by cell with midpoint
quadrature: per lattice cell, the gradient DU is formed by the cell-averaged
differences D_i (difference along axis i, average along the others), the
weight e^{f} is evaluated at the cell average of U, and the contribution is
e^{f} * Q(DU) * cell volume where Q is either |DU|^2 or sum_i a_i |D_i U|^2
for the per-axis coefficients a_i(x) of a CoefficientTensor, sampled at
the cell midpoint and the same for every component.  D_i and the
average are tensor products of 1D two-point stencils (cell_op), and the
gradient applies their exact transposes (cell_op_adjoint).  The assembly is
a fixed-order sum over cells, so results are bit-reproducible.  grad_energy
returns the analytic partial derivatives of this discrete sum with respect
to interior nodal values.

el_residual is the strong-form diagnostic for the system

    -e^{-f(U)} div(e^{f(U)} A grad U) + (1/2) f'(U) <A grad U, grad U> = 0,

discretized with second-order central stencils and midpoint flux weights.
It agrees with grad_energy / (2 e^f vol) up to O(h^2); optimality of the
constrained minimization problem is judged by the projected gradient, not
by this residual.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np
from scipy import sparse

from .grids import Field, Grid, shifted
from .weights import Weight


@dataclass(frozen=True)
class CoefficientTensor:
    """Per-axis coefficients a_i(x) of the anisotropic form, A = diag(a_1..a_n) x I_N.

    The energy density is sum_i a_i |D_i U|^2: every component sees the
    same coefficient along axis i.  entries holds one constant or one
    callable (points -> values) per spatial axis, or is None for the
    identity, which takes the isotropic |DU|^2 code path bit-exactly.
    """

    entries: tuple | None = None

    @staticmethod
    def identity() -> "CoefficientTensor":
        return CoefficientTensor()

    @staticmethod
    def diagonal(entries: Sequence) -> "CoefficientTensor":
        """The tensor with coefficient entries[i] along axis i."""
        return CoefficientTensor(tuple(entries))

    def eval(self, points: np.ndarray) -> np.ndarray:
        """The coefficients at points (..., n), shape (..., n).

        Raises ValueError unless every coefficient is finite and positive:
        a coefficient <= 0 makes the energy unbounded below or degenerate.
        """
        if self.entries is None:
            return np.ones(points.shape)
        if len(self.entries) != points.shape[-1]:
            raise ValueError("diagonal tensor rank does not match dimension")
        base = points.shape[:-1]
        out = np.stack([
            np.broadcast_to(np.asarray(e(points) if callable(e) else float(e), dtype=float), base)
            for e in self.entries
        ], axis=-1)
        if not np.isfinite(out).all():
            raise ValueError("coefficient tensor evaluated to non-finite entries")
        if not (out > 0.0).all():
            raise ValueError("coefficient tensor is not elliptic: an entry is <= 0")
        return out


def sample_tensor(grid: Grid, A) -> np.ndarray | None:
    """The coefficients at the cell midpoints, cells + (n,); None for |DU|^2.

    A may be None, a CoefficientTensor, or coefficients sampled already.
    """
    if A is None or isinstance(A, np.ndarray):
        return A
    if A.entries is None:
        return None
    return A.eval(_cell_midpoints(grid))


@dataclass
class EnergyValue:
    """Assembled energy with per-cell contributions and diagnostics."""

    value: float
    cell_values: np.ndarray
    q_norms: dict[float, float] = dataclass_field(default_factory=dict)


def cell_op(x: np.ndarray, coefs) -> np.ndarray:
    """Nodes -> cells: a tensor product of two-point stencils.

    coefs holds one (lower, upper) weight pair per leading axis of x; the
    pair acts between each node and its successor along that axis.  (1/2,
    1/2) averages, (-1/h, 1/h) differences.  Trailing axes pass through.
    """
    for ax, (lo, hi) in enumerate(coefs):
        head = (slice(None),) * ax
        x = lo * x[head + (slice(None, -1),)] + hi * x[head + (slice(1, None),)]
    return x


def cell_op_adjoint(y: np.ndarray, coefs) -> np.ndarray:
    """Cells -> nodes: the exact transpose of cell_op."""
    for ax in reversed(range(len(coefs))):
        lo, hi = coefs[ax]
        shape = list(y.shape)
        shape[ax] += 1
        out = np.zeros(shape)
        head = (slice(None),) * ax
        out[head + (slice(None, -1),)] = lo * y
        out[head + (slice(1, None),)] += hi * y
        y = out
    return y


def cell_stencils(grid: Grid):
    """The cell average and the cell-averaged differences D_i of a grid.

    Returns (mean, diffs): mean averages along every axis, and diffs[i]
    differences along axis i and averages along the others.
    """
    mean = [(0.5, 0.5)] * grid.ndim
    diffs = []
    for i, h in enumerate(grid.spacing):
        coefs = list(mean)
        coefs[i] = (-1.0 / h, 1.0 / h)
        diffs.append(coefs)
    return mean, diffs


def cell_mask(grid: Grid) -> np.ndarray:
    """The cells whose corners all lie in the domain."""
    # exact in binary: the average of the corner flags is 1 only when all are
    return cell_op(grid.in_mask, cell_stencils(grid)[0]) == 1.0


def weighted_laplacian(grid: Grid, weights) -> sparse.csc_matrix:
    """K_w = sum_i D_i^T diag(weights[i]) D_i on the interior nodes.

    weights[i] holds one value per cell for axis i.  Rows and columns follow
    grid.interior_indices.  The matrix is assembled from its 3^n node
    offsets directly, without forming D_i: each pair of corners (p, q) of
    a cell adds sum_i weights[i] D_i[p] D_i[q] to the entry of node p and
    offset q - p.  Exact zeros are dropped.
    """
    _, diffs = cell_stencils(grid)
    cells = tuple(d - 1 for d in grid.dims)
    bands = collections.defaultdict(lambda: np.zeros(grid.dims))
    for p in itertools.product((0, 1), repeat=grid.ndim):
        for q in itertools.product((0, 1), repeat=grid.ndim):
            val = sum(c * math.prod(d[k][p[k]] * d[k][q[k]] for k in range(grid.ndim))
                      for c, d in zip(weights, diffs))
            off = tuple(b - a for a, b in zip(p, q))
            bands[off][tuple(slice(a, a + m) for a, m in zip(p, cells))] += val
    index = np.full(grid.num_nodes, -1, dtype=np.int32)
    index[grid.interior_indices] = np.arange(grid.num_interior, dtype=np.int32)
    index = index.reshape(grid.dims)
    rows, cols, vals = [], [], []
    for off, band in bands.items():
        # node p couples to p + off; both must be interior
        src = tuple(slice(max(0, -o), d - max(0, o)) for o, d in zip(off, grid.dims))
        dst = tuple(slice(max(0, o), d - max(0, -o)) for o, d in zip(off, grid.dims))
        keep = (index[src] >= 0) & (index[dst] >= 0) & (band[src] != 0.0)
        rows.append(index[src][keep])
        cols.append(index[dst][keep])
        vals.append(band[src][keep])
    m = grid.num_interior
    coo = sparse.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(m, m))
    return coo.tocsc()


def _cell_kernel(grid: Grid, values: np.ndarray, w: Weight, A: np.ndarray | None):
    """Shared per-cell quantities for energy and gradient assembly.

    A is None or the coefficients a_i at the cell midpoints.  Returns
    (f_base per cell, weight e^{f_base} per cell, quadratic form per cell,
    A-weighted gradient G with dQ/dDU = 2G, cell mask, cell average of U).
    """
    mean, diffs = cell_stencils(grid)
    ubar = cell_op(values, mean)
    D = np.stack([cell_op(values, d) for d in diffs], axis=-2)
    cell_in = cell_mask(grid)

    fcell = w.f_base(ubar)
    wcell = np.exp(fcell)

    G = D if A is None else A[..., None] * D
    Q = np.sum(D * G, axis=(-2, -1))
    return fcell, wcell, Q, G, cell_in, ubar


def _cell_midpoints(grid: Grid) -> np.ndarray:
    axes = [
        grid.origin[k] + grid.spacing[k] * (np.arange(grid.dims[k] - 1) + 0.5)
        for k in range(grid.ndim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def energy_raw(grid: Grid, values: np.ndarray, w: Weight, A=None):
    """Energy value, per-cell contributions, grad, f_base.

    A is None, a CoefficientTensor (sampled on this call) or its
    coefficients sampled by sample_tensor.  grad is a zero-argument closure
    over this call's cell-kernel outputs; calling it returns the exact
    gradient at the same values without a second kernel pass.  f_base is
    the weight's base function at the cell averages of the values.
    """
    A = sample_tensor(grid, A)
    fcell, wcell, Q, G, cell_in, ubar = _cell_kernel(grid, values, w, A)
    cells = np.exp(w.shift) * grid.cell_volume * (wcell * Q * cell_in)

    def grad() -> np.ndarray:
        mean, diffs = cell_stencils(grid)
        base = (wcell * cell_in) * grid.cell_volume
        # e^{f(ubar)} reaches the nodes through the cell average
        out = cell_op_adjoint((base * Q)[..., None] * w.fprime(ubar), mean)
        for i, d in enumerate(diffs):
            out += cell_op_adjoint(2.0 * base[..., None] * G[..., i, :], d)
        out *= np.exp(w.shift)
        out[~grid.interior_mask] = 0.0
        return out

    return float(cells.sum()), cells, grad, fcell


def grad_raw(grid: Grid, values: np.ndarray, w: Weight, A=None) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. interior nodal values."""
    return energy_raw(grid, values, w, A)[2]()


def energy(grid: Grid, U: Field, w: Weight,
           A: CoefficientTensor | np.ndarray | None = None,
           q_exponents: Sequence[float] = ()) -> EnergyValue:
    """Assemble E(U) = sum_cells e^{f(Ubar)} Q(DU) vol over in-domain cells.

    q_exponents optionally requests the plain gradient integrals
    int |DU|^q as empirical regularity diagnostics.
    """
    if U.grid is not grid and U.grid.dims != grid.dims:
        raise ValueError("field does not live on the given grid")
    value, cells, _, _ = energy_raw(grid, U.values, w, A)
    q_norms = {}
    if q_exponents:
        D = np.stack([cell_op(U.values, d) for d in cell_stencils(grid)[1]], axis=-2)
        grad_sq = np.sum(D * D, axis=(-2, -1))
        cell_in = cell_mask(grid)
        for q in q_exponents:
            q = float(q)
            q_norms[q] = float(
                (np.power(grad_sq, q / 2.0) * cell_in).sum() * grid.cell_volume
            )
    return EnergyValue(value=value, cell_values=cells, q_norms=q_norms)


def grad_energy(grid: Grid, U: Field, w: Weight,
                A: CoefficientTensor | None = None) -> Field:
    """Analytic gradient of the discrete energy (zero on boundary nodes)."""
    return Field(grid, U.ncomp, grad_raw(grid, U.values, w, A))


def residual_points(grid: Grid) -> tuple[np.ndarray, dict]:
    """The points at which el_residual evaluates a coefficient tensor.

    Returns the lattice nodes and, keyed by (axis, sign), the face points
    x + sign h_axis e_axis / 2 of every node, in and out of the domain.
    """
    pts = grid.points()
    faces = {}
    for ax in range(grid.ndim):
        for sgn in (+1, -1):
            face = pts.copy()
            face[..., ax] += sgn * 0.5 * grid.spacing[ax]
            faces[ax, sgn] = face
    return pts, faces


def el_residual(grid: Grid, U: Field, w: Weight,
                A: CoefficientTensor | None = None) -> Field:
    """Strong-form residual at interior nodes using central stencils.

    For coefficients a_i the system reads

        -e^{-f} sum_i d_i(e^f a_i d_i U) + (1/2) f'(U) sum_i a_i |d_i U|^2 = 0.

    Flux differencing uses e^{f} a_i at the face midpoints x +- h_i e_i / 2
    (the weight of the averaged nodal values); |d_i U|^2 uses central
    differences and a_i at the node.  The additive shift of the weight
    cancels between e^{-f} and e^{f} and is omitted.  With A None or the
    identity nothing is multiplied by a coefficient.
    """
    vals = U.values
    h = grid.spacing
    a_node = faces = None
    if A is not None and A.entries is not None:
        pts, faces = residual_points(grid)
        a_node = A.eval(pts)

    f_node = w.f_base(vals)
    grad_c = np.zeros(grid.dims + (grid.ndim, U.ncomp))
    div = np.zeros_like(vals)
    for ax in range(grid.ndim):
        up = shifted(vals, ax, +1)
        dn = shifted(vals, ax, -1)
        grad_c[..., ax, :] = (up - dn) / (2 * h[ax])
        w_up = np.exp(w.f_base(0.5 * (vals + up)))
        w_dn = np.exp(w.f_base(0.5 * (vals + dn)))
        if faces is not None:
            w_up = w_up * A.eval(faces[ax, +1])[..., ax]
            w_dn = w_dn * A.eval(faces[ax, -1])[..., ax]
        div += (w_up[..., None] * (up - vals) - w_dn[..., None] * (vals - dn)) / h[ax] ** 2
    sq = grad_c * grad_c
    if a_node is not None:
        sq = a_node[..., None] * sq
    grad_sq = np.sum(sq, axis=(-2, -1))
    res = -np.exp(-f_node)[..., None] * div + 0.5 * w.fprime(vals) * grad_sq[..., None]
    res[~grid.interior_mask] = 0.0
    return Field(grid, U.ncomp, res)


def ellipticity_bounds(A: CoefficientTensor, sample_points: np.ndarray) -> tuple[float, float]:
    """The exact bounds of the form A xi xi / |xi|^2 over the given points.

    For A = diag(a_1..a_n) x I_N the Rayleigh quotient ranges exactly over
    the coefficients, so the bounds are their least and greatest values.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    a = A.eval(pts)
    return float(a.min()), float(a.max())
