"""Discrete weighted Dirichlet energy, its exact gradient, and residuals.

The energy of a nodal field U is assembled cell by cell with midpoint
quadrature: per lattice cell, the gradient DU is formed by the cell-averaged
differences D_i (difference along axis i, average along the others), the
weight e^{f} is evaluated at the cell average of U, and the contribution is
e^{f} * Q(DU) * cell volume where Q = sum_i a_i |D_i U|^2 for the per-axis
coefficients a_i(x) of a CoefficientTensor (all 1 for |DU|^2), the same for
every component and read at the cell midpoint from the one evaluation of
sample_tensor (see there for every point it covers).  to_cells forms the
average and every D_i in one pass of 1D two-point stencils, and the
gradient applies its exact transpose, to_nodes.  The assembly is a
fixed-order sum over cells, so results are bit-reproducible.  grad_raw
returns the analytic partial derivatives of this discrete sum with respect
to interior nodal values.

el_residual is the strong-form diagnostic for the system

    -e^{-f(U)} div(e^{f(U)} A grad U) + (1/2) f'(U) <A grad U, grad U> = 0,

discretized with second-order central stencils and midpoint flux weights.
It agrees with grad_raw / (2 e^f vol) up to O(h^2); optimality of the
constrained minimization problem is judged by the projected gradient, not
by this residual.  Given the box bound it reads 0 at the nodes on the
bound, where the equation need not hold.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .grids import Field, Grid, successors
from .weights import Weight, _term_sum


@dataclass(frozen=True)
class CoefficientTensor:
    """Per-axis coefficients a_i(x) of the anisotropic form, A = diag(a_1..a_n) x I_N.

    The energy density is sum_i a_i |D_i U|^2: every component sees the
    same coefficient along axis i.  entries holds one constant or one
    callable (points -> values) per spatial axis, or is None for the
    identity, which sample_tensor samples as ones: |DU|^2 bit-exactly.
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


def half_index(ndim: int, odd_axes=()) -> tuple[slice, ...]:
    """The half-step points odd along odd_axes and even along the others.

    No odd axis gives the nodes, every axis the cell midpoints, and axis i
    alone the faces between nodes that are neighbours along axis i.
    """
    return tuple(slice(1 if ax in odd_axes else 0, None, 2) for ax in range(ndim))


def sample_tensor(grid: Grid, A) -> np.ndarray:
    """The coefficients on the half-step lattice, (2 dims - 1) + (n,).

    Point k of the lattice is origin + (h/2) k (see half_index).  A is
    evaluated in one call, at the points that some formula reads: the
    midpoints of the in-domain cells (energy and metric), the interior
    nodes, and the faces between an interior node and an axis neighbour
    (el_residual).  Every other point holds 1.0, so A need only be
    defined and elliptic on the domain.  A may be None, a
    CoefficientTensor, or coefficients sampled already.  None and the
    identity give a read-only view of ones, no memory, exact in products.
    """
    if isinstance(A, np.ndarray):
        return A
    n, inner = grid.ndim, grid.interior_mask
    lattice = tuple(2 * d - 1 for d in grid.dims)
    if A is None or A.entries is None:
        return np.broadcast_to(1.0, lattice + (n,))
    read = np.zeros(lattice, dtype=bool)
    read[half_index(n, range(n))] = grid.cell_mask
    read[half_index(n)] = inner
    for ax in range(n):
        lo, hi = successors(ax)
        # a face is read when either node it joins is interior
        read[half_index(n, (ax,))] = inner[lo] | inner[hi]
    at = np.nonzero(read)
    points = np.stack([o + 0.5 * h * k for o, h, k in zip(grid.origin, grid.spacing, at)], axis=-1)
    out = np.ones(read.shape + (n,))
    out[at] = A.eval(points)
    return out


@dataclass
class EnergyValue:
    """Assembled energy with per-cell contributions and diagnostics."""

    value: float
    cell_values: np.ndarray
    q_norms: dict[float, float] = dataclass_field(default_factory=dict)


def _stencil(x: np.ndarray, ax: int, lo: float, hi: float) -> np.ndarray:
    """Nodes -> cells along axis ax: lo * x + hi * (x's successor)."""
    first, second = successors(ax)
    out = lo * x[first]
    out += hi * x[second]
    return out


def _spread(y: np.ndarray, ax: int, lo: float, hi: float) -> np.ndarray:
    """Cells -> nodes along axis ax: the exact transpose of _stencil."""
    shape = list(y.shape)
    shape[ax] += 1
    out = np.zeros(shape)
    first, second = successors(ax)
    out[first] = lo * y
    out[second] += hi * y
    return out


def to_cells(grid: Grid, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Nodes -> cells: (the cell average xbar, [D_0 x, ..., D_{n-1} x]).

    D_i differences along axis i (-1/h_i, 1/h_i) and averages (1/2, 1/2)
    along the others.  The stencils act in axis order, so each prefix is
    computed once: after axis k, xbar holds the average along axes 0..k and
    D[i] the difference along i <= k with averages along the others.
    Trailing axes of x (components) pass through.
    """
    xbar, D = x, []
    for ax, h in enumerate(grid.spacing):
        D = [_stencil(d, ax, 0.5, 0.5) for d in D] + [_stencil(xbar, ax, -1.0 / h, 1.0 / h)]
        xbar = _stencil(xbar, ax, 0.5, 0.5)
    return xbar, D


def to_nodes(grid: Grid, ybar: np.ndarray, ys=()) -> np.ndarray:
    """Cells -> nodes: mean^T ybar + sum_i D_i^T ys[i], the exact transpose of to_cells.

    Each term goes back to the nodes on its own, last axis first, and the
    terms are added in the order mean, D_0, ..., D_{n-1}.
    """
    out = None
    for i, y in enumerate(itertools.chain([ybar], ys), start=-1):
        for ax, h in reversed(list(enumerate(grid.spacing))):
            y = _spread(y, ax, -1.0 / h, 1.0 / h) if ax == i else _spread(y, ax, 0.5, 0.5)
        out = y if out is None else np.add(out, y, out=out)
    return out


def weighted_laplacian(grid: Grid, weights):
    """K_w = sum_i D_i^T diag(weights[i]) D_i on the interior nodes, as scipy.sparse CSC.

    weights[i] holds one value per cell for axis i.  Rows and columns follow
    grid.interior_indices.  The matrix is assembled from its 3^n node
    offsets directly, without forming D_i: each pair of corners (p, q) of
    a cell adds sum_i weights[i] D_i[p] D_i[q] to the entry of node p and
    offset q - p.  At corner p, D_i is (2 p_i - 1) / h_i along axis i and
    1/2 along the others.  Exact zeros are dropped.
    """
    # imported here: only the LU block of the metric needs it
    from scipy import sparse

    n = grid.ndim
    cells = tuple(d - 1 for d in grid.dims)
    bands = collections.defaultdict(lambda: np.zeros(grid.dims))
    for p in itertools.product((0, 1), repeat=n):
        for q in itertools.product((0, 1), repeat=n):
            val = sum(c * ((2 * p[i] - 1) * (2 * q[i] - 1) * (1 / h) * (1 / h) * 0.25 ** (n - 1))
                      for i, (c, h) in enumerate(zip(weights, grid.spacing)))
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


def _cell_kernel(grid: Grid, values: np.ndarray, w: Weight, A: np.ndarray):
    """Shared per-cell quantities for energy and gradient assembly.

    A holds the coefficients a_i sampled by sample_tensor; the kernel
    reads them at the cell midpoints.  Returns (f_base per cell, weight
    e^{f_base} per cell, quadratic form Q per cell, the A-weighted
    differences G_i (cells, N) per axis with dQ/dD_i U = 2 G_i, cell
    average of U).
    """
    ubar, D = to_cells(grid, values)

    fcell = w.f_base(ubar)
    wcell = np.exp(fcell)

    mids = A[half_index(grid.ndim, range(grid.ndim))]
    G = [mids[..., i, None] * d for i, d in enumerate(D)]
    # D is not returned: its buffers take the products d g
    Q = _term_sum(np.multiply(d, g, out=d) for d, g in zip(D, G))
    return fcell, wcell, Q, G, ubar


def energy_raw(grid: Grid, values: np.ndarray, w: Weight, A=None):
    """Energy value, per-cell contributions, grad, f_base.

    A goes through sample_tensor, which takes None, a CoefficientTensor
    or coefficients it sampled before.  grad is a zero-argument closure
    over this call's cell-kernel outputs; calling it returns the exact
    gradient at the same values without a second kernel pass.  f_base is
    the weight's base function at the cell averages of the values.
    """
    A = sample_tensor(grid, A)
    fcell, wcell, Q, G, ubar = _cell_kernel(grid, values, w, A)
    cell_in = grid.cell_mask
    cells = np.exp(w.shift) * grid.cell_volume * (wcell * Q * cell_in)

    def grad() -> np.ndarray:
        base = (wcell * cell_in) * grid.cell_volume
        # e^{f(ubar)} reaches the nodes through the cell average
        out = to_nodes(grid, (base * Q)[..., None] * w.fprime(ubar),
                       (2.0 * base[..., None] * g for g in G))
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
        grad_sq = _term_sum(d * d for d in to_cells(grid, U.values)[1])
        for q in q_exponents:
            q = float(q)
            q_norms[q] = float(
                (np.power(grad_sq, q / 2.0) * grid.cell_mask).sum() * grid.cell_volume
            )
    return EnergyValue(value=value, cell_values=cells, q_norms=q_norms)


def el_residual(grid: Grid, U: Field, w: Weight,
                A: CoefficientTensor | np.ndarray | None = None,
                box: np.ndarray | None = None) -> Field:
    """Strong-form residual at interior nodes using central stencils.

    For coefficients a_i the system reads

        -e^{-f} sum_i d_i(e^f a_i d_i U) + (1/2) f'(U) sum_i a_i |d_i U|^2 = 0.

    Flux differencing uses e^{f} a_i on the faces x +- h_i e_i / 2 between
    axis neighbours (the weight of the averaged nodal values), as
    e^{f_face - f_node}, finite where both underflow; |d_i U|^2 uses
    central differences and a_i at the node.  A is read there, on the
    half-step lattice of sample_tensor.  The additive shift of the weight
    cancels in f_face - f_node and is omitted.  None and the identity
    multiply by 1.0, which is exact.

    Given the box bound C, a node with a component on its bound
    (|U_a| >= C_a) reads 0: the equation need not hold there.  Its face
    weights are not evaluated, since relative to a node weight far below
    its neighbours' they may overflow.
    """
    vals = U.values
    h = grid.spacing
    A = sample_tensor(grid, A)

    keep = grid.interior_mask
    if box is not None:
        keep = keep & ~(np.abs(vals) >= box).any(axis=-1)
    f_node = w.f_base(vals)
    grad_c = [np.zeros_like(vals) for _ in range(grid.ndim)]
    div = np.zeros_like(vals)
    for ax in range(grid.ndim):
        lo, hi = successors(ax)
        # [lo][hi] holds the nodes with both neighbours along ax
        grad_c[ax][lo][hi] = (vals[hi][hi] - vals[lo][lo]) / (2 * h[ax])
        # a_ax d_ax U on each face, weighted e^{f_face - f_node} from either node
        f_face = w.f_base(0.5 * (vals[lo] + vals[hi]))
        jump = A[half_index(grid.ndim, (ax,))][..., ax, None] * (vals[hi] - vals[lo])
        at = keep[lo][hi]
        up, down = (np.exp(np.where(at, f_face[s] - f_node[lo][hi], 0.0))[..., None] * jump[s]
                    for s in (hi, lo))
        div[lo][hi] += (up - down) / h[ax] ** 2
    nodes = A[half_index(grid.ndim)]
    grad_sq = _term_sum(nodes[..., ax, None] * (g * g) for ax, g in enumerate(grad_c))
    res = -div + 0.5 * w.fprime(vals) * grad_sq[..., None]
    res[~keep] = 0.0
    return Field(grid, res)


def ellipticity_bounds(A: CoefficientTensor, sample_points: np.ndarray) -> tuple[float, float]:
    """The exact bounds of the form A xi xi / |xi|^2 over the given points.

    For A = diag(a_1..a_n) x I_N the Rayleigh quotient ranges exactly over
    the coefficients, so the bounds are their least and greatest values.
    """
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    a = A.eval(pts)
    return float(a.min()), float(a.max())
