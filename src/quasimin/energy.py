"""Discrete weighted Dirichlet energy, its exact gradient, and residuals.

The energy of a nodal field U is assembled cell by cell with midpoint
quadrature: per lattice cell, the gradient DU is formed by the cell-averaged
differences D_i (difference along axis i, average along the others), the
weight e^{f} is evaluated at the cell average of U, and the contribution is
e^{f} * Q(DU) * cell volume where Q is either |DU|^2 or the quadratic form
of a coefficient tensor A(x) sampled at the cell midpoint.  D_i and the
average are tensor products of 1D two-point stencils (cell_op), and the
gradient applies their exact transposes (cell_op_adjoint).  The assembly is
a fixed-order sum over cells, so results are bit-reproducible.  grad_energy
returns the analytic partial derivatives of this discrete sum with respect
to interior nodal values.

el_residual is the strong-form diagnostic for the system

    -e^{-f(U)} div(e^{f(U)} grad U) + (1/2) f'(U) |grad U|^2 = 0,

discretized with second-order central stencils and midpoint flux weights.
It agrees with grad_energy / (2 e^f vol) up to O(h^2); optimality of the
constrained minimization problem is judged by the projected gradient, not
by this residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .grids import Field, Grid, shifted
from .weights import Weight


@dataclass(frozen=True)
class CoefficientTensor:
    """Position-dependent coefficients A_{ij}^{ab} for the anisotropic form.

    func maps point arrays (..., n) to (..., n, n, N, N) entries, indexed
    [i, j, a, b] with i, j spatial and a, b component indices.  The energy
    uses the symmetrization over the pairing (i,a) <-> (j,b); the deviation
    from symmetry is recorded in EnergyValue.symmetrization_delta.  Tensors
    flagged is_identity take the isotropic |DU|^2 code path bit-exactly.
    """

    func: Callable[[np.ndarray, int], np.ndarray] | None = None
    is_identity: bool = False
    label: str = "identity"

    @staticmethod
    def identity() -> "CoefficientTensor":
        return CoefficientTensor(func=None, is_identity=True, label="identity")

    @staticmethod
    def diagonal(entries: Sequence, label: str = "diagonal") -> "CoefficientTensor":
        """Spatially diagonal tensor A_{ij}^{ab} = d_i(x) delta_ij delta^ab.

        entries holds one constant or one callable (points -> values) per
        spatial axis.
        """
        entries = list(entries)

        def func(points: np.ndarray, ncomp: int) -> np.ndarray:
            n = points.shape[-1]
            if len(entries) != n:
                raise ValueError("diagonal tensor rank does not match dimension")
            base = points.shape[:-1]
            out = np.zeros(base + (n, n, ncomp, ncomp))
            eye = np.eye(ncomp)
            for i, entry in enumerate(entries):
                val = entry(points) if callable(entry) else float(entry)
                out[..., i, i, :, :] = np.multiply.outer(
                    np.broadcast_to(np.asarray(val, dtype=float), base), eye
                )
            return out

        return CoefficientTensor(func=func, is_identity=False, label=label)

    def eval(self, points: np.ndarray, ncomp: int) -> np.ndarray:
        if self.func is None:
            n = points.shape[-1]
            eye = np.einsum("ij,ab->ijab", np.eye(n), np.eye(ncomp))
            return np.broadcast_to(eye, points.shape[:-1] + eye.shape).copy()
        out = np.asarray(self.func(points, ncomp), dtype=float)
        n = points.shape[-1]
        want = points.shape[:-1] + (n, n, ncomp, ncomp)
        if out.shape != want:
            raise ValueError(f"tensor entries shape {out.shape} != {want}")
        if not np.isfinite(out).all():
            raise ValueError("coefficient tensor evaluated to non-finite entries")
        return out


@dataclass(frozen=True)
class SampledTensor:
    """A coefficient tensor symmetrized at the cell midpoints of one grid.

    The midpoints do not move during a solve, so minimize samples once and
    every energy evaluation reuses Asym (cells + (n, n, N, N)).
    """

    Asym: np.ndarray
    sym_delta: float


def _symmetrize(A: np.ndarray) -> np.ndarray:
    """Symmetrize tensor entries (..., n, n, N, N) over (i, a) <-> (j, b)."""
    return 0.5 * (A + A.transpose(tuple(range(A.ndim - 4)) + (-3, -4, -1, -2)))


def sample_tensor(grid: Grid, A, ncomp: int) -> SampledTensor | None:
    """Sample A at the cell midpoints; None for the isotropic |DU|^2 path.

    A may be None, a CoefficientTensor, or an already sampled tensor.
    """
    if A is None or isinstance(A, SampledTensor):
        return A
    if A.is_identity:
        return None
    Aval = A.eval(_cell_midpoints(grid), ncomp)
    Asym = _symmetrize(Aval)
    sym_delta = float(np.abs(Aval - Asym).max()) if Aval.size else 0.0
    return SampledTensor(Asym, sym_delta)


@dataclass
class EnergyValue:
    """Assembled energy with per-cell contributions and diagnostics."""

    value: float
    cell_values: np.ndarray
    q_norms: dict[float, float] = dataclass_field(default_factory=dict)
    symmetrization_delta: float = 0.0


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


def _cell_kernel(grid: Grid, values: np.ndarray, w: Weight, A: SampledTensor | None):
    """Shared per-cell quantities for energy and gradient assembly.

    Returns (weight e^{f_base} per cell, DU per cell (..., n, N), quadratic
    form per cell, A-weighted gradient G with dQ/dDU = 2G, cell mask, cell
    average of U).
    """
    mean, diffs = cell_stencils(grid)
    ubar = cell_op(values, mean)
    D = np.stack([cell_op(values, d) for d in diffs], axis=-2)
    # a cell is in the domain when all its corners are; exact in binary
    cell_in = cell_op(grid.in_mask, mean) == 1.0

    wcell = np.exp(w.f_base(ubar))

    if A is None:
        Q = np.sum(D * D, axis=(-2, -1))
        G = D
    else:
        G = np.einsum("...ijab,...jb->...ia", A.Asym, D)
        Q = np.einsum("...ia,...ia->...", D, G)
    return wcell, D, Q, G, cell_in, ubar


def _cell_midpoints(grid: Grid) -> np.ndarray:
    axes = [
        grid.origin[k] + grid.spacing[k] * (np.arange(grid.dims[k] - 1) + 0.5)
        for k in range(grid.ndim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def energy_raw(grid: Grid, values: np.ndarray, w: Weight, A=None):
    """Energy value, per-cell contributions, symmetrization delta, and grad.

    A is None, a CoefficientTensor (sampled on this call) or a
    SampledTensor.  grad is a zero-argument closure over this call's
    cell-kernel outputs; calling it returns the exact gradient at the same
    values without a second kernel pass.
    """
    A = sample_tensor(grid, A, values.shape[-1])
    sym_delta = A.sym_delta if A is not None else 0.0
    wcell, _, Q, G, cell_in, ubar = _cell_kernel(grid, values, w, A)
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

    return float(cells.sum()), cells, sym_delta, grad


def grad_raw(grid: Grid, values: np.ndarray, w: Weight, A=None) -> np.ndarray:
    """Exact gradient of the discrete energy w.r.t. interior nodal values."""
    return energy_raw(grid, values, w, A)[3]()


def energy(grid: Grid, U: Field, w: Weight,
           A: CoefficientTensor | SampledTensor | None = None,
           q_exponents: Sequence[float] = ()) -> EnergyValue:
    """Assemble E(U) = sum_cells e^{f(Ubar)} Q(DU) vol over in-domain cells.

    q_exponents optionally requests the plain gradient integrals
    int |DU|^q as empirical regularity diagnostics.
    """
    if U.grid is not grid and U.grid.dims != grid.dims:
        raise ValueError("field does not live on the given grid")
    value, cells, sym_delta, _ = energy_raw(grid, U.values, w, A)
    q_norms = {}
    if q_exponents:
        _, D, _, _, cell_in, _ = _cell_kernel(grid, U.values, w, None)
        grad_sq = np.sum(D * D, axis=(-2, -1))
        for q in q_exponents:
            q = float(q)
            q_norms[q] = float(
                (np.power(grad_sq, q / 2.0) * cell_in).sum() * grid.cell_volume
            )
    return EnergyValue(value=value, cell_values=cells, q_norms=q_norms,
                       symmetrization_delta=sym_delta)


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

    Flux differencing uses e^{f} at edge midpoints (weight of the averaged
    nodal values); |grad U|^2 uses central differences.  The additive shift
    of the weight cancels between e^{-f} and e^{f} and is omitted.  The
    anisotropic variant needs diagonal neighbors, so on masked domains it is
    evaluated only where the full stencil lies in the domain.
    """
    vals = U.values
    ndim = grid.ndim
    ncomp = U.ncomp
    h = grid.spacing

    f_node = w.f_base(vals)
    grad_c = np.zeros(grid.dims + (ndim, ncomp))
    for ax in range(ndim):
        grad_c[..., ax, :] = (shifted(vals, ax, +1) - shifted(vals, ax, -1)) / (2 * h[ax])
    grad_sq = np.sum(grad_c * grad_c, axis=(-2, -1))
    fp = w.fprime(vals)

    if A is None or A.is_identity:
        div = np.zeros_like(vals)
        for ax in range(ndim):
            up = shifted(vals, ax, +1)
            dn = shifted(vals, ax, -1)
            w_up = np.exp(w.f_base(0.5 * (vals + up)))
            w_dn = np.exp(w.f_base(0.5 * (vals + dn)))
            div += (w_up[..., None] * (up - vals) - w_dn[..., None] * (vals - dn)) / h[ax] ** 2
        res = -np.exp(-f_node)[..., None] * div + 0.5 * fp * grad_sq[..., None]
        res[~grid.interior_mask] = 0.0
        return Field(grid, ncomp, res)

    # anisotropic residual:
    #   -e^{-f} d_i(e^f A_{ij}^{ab} d_j U^a) + (1/2) f'^b A_{ij}^{ac} d_i U^a d_j U^c
    pts, faces = residual_points(grid)
    div = np.zeros_like(vals)
    in_f = grid.in_mask.astype(float)
    ok = grid.interior_mask.copy()
    for ax in range(ndim):
        for j in range(ndim):
            if j == ax:
                continue
            # cross terms need the diagonal neighbors along (ax, j)
            for sgn in (+1, -1):
                for s2 in (+1, -1):
                    ok &= shifted(shifted(in_f, j, s2), ax, sgn) > 0.5
        for sgn in (+1, -1):
            nb = shifted(vals, ax, sgn)
            Asym = _symmetrize(A.eval(faces[ax, sgn], ncomp))
            w_face = np.exp(w.f_base(0.5 * (vals + nb)))
            # face gradient: one-sided along ax, averaged central differences across
            dface = np.zeros(grid.dims + (ndim, ncomp))
            dface[..., ax, :] = sgn * (nb - vals) / h[ax]
            for j in range(ndim):
                if j == ax:
                    continue
                cent_here = grad_c[..., j, :]
                dface[..., j, :] = 0.5 * (cent_here + shifted(cent_here, ax, sgn))
            flux = np.einsum("...jab,...ja->...b", Asym[..., ax, :, :, :], dface)
            div += sgn * (w_face[..., None] * flux) / h[ax]
    Anode = _symmetrize(A.eval(pts, ncomp))
    quad = np.einsum("...ijac,...ia,...jc->...", Anode, grad_c, grad_c)
    res = -np.exp(-f_node)[..., None] * div + 0.5 * fp * quad[..., None]
    res[~ok] = 0.0
    return Field(grid, ncomp, res)


def ellipticity_bounds(A: CoefficientTensor, sample_points: np.ndarray,
                       sample_dirs: int, ncomp: int = 1) -> tuple[float, float]:
    """Estimate the two-sided quadratic form bounds of A by sampling.

    The Rayleigh quotient A xi xi / |xi|^2 is scanned over the given points
    and a deterministic direction set: every axis direction e_i x e_a plus
    sample_dirs fixed-seed random unit directions in R^{n x N}.
    """
    if sample_dirs < 1:
        raise ValueError("sample_dirs must be >= 1")
    pts = np.atleast_2d(np.asarray(sample_points, dtype=float))
    n = pts.shape[-1]
    Aval = A.eval(pts, ncomp)

    dirs = []
    for i in range(n):
        for a in range(ncomp):
            xi = np.zeros((n, ncomp))
            xi[i, a] = 1.0
            dirs.append(xi)
    rng = np.random.default_rng(20240901)
    extra = rng.standard_normal((sample_dirs, n, ncomp))
    norms = np.sqrt(np.sum(extra**2, axis=(1, 2), keepdims=True))
    dirs.extend(extra / np.maximum(norms, 1e-300))
    dirs = np.stack(dirs)

    quad = np.einsum("pijab,dia,djb->pd", Aval, dirs, dirs)
    nrm = np.einsum("dia,dia->d", dirs, dirs)
    rayleigh = quad / nrm[None, :]
    return float(rayleigh.min()), float(rayleigh.max())
