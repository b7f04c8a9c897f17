"""Uniform tensor-product grids, node classification, and nodal fields.

Domains are axis-aligned boxes, optionally carved down by a mask predicate
evaluated at node coordinates, with a built-in half-ball {x_n >= 0, |x| <= R}.
Nodes are classified interior / boundary / exterior: a node is boundary when
it lies in the domain and either sits on the bounding-box hull or has an
axis-neighbor outside the domain.  Curved boundaries are therefore staircase
approximations (first-order accurate near the boundary).

Grids, fields, and boundary data are immutable after construction; their
arrays, copies for fields and boundary data, are marked read-only so they
can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

INTERIOR = 0
BOUNDARY = 1
EXTERIOR = 2

_ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class DomainSpec:
    """A box, one (lo, hi) interval per axis, carved down by an optional mask.

    mask is a vectorized predicate on point arrays of shape (..., n); None
    keeps the whole box.
    """

    extents: tuple[tuple[float, float], ...]
    mask: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for lo, hi in self.extents:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"degenerate extent ({lo}, {hi})")

    @property
    def ndim(self) -> int:
        return len(self.extents)

    @staticmethod
    def box(extents: Sequence[Sequence[float]]) -> "DomainSpec":
        return DomainSpec(tuple((float(a), float(b)) for a, b in extents))

    @staticmethod
    def masked_box(extents: Sequence[Sequence[float]], mask) -> "DomainSpec":
        return DomainSpec(tuple((float(a), float(b)) for a, b in extents), mask)

    @staticmethod
    def half_ball(radius: float, ndim: int) -> "DomainSpec":
        """Half-ball {x_n >= 0, |x| <= R} inside its tight bounding box."""
        radius = float(radius)
        if radius <= 0:
            raise ValueError("half_ball requires radius > 0")
        if ndim < 1:
            raise ValueError("ndim must be >= 1")
        extents = tuple((-radius, radius) for _ in range(ndim - 1)) + ((0.0, radius),)
        rad2_max, tol = radius * radius * (1.0 + 1e-12), 1e-12 * radius

        def inside(points):
            return (np.sum(points**2, axis=-1) <= rad2_max) & (points[..., -1] >= -tol)

        return DomainSpec(extents, inside)

    def membership(self, points: np.ndarray) -> np.ndarray:
        """Boolean in-domain test at points of shape (..., n)."""
        if self.mask is None:
            return np.ones(points.shape[:-1], dtype=bool)
        out = np.asarray(self.mask(points))
        if out.shape != points.shape[:-1]:
            out = np.broadcast_to(out, points.shape[:-1])
        return out.astype(bool)


class Grid:
    """Uniform lattice over a domain's bounding box with node classes.

    Node classes partition the lattice; construction is deterministic, so
    rebuilding from equal inputs is bit-identical.
    """

    def __init__(self, dims, spacing, origin, node_class: np.ndarray):
        self.dims = tuple(int(d) for d in dims)
        self.spacing = tuple(float(h) for h in spacing)
        self.origin = tuple(float(o) for o in origin)
        # not 0 < h < inf refuses nan too
        if not all(0 < h < np.inf for h in self.spacing):
            raise ValueError("grid spacing must be finite and positive")
        if not np.isfinite(self.origin).all():
            raise ValueError("grid origin must be finite")
        node_class = np.ascontiguousarray(node_class, dtype=np.int8)
        if node_class.shape != self.dims:
            raise ValueError("node_class shape does not match dims")
        node_class.setflags(write=False)
        self.node_class = node_class

        self.in_mask = node_class != EXTERIOR
        self.interior_mask = node_class == INTERIOR
        self.boundary_mask = node_class == BOUNDARY
        # the cells whose corners all lie in the domain
        cell_mask = self.in_mask
        for ax in range(self.ndim):
            lo, hi = successors(ax)
            cell_mask = cell_mask[lo] & cell_mask[hi]
        self.cell_mask = cell_mask
        for m in (self.in_mask, self.interior_mask, self.boundary_mask, self.cell_mask):
            m.setflags(write=False)
        # flat indices in row-major scan order (the canonical boundary order)
        self.boundary_indices = np.flatnonzero(self.boundary_mask.ravel())
        self.interior_indices = np.flatnonzero(self.interior_mask.ravel())
        self.boundary_indices.setflags(write=False)
        self.interior_indices.setflags(write=False)

        self._axis_coords = tuple(
            self.origin[k] + self.spacing[k] * np.arange(self.dims[k])
            for k in range(self.ndim)
        )
        for c in self._axis_coords:
            c.setflags(write=False)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.dims))

    @property
    def num_boundary(self) -> int:
        return int(self.boundary_indices.size)

    @property
    def num_interior(self) -> int:
        return int(self.interior_indices.size)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self) -> tuple[np.ndarray, ...]:
        return self._axis_coords

    def points(self) -> np.ndarray:
        """Node coordinates, shape dims + (ndim,)."""
        mesh = np.meshgrid(*self._axis_coords, indexing="ij")
        return np.stack(mesh, axis=-1)

    def boundary_points(self) -> np.ndarray:
        """Coordinates of boundary nodes, shape (num_boundary, ndim)."""
        pts = self.points().reshape(-1, self.ndim)
        return pts[self.boundary_indices]

    def __repr__(self):
        return (
            f"Grid(dims={self.dims}, spacing={self.spacing}, "
            f"interior={self.num_interior}, boundary={self.num_boundary})"
        )


def successors(ax: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Indices of every node that has a successor along axis ax, and of that successor.

    x[lo][hi] are the nodes with both neighbours along ax.
    """
    head = (slice(None),) * ax
    return head + (slice(None, -1),), head + (slice(1, None),)


def any_neighbor(mask: np.ndarray) -> np.ndarray:
    """The nodes with at least one axis neighbour in mask."""
    out = np.zeros_like(mask)
    for ax in range(mask.ndim):
        lo, hi = successors(ax)
        out[lo] |= mask[hi]
        out[hi] |= mask[lo]
    return out


def _classify(in_dom: np.ndarray) -> np.ndarray:
    """Node classes from an in-domain mask (staircase boundary rule)."""
    core = (slice(1, -1),) * in_dom.ndim
    inner = np.zeros_like(in_dom)
    inner[core] = in_dom[core]
    inner &= ~any_neighbor(~in_dom)
    cls = np.full(in_dom.shape, EXTERIOR, dtype=np.int8)
    cls[in_dom] = BOUNDARY
    cls[inner] = INTERIOR
    return cls


def build_grid(domain: DomainSpec, resolution: Sequence[int]) -> Grid:
    """Discretize a domain with the given per-axis node counts.

    Requires at least 3 nodes per axis and a nonempty interior.
    """
    resolution = tuple(int(r) for r in resolution)
    if len(resolution) != domain.ndim:
        raise ValueError("resolution rank does not match domain dimension")
    if any(r < 3 for r in resolution):
        raise ValueError(f"resolution too small {resolution}, need >= 3 per axis")
    spacing = []
    origin = []
    for (lo, hi), r in zip(domain.extents, resolution):
        spacing.append((hi - lo) / (r - 1))
        origin.append(lo)
    mesh = np.meshgrid(
        *(o + h * np.arange(r) for o, h, r in zip(origin, spacing, resolution)),
        indexing="ij",
    )
    points = np.stack(mesh, axis=-1)
    in_dom = domain.membership(points)
    cls = _classify(in_dom)
    if not (cls == INTERIOR).any():
        raise ValueError("domain discretization has an empty interior")
    return Grid(resolution, spacing, origin, cls)


@dataclass
class Field:
    """Vector-valued nodal function on a grid.

    values has shape grid.dims + (ncomp,), and ncomp is read from its last
    axis; entries at exterior nodes are conventionally zero and never enter
    energies or residuals.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float, order="C")
        if self.values.shape[:-1] != self.grid.dims:
            raise ValueError(f"field shape {self.values.shape} != "
                             f"{self.grid.dims} + (ncomp,)")
        if not np.isfinite(self.values[self.grid.in_mask]).all():
            raise ValueError("field holds non-finite values on in-domain nodes")
        self.values.setflags(write=False)

    @property
    def ncomp(self) -> int:
        return self.values.shape[-1]

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1, self.ncomp)

    def sup_norm(self) -> float:
        """Componentwise sup over in-domain nodes."""
        vals = self.flat()[self.grid.in_mask.ravel()]
        return float(np.abs(vals).max()) if vals.size else 0.0


@dataclass
class BoundaryData:
    """Dirichlet values on exactly the boundary node set.

    values has shape (num_boundary, ncomp), ordered by the grid's row-major
    boundary scan (grid.boundary_indices).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float, order="C")
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.num_boundary:
            raise ValueError(
                f"boundary data rows {self.values.shape[0]} != "
                f"boundary node count {self.grid.num_boundary}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("boundary data holds non-finite values")
        self.values.setflags(write=False)

    @property
    def ncomp(self) -> int:
        return self.values.shape[1]

    def hold(self, values: np.ndarray) -> np.ndarray:
        """Write phi onto the boundary nodes and 0 onto the exterior nodes of values.

        values, C-contiguous of shape grid.dims + (ncomp,), is written in
        place; the interior nodes keep their entries.  Returns values.
        """
        if not values.flags.c_contiguous:
            raise ValueError("hold writes a C-contiguous array in place")
        flat = values.reshape(-1, self.ncomp)
        flat[self.grid.boundary_indices] = self.values
        flat[~self.grid.in_mask.ravel()] = 0.0
        return values


def sample_boundary(grid: Grid, expr: Callable[[np.ndarray], np.ndarray]) -> BoundaryData:
    """Evaluate a point function at the boundary nodes, exactly.

    expr maps coordinate arrays of shape (m, n) to scalars, (m,) arrays, or
    (m, N) arrays; scalars broadcast.
    """
    pts = grid.boundary_points()
    out = np.asarray(expr(pts), dtype=float)
    if out.ndim == 0:
        out = np.full((pts.shape[0], 1), float(out))
    elif out.ndim == 1:
        if out.shape[0] != pts.shape[0]:
            out = np.broadcast_to(out, (pts.shape[0], out.shape[0])).copy()
        else:
            out = out[:, None]
    if not np.isfinite(out).all():
        raise ValueError("boundary expression evaluated to non-finite values")
    return BoundaryData(grid, out)


def _window_slices(grid: Grid, window) -> tuple[slice, ...]:
    slices = []
    for ax, (lo, hi) in enumerate(window):
        h = grid.spacing[ax]
        scale = max(abs(h), 1.0)
        i0 = int(round((lo - grid.origin[ax]) / h))
        i1 = int(round((hi - grid.origin[ax]) / h))
        if (
            abs(grid.origin[ax] + i0 * h - lo) > _ALIGN_RTOL * scale
            or abs(grid.origin[ax] + i1 * h - hi) > _ALIGN_RTOL * scale
        ):
            raise ValueError(f"window interval ({lo}, {hi}) not aligned to grid nodes")
        if i0 < 0 or i1 >= grid.dims[ax] or i1 < i0:
            raise ValueError(f"window interval ({lo}, {hi}) outside the grid box")
        slices.append(slice(i0, i1 + 1))
    if len(slices) != grid.ndim:
        raise ValueError("window rank does not match grid dimension")
    return tuple(slices)


def restrict(field: Field, window) -> Field:
    """Restrict a field to a node-aligned sub-box.

    The restricted grid inherits the in-domain mask and reclassifies nodes
    against the window hull, so restricting to the full box is the identity
    and nested restrictions compose.
    """
    grid = field.grid
    slices = _window_slices(grid, window)
    sub_in = grid.in_mask[slices]
    cls = _classify(sub_in)
    dims = tuple(s.stop - s.start for s in slices)
    origin = tuple(
        grid.origin[ax] + slices[ax].start * grid.spacing[ax] for ax in range(grid.ndim)
    )
    sub = Grid(dims, grid.spacing, origin, cls)
    vals = field.values[slices + (slice(None),)]
    return Field(sub, vals)
