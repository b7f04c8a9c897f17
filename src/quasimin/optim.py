"""Projected descent over the box-constrained admissible set.

The admissible set couples a componentwise box bound -C <= U <= C on
interior nodes with exact Dirichlet equality on boundary nodes.  Descent
takes Barzilai-Borwein (BB1) step lengths safeguarded into [1e-12, 1e6]
with monotone Armijo backtracking (factor 1/2, parameter 1e-4) on the true
energy along the projected path, so every iterate is feasible bit-exactly
and the energy history never increases.  Only a trial that passes the
Armijo test is accepted: a search whose _BACKTRACK_LIMIT (60) trials all
fail ends the run at the last accepted iterate.  The line-search values
are fixed module constants (_BACKTRACK, _ARMIJO_C), not solver options.
Convergence is declared on the sup norm of the projected gradient:
gradient components are zeroed wherever a bound is active and the descent
direction points out of the box.

The harmonic-extension start is one oracle.poisson_dirichlet call: DST-I
on box grids, whose interior is every non-hull lattice node, and
DST-I-preconditioned conjugate gradients elsewhere.  Every step is
preconditioned: the descent steps along d = K_w^{-1} g / vol, with the
BB1 length taken in the same metric, <s, vol K_w s> / <s, y>: a spectral
projected gradient in H^1 (Birgin, Martinez and Raydan 2000), whose
iteration count stays flat under refinement.  The first step has length
1/2, the exact minimizer along d of the frozen-weight quadratic model
(vol K_w d = g), so it needs no (s, y) pair and no bootstrap.  K_w =
sum_i D_i^T diag(cell_in e^{f_base(ubar)} a_i) D_i, with a_i the
coefficient tensor's entry along axis i, is the frozen-weight (Kacanov)
linearization of -div(e^{f(U)} A grad U) for every component at once,
rebuilt once f_base has moved by more than _REFACTOR_DF at some
in-domain cell since the last build (_Metric).  On box grids the
half-weight transform W' = e^{f/2} linearizes it to S K S, with K the
cell-averaged Laplacian and S^2 the node mean of the cell weights
(energy.to_nodes), so S^{-1} K^{-1} S^{-1} costs one DST-I pair of
oracle.box_laplacian_inverse (the Sobolev gradient of Neuberger, with
the weight).  On masked and half-ball grids K_w is assembled sparse and
factored by LU.  The BB form <s, K_w s> sums the weighted squares of
the D_i of energy.to_cells.  An interior node with a component that the
projected gradient zeroes is held, a Dirichlet node of the metric: while
some node is held, K_w with the held rows and columns cut down to their
diagonal is factored by LU on every grid, rebuilt when the held set
changes (projected Newton, Bertsekas 1982).  A coefficient tensor is
sampled once per solve (energy.sample_tensor), and the energy and the
metric read it at the cell midpoints.

No claim of global minimality is made; the energy is nonconvex and
different initializations may reach different stationary points (which is
how the two harmonic-map solutions are exposed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import (CoefficientTensor, energy_raw, grad_raw, half_index, sample_tensor,
                     to_cells, to_nodes, weighted_laplacian)
from .grids import BoundaryData, Field, Grid
from .oracle import box_laplacian_inverse, poisson_dirichlet
from .weights import Weight

_STEP_MIN = 1e-12
_STEP_MAX = 1e6
_BACKTRACK_LIMIT = 60
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
# the metric is rebuilt once f_base at some in-domain cell has moved this
# far since the last build
_REFACTOR_DF = 0.7
_LINE_SEARCH_STALL = f"line search failed: all {_BACKTRACK_LIMIT} Armijo trials rejected"
# tol_pg = _TOL_FACTOR (1 + initial energy) unless the options set it
_TOL_FACTOR = 1e-8


@dataclass(frozen=True)
class AdmissibleSet:
    """Box bound C > 0 plus Dirichlet boundary values phi with |phi| <= C."""

    box: np.ndarray
    boundary: BoundaryData

    def __post_init__(self):
        box = np.atleast_1d(np.asarray(self.box, dtype=float))
        object.__setattr__(self, "box", box)
        if box.shape != (self.boundary.ncomp,):
            raise ValueError("box bound rank does not match boundary components")
        if not (box > 0).all():
            raise ValueError("box bound must be positive componentwise")
        phi = self.boundary.values
        if (np.abs(phi) > box[None, :]).any():
            raise ValueError("boundary data violates the box bound")

    @property
    def ncomp(self) -> int:
        return self.boundary.ncomp

    @staticmethod
    def from_boundary(boundary: BoundaryData, box=None) -> "AdmissibleSet":
        """Default box: componentwise max |phi| over boundary nodes."""
        if box is None:
            box = np.abs(boundary.values).max(axis=0)
        return AdmissibleSet(np.asarray(box, dtype=float), boundary)


@dataclass
class SolveOptions:
    """Solver controls; tol_pg defaults to tol_factor * (1 + initial energy).

    tol_factor None takes the caller's default: _TOL_FACTOR in minimize.
    """

    tol_pg: float | None = None
    max_iters: int = 50000
    init: Field | None = None  # None starts from the harmonic extension
    tol_factor: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        # not x > 0 refuses nan too
        if self.tol_pg is not None and not self.tol_pg > 0:
            raise ValueError("tol_pg must be positive")
        if self.tol_factor is not None and not self.tol_factor > 0:
            raise ValueError("tol_factor must be positive")


@dataclass
class SolveReport:
    """What the descent loop alone knows; the counts it implies are derived.

    energy_history and pg_history hold one entry for the start and one per
    accepted step.  stall_reason is empty unless the run stopped early: on
    a line search whose _BACKTRACK_LIMIT Armijo trials all failed, or on no
    progress at numerical precision.
    """

    energy_history: np.ndarray
    pg_history: np.ndarray
    active_count: int
    tol_pg: float
    stall_reason: str = ""
    backtracks: int = 0
    factorizations: int = 0

    @property
    def iterations(self) -> int:
        return len(self.energy_history) - 1

    @property
    def energy_evals(self) -> int:
        """The start, then every line-search trial: each accepted step and each backtrack."""
        return 1 + self.iterations + self.backtracks

    @property
    def final_energy(self) -> float:
        return float(self.energy_history[-1])

    @property
    def final_pg(self) -> float:
        return float(self.pg_history[-1])

    @property
    def converged(self) -> bool:
        return self.final_pg <= self.tol_pg

    @property
    def line_search_failures(self) -> int:
        """1 if the run ended on a failed line search, else 0."""
        return int(self.stall_reason == _LINE_SEARCH_STALL)


def _project_values(values: np.ndarray, adm: AdmissibleSet) -> np.ndarray:
    return adm.boundary.hold(np.clip(values, -adm.box, adm.box))


def project_admissible(U: Field, adm: AdmissibleSet) -> Field:
    """Componentwise clamp into [-C, C] plus exact boundary overwrite.

    Idempotent; exterior entries are zeroed.
    """
    if U.ncomp != adm.ncomp:
        raise ValueError("field components do not match the admissible set")
    return Field(U.grid, _project_values(U.values, adm))


def _projected_gradient(values: np.ndarray, grad: np.ndarray,
                        grid: Grid, adm: AdmissibleSet) -> tuple[np.ndarray, np.ndarray]:
    """The projected gradient, and the held nodes: interior nodes with a component it zeroes."""
    pg = grad.copy()
    out = ((values >= adm.box) & (pg < 0)) | ((values <= -adm.box) & (pg > 0))
    pg[out] = 0.0
    off = ~grid.interior_mask
    pg[off] = 0.0
    held = out.any(axis=-1)
    held[off] = False
    return pg, held


def _scaled_block(grid, lap_inv, weights):
    """(S, 1, S^{-1} K^{-1} S^{-1}), S^2 the node mean of the axis-averaged weights."""
    S = np.sqrt(to_nodes(grid, sum(weights) / len(weights)))
    # where every adjacent cell weight underflows, S = 1 mirrors the unit
    # diagonal that K_w gives an empty row
    S[S == 0.0] = 1.0
    S = S[..., None]
    return S, [1.0] * len(weights), lambda r: lap_inv(r / S) / S


def _factored_block(grid, weights, held):
    """(1, c_i, K^{-1}), K = K_w with the held rows and columns cut down to their
    diagonal, factored by sparse LU in float32: only a metric."""
    # imported here, as in weighted_laplacian: only the LU block needs it
    from scipy import sparse
    from scipy.sparse.linalg import splu

    idx = grid.interior_indices
    K = weighted_laplacian(grid, weights).astype(np.float32)
    h = held.reshape(-1)[idx]
    if h.any():
        free = sparse.diags((~h).astype(np.float32))
        K = (free @ K @ free + sparse.diags(h * K.diagonal())).tocsc()
    # an interior node on no weighted cell has an empty row and a zero
    # gradient; a unit diagonal, in float32 to cover rows that underflow
    # only there, keeps K regular, d = 0 there
    K = K + sparse.diags((K.diagonal() == 0.0).astype(np.float32), format="csc")
    try:
        lu = splu(K, permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, relax=4, panel_size=4,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:
        # cell weights that vanish, or underflow float32, on whole regions
        # leave K_w singular beyond the empty rows the unit diagonal covers
        raise FloatingPointError(f"metric factorization failed: {exc}") from None

    def inverse(r):
        out = np.zeros(r.shape)
        k = r.shape[-1]
        out.reshape(-1, k)[idx] = lu.solve(r.reshape(-1, k)[idx].astype(np.float32))
        return out

    return 1.0, [c[..., None] for c in weights], inverse


class _Metric:
    """The frozen-weight operator K_w of every grid, one block for all components.

    Its cell weights c a_i, with c = cell_in e^{f_base(ubar)} and a_i the
    tensor's coefficients at the cell midpoints, are the same for every
    component.  The block (T, c, inverse) has the BB form sum_i sum_cells
    c |D_i (T s)|^2 of K_w, the exact form of the operator it inverts while
    no node is held: the scaled DST-I block on box grids, the LU block
    elsewhere and on every grid while some node is held.  The inverse
    holds no reference to the metric, so it makes no cycle.
    """

    def __init__(self, grid: Grid, A):
        self.grid = grid
        self.A = sample_tensor(grid, A)[half_index(grid.ndim, range(grid.ndim))]
        self.cell_in = grid.cell_mask
        self.lap_inv = box_laplacian_inverse(grid, averaged=True)
        self.f_ref = self.held = None
        self.T, self.cs, self.inverse = 1.0, [], None
        self.factorizations = 0

    def refresh(self, fb: np.ndarray, held: np.ndarray) -> None:
        """Rebuild when the held nodes or f_base at the cells have moved since the last build."""
        if self.f_ref is not None and np.array_equal(held, self.held) and not (
                np.abs(fb - self.f_ref)[self.cell_in] > _REFACTOR_DF).any():
            return
        self.f_ref, self.held = fb, held
        c = self.cell_in * np.exp(fb)
        weights = [c * self.A[..., i] for i in range(self.grid.ndim)]
        if self.lap_inv is None or held.any():
            self.T, self.cs, self.inverse = _factored_block(self.grid, weights, held)
        else:
            self.T, self.cs, self.inverse = _scaled_block(self.grid, self.lap_inv, weights)
        self.factorizations += 1

    def form(self, s: np.ndarray) -> float:
        """<s, K_w s> for s zero off the interior; 0 before the first build."""
        return float(sum(np.sum(c * d ** 2)
                         for c, d in zip(self.cs, to_cells(self.grid, self.T * s)[1])))


def _initial_values(grid: Grid, adm: AdmissibleSet, init: Field | None) -> np.ndarray:
    if init is None:
        return poisson_dirichlet(grid, None, adm.boundary).values
    if init.values.shape != grid.dims + (adm.ncomp,):
        raise ValueError("given initial field has the wrong shape")
    return init.values


def minimize(grid: Grid, w: Weight, adm: AdmissibleSet,
             A: CoefficientTensor | np.ndarray | None = None,
             opts: SolveOptions | None = None) -> tuple[Field, SolveReport]:
    """Minimize the discrete energy over the admissible set.

    Returns the final iterate (feasible bit-exactly) and a report whose
    energy history is nonincreasing.  Non-convergence within max_iters is
    reported through the converged flag, not an exception.
    """
    opts = opts or SolveOptions()
    # the sample points never move: sample the tensor once
    A = sample_tensor(grid, A)
    metric = _Metric(grid, A)

    U = _project_values(_initial_values(grid, adm, opts.init), adm)
    E, _, grad, fb = energy_raw(grid, U, w, A)
    if not np.isfinite(E):
        raise FloatingPointError("initial energy is not finite")
    g = grad()
    pg, held = _projected_gradient(U, g, grid, adm)
    pgn = float(np.abs(pg).max())
    tol = opts.tol_pg if opts.tol_pg is not None else (opts.tol_factor or _TOL_FACTOR) * (1.0 + E)

    energies = [E]
    pgs = [pgn]
    backtracks = 0
    stall = ""
    iters = 0
    # the first step length is 1/2, the exact minimizer along d of the
    # frozen-weight model E - tau <g, d> + tau^2 vol <d, K_w d>, since
    # vol K_w d = g; BB takes over after the first (s, y) pair
    bb, prev_tau = 0.5, 1.0
    best_E, best_pg, last_progress = E, pgn, 0

    while not pgn <= tol and iters < opts.max_iters:
        metric.refresh(fb, held)
        d = metric.inverse(g) / grid.cell_volume
        tau = float(np.clip(bb, _STEP_MIN, _STEP_MAX))
        for _ in range(_BACKTRACK_LIMIT):
            U_new = _project_values(U - tau * d, adm)
            step = U_new - U
            dd = float(np.sum(g * step))
            E_new, _, grad, fb_new = energy_raw(grid, U_new, w, A)
            # a clipped step may point uphill (dd > 0); it must still not raise E
            if np.isfinite(E_new) and E_new <= E + _ARMIJO_C * min(dd, 0.0):
                break
            tau *= _BACKTRACK
            backtracks += 1
        else:
            # no trial passed the Armijo test: stop at the last accepted iterate
            stall = _LINE_SEARCH_STALL
            break

        g_new = grad()
        sy = float(np.sum(step * (g_new - g)))
        # the BB1 length in the metric, <s, vol K_w s> / <s, y>
        ss = grid.cell_volume * metric.form(step)
        bb = ss / sy if sy > 1e-300 and ss > 0 else 2.0 * max(tau, prev_tau)
        prev_tau = tau

        U, E, g, fb = U_new, E_new, g_new, fb_new
        pg, held = _projected_gradient(U, g, grid, adm)
        pgn = float(np.abs(pg).max())
        iters += 1
        energies.append(E)
        pgs.append(pgn)
        if E < best_E or pgn < best_pg:
            best_E = min(best_E, E)
            best_pg = min(best_pg, pgn)
            last_progress = iters
        elif iters - last_progress >= 1000:
            # neither the energy nor the best projected gradient improved
            # for a long stretch: the iteration is pinned at the floating
            # point resolution of the energy comparisons
            stall = "no progress at numerical precision"
            break

    report = SolveReport(
        energy_history=np.asarray(energies),
        pg_history=np.asarray(pgs),
        active_count=int(((np.abs(U) >= adm.box).any(axis=-1) & grid.interior_mask).sum()),
        tol_pg=float(tol),
        stall_reason=stall,
        backtracks=backtracks,
        factorizations=metric.factorizations,
    )
    return Field(grid, U), report


def kkt_residual(grid: Grid, U: Field, w: Weight, adm: AdmissibleSet,
                 A: CoefficientTensor | np.ndarray | None = None) -> float:
    """Sup norm of the projected gradient at an admissible field.

    Zero characterizes discrete stationarity over the admissible set; with
    no active constraint this is exactly the sup norm of the gradient.
    """
    vals = U.values
    flat = vals.reshape(-1, U.ncomp)
    if (np.abs(vals) > adm.box).any():
        raise ValueError("field violates the box bound")
    if not np.array_equal(flat[grid.boundary_indices], adm.boundary.values):
        raise ValueError("field violates the boundary equality")
    g = grad_raw(grid, vals, w, A)
    pg, _ = _projected_gradient(vals, g, grid, adm)
    return float(np.abs(pg).max())
