"""Projected descent over the box-constrained admissible set.

The admissible set couples a componentwise box bound -C <= U <= C on
interior nodes with exact Dirichlet equality on boundary nodes.  Descent
takes Barzilai-Borwein (BB1) step lengths safeguarded into [1e-12, 1e6]
with monotone Armijo backtracking (factor 1/2, parameter 1e-4) on the true
energy along the projected path, so every iterate is feasible bit-exactly
and the energy history never increases.  Both line-search values are
fixed module constants (_BACKTRACK, _ARMIJO_C), not solver options.
Convergence is declared on the sup norm of the projected gradient:
gradient components are zeroed wherever a bound is active and the descent
direction points out of the box.

The harmonic-extension start is one oracle.poisson_dirichlet call.  On
box grids, whose interior is every non-hull lattice node, that solve is
direct, and while no interior component sits on its box bound the
descent steps along the Sobolev gradient d = K^{-1} g / vol (Neuberger),
where K is the cell-averaged Laplacian, the Hessian of the isotropic
energy up to the factor 2 vol, inverted by the DST-I of
oracle.box_laplacian_inverse.  The BB1 length is taken in the same metric,
<s, vol K s> / <s, y>, where <s, K s> = sum_i |D_i s|^2 (_averaged_form)
applies the energy's own cell-averaged differences D_i: a spectral
projected gradient in H^1 (Birgin,
Martinez and Raydan 2000), whose iteration count stays flat under
refinement.  While a bound is active, and on every masked or half-ball
grid, it takes plain projected BB steps along g; each step kind keeps its
own BB length.  A coefficient tensor is sampled at the cell midpoints once
per solve.

No claim of global minimality is made; the energy is nonconvex and
different initializations may reach different stationary points (which is
how the two harmonic-map solutions are exposed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .energy import (CoefficientTensor, SampledTensor, cell_op, cell_stencils, energy_raw,
                     grad_raw, sample_tensor)
from .grids import BoundaryData, Field, Grid
from .oracle import box_laplacian_inverse, poisson_dirichlet
from .weights import Weight

_STEP_MIN = 1e-12
_STEP_MAX = 1e6
_BACKTRACK_LIMIT = 60
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5


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
    def from_boundary(boundary: BoundaryData, box=None, margin: float = 0.0) -> "AdmissibleSet":
        """Default box: componentwise max |phi| over boundary nodes (+ margin)."""
        if box is None:
            box = np.abs(boundary.values).max(axis=0) + margin
        return AdmissibleSet(np.asarray(box, dtype=float), boundary)


@dataclass
class SolveOptions:
    """Solver controls; tol_pg defaults to tol_factor * (1 + initial energy)."""

    tol_pg: float | None = None
    max_iters: int = 50000
    init: str | Field = "harmonic_extension"  # "boundary_constant" | Field
    tol_factor: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol_pg is not None and self.tol_pg <= 0:
            raise ValueError("tol_pg must be positive")
        if self.tol_factor <= 0:
            raise ValueError("tol_factor must be positive")


@dataclass
class SolveReport:
    iterations: int
    energy_history: np.ndarray
    pg_history: np.ndarray
    active_count: int
    wall_time: float
    converged: bool
    tol_pg: float
    line_search_failures: int = 0
    stall_reason: str = ""
    energy_evals: int = 0
    backtracks: int = 0
    preconditioned_steps: int = 0

    @property
    def final_energy(self) -> float:
        return float(self.energy_history[-1])

    @property
    def final_pg(self) -> float:
        return float(self.pg_history[-1])


def _project_values(values: np.ndarray, grid: Grid, adm: AdmissibleSet) -> np.ndarray:
    out = np.clip(values, -adm.box, adm.box)
    flat = out.reshape(-1, adm.ncomp)
    flat[grid.boundary_indices] = adm.boundary.values
    flat[~grid.in_mask.ravel()] = 0.0
    return flat.reshape(values.shape)


def project_admissible(U: Field, adm: AdmissibleSet) -> Field:
    """Componentwise clamp into [-C, C] plus exact boundary overwrite.

    Idempotent; exterior entries are zeroed.
    """
    if U.ncomp != adm.ncomp:
        raise ValueError("field components do not match the admissible set")
    return Field(U.grid, U.ncomp, _project_values(U.values, U.grid, adm))


def _projected_gradient(values: np.ndarray, grad: np.ndarray,
                        grid: Grid, adm: AdmissibleSet) -> np.ndarray:
    pg = grad.copy()
    at_hi = values >= adm.box
    at_lo = values <= -adm.box
    pg[at_hi & (pg < 0)] = 0.0
    pg[at_lo & (pg > 0)] = 0.0
    pg[~grid.interior_mask] = 0.0
    return pg


def _averaged_form(s: np.ndarray, grid: Grid) -> float:
    """<s, K s> = sum_i |D_i s|^2 for the cell-averaged Laplacian K, s zero on the hull."""
    return float(sum(np.sum(cell_op(s, d) ** 2) for d in cell_stencils(grid)[1]))


def _initial_values(grid: Grid, adm: AdmissibleSet, init) -> np.ndarray:
    if isinstance(init, Field):
        if init.values.shape != grid.dims + (adm.ncomp,):
            raise ValueError("given initial field has the wrong shape")
        return init.values.copy()
    if init == "boundary_constant":
        const = adm.boundary.values.mean(axis=0)
        return np.tile(const, grid.dims + (1,))
    if init == "harmonic_extension":
        return poisson_dirichlet(grid, None, adm.boundary).values.copy()
    raise ValueError(f"unknown initialization {init!r}")


def _at_bound(values: np.ndarray, grid: Grid, adm: AdmissibleSet) -> np.ndarray:
    """Mask of the interior components that sit on their box bound."""
    at = (values >= adm.box) | (values <= -adm.box)
    at[~grid.interior_mask] = False
    return at


def minimize(grid: Grid, w: Weight, adm: AdmissibleSet,
             A: CoefficientTensor | SampledTensor | None = None,
             opts: SolveOptions | None = None) -> tuple[Field, SolveReport]:
    """Minimize the discrete energy over the admissible set.

    Returns the final iterate (feasible bit-exactly) and a report whose
    energy history is nonincreasing.  Non-convergence within max_iters is
    reported through the converged flag, not an exception.
    """
    opts = opts or SolveOptions()
    t0 = time.perf_counter()
    # the midpoints never move: sample and symmetrize the tensor once
    A = sample_tensor(grid, A, adm.ncomp)
    precond = box_laplacian_inverse(grid, averaged=True)

    U = _project_values(_initial_values(grid, adm, opts.init), grid, adm)
    E, _, _, grad = energy_raw(grid, U, w, A)
    evals = 1
    if not np.isfinite(E):
        raise FloatingPointError("initial energy is not finite")
    g = grad()
    pg = _projected_gradient(U, g, grid, adm)
    pgn = float(np.abs(pg).max())
    tol = opts.tol_pg if opts.tol_pg is not None else opts.tol_factor * (1.0 + E)

    energies = [E]
    pgs = [pgn]
    ls_failures = 0
    backtracks = 0
    pre_steps = 0
    stall = ""
    converged = pgn <= tol
    iters = 0
    # step lengths per step kind, [plain, preconditioned]; each bootstraps
    # with a small relative step, and BB takes over after the first (s, y)
    # pair is available
    scale = 1e-3 * (1.0 + float(np.abs(U).max()))
    taus = [scale / (1.0 + pgn), None]
    prev_taus = [1.0, 1.0]
    best_pg = pgn
    best_E = E
    last_progress = 0

    while not converged and iters < opts.max_iters:
        pre = precond is not None and not _at_bound(U, grid, adm).any()
        if pre:
            d = precond(g) / grid.cell_volume
            if taus[1] is None:
                taus[1] = scale / (1.0 + float(np.abs(d).max()))
        else:
            d = g
        tau = float(np.clip(taus[pre], _STEP_MIN, _STEP_MAX))
        for _ in range(_BACKTRACK_LIMIT):
            U_new = _project_values(U - tau * d, grid, adm)
            step = U_new - U
            dd = float(np.sum(g * step))
            E_new, _, _, grad = energy_raw(grid, U_new, w, A)
            evals += 1
            # a clipped preconditioned step may point uphill (dd > 0);
            # it must still not raise the energy
            if np.isfinite(E_new) and E_new <= E + _ARMIJO_C * min(dd, 0.0):
                break
            tau *= _BACKTRACK
            backtracks += 1
        else:
            # safeguarded fallback: accept any plain decrease at the
            # smallest step, otherwise stop at the current iterate
            ls_failures += 1
            tau = _STEP_MIN
            U_new = _project_values(U - tau * d, grid, adm)
            E_new, _, _, grad = energy_raw(grid, U_new, w, A)
            evals += 1
            if not (np.isfinite(E_new) and E_new <= E):
                stall = "line search stalled at the minimum step"
                break

        g_new = grad()
        s = U_new - U
        y = g_new - g
        sy = float(np.sum(s * y))
        # BB1 length of each kind in its own metric: <s, s> for plain
        # steps, <s, vol K s> for preconditioned ones
        norms = [float(np.sum(s * s))]
        if precond is not None:
            norms.append(grid.cell_volume * _averaged_form(s, grid))
        for k, ss in enumerate(norms):
            if sy > 1e-300 and ss > 0:
                taus[k] = ss / sy
            elif k == pre:
                taus[k] = 2.0 * max(tau, prev_taus[k])
        prev_taus[pre] = tau

        U, E, g = U_new, E_new, g_new
        pg = _projected_gradient(U, g, grid, adm)
        pgn = float(np.abs(pg).max())
        iters += 1
        pre_steps += pre
        energies.append(E)
        pgs.append(pgn)
        converged = pgn <= tol
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
        iterations=iters,
        energy_history=np.asarray(energies),
        pg_history=np.asarray(pgs),
        active_count=int(_at_bound(U, grid, adm).any(axis=-1).sum()),
        wall_time=time.perf_counter() - t0,
        converged=bool(converged),
        tol_pg=float(tol),
        line_search_failures=ls_failures,
        stall_reason=stall,
        energy_evals=evals,
        backtracks=backtracks,
        preconditioned_steps=pre_steps,
    )
    return Field(grid, adm.ncomp, U), report


def kkt_residual(grid: Grid, U: Field, w: Weight, adm: AdmissibleSet,
                 A: CoefficientTensor | None = None) -> float:
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
    pg = _projected_gradient(vals, g, grid, adm)
    return float(np.abs(pg).max())
