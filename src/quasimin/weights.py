"""Exponential weights e^{f(U)} with the structural form f'(U) = -U g(U).

A weight is the triple (f, f', g).  Users supply f and g, never f' directly,
so the structural identity f'(U) = -U g(U) holds by construction.  An
additive shift on f is kept separate from the base function: downstream
energy code factors exp(shift) out of assembled sums, which makes weight
shifts act exactly multiplicatively.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _term_sum(terms) -> np.ndarray:
    """The sum of every column of the per-axis terms (..., N), one at a time in C order.

    Axis by axis, column by column: the order np.sum(np.stack(terms, -2),
    axis=(-2, -1)) takes, and so its bits, wherever there are at most 7
    columns in all (numpy sums 8 or more pairwise).  That reduction over
    two tiny trailing axes costs several times as much.
    """
    out = None
    for t in terms:
        for c in range(t.shape[-1]):
            if out is None:
                out = t[..., c].copy()
            else:
                out += t[..., c]
    return out


@dataclass(frozen=True)
class Weight:
    """Weight triple; f and g map point arrays (..., N) to (...) arrays."""

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    label: str = "custom"
    shift: float = 0.0

    def f_base(self, U: np.ndarray) -> np.ndarray:
        """f without the additive shift."""
        U = np.asarray(U, dtype=float)
        return np.asarray(self.f(U), dtype=float)

    def f_total(self, U: np.ndarray) -> np.ndarray:
        return self.f_base(U) + self.shift

    def g_value(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        return np.asarray(self.g(U), dtype=float)

    def fprime(self, U: np.ndarray) -> np.ndarray:
        """Gradient of f, always assembled as -U g(U)."""
        U = np.asarray(U, dtype=float)
        return -U * self.g_value(U)[..., None]

    def shifted(self, delta: float) -> "Weight":
        return dataclasses.replace(self, shift=self.shift + float(delta))


def gaussian(alpha: float) -> Weight:
    """f(U) = -alpha |U|^2, so g = 2 alpha and f'(U) = -2 alpha U."""
    alpha = float(alpha)
    if alpha <= 0:
        raise ValueError("gaussian weight requires alpha > 0")
    return Weight(
        f=lambda U: -alpha * _term_sum([U * U]),
        g=lambda U: np.full(U.shape[:-1], 2.0 * alpha),
        label=f"gaussian({alpha})",
    )


def sphere_chart(beta: float) -> Weight:
    """f(U) = -beta log((1+|U|^2)/2), so g(U) = 2 beta / (1+|U|^2).

    beta = 2 is the conformal factor of the round sphere metric in
    stereographic coordinates, e^f = ((1+|U|^2)/2)^(-2).
    """
    beta = float(beta)
    if beta <= 0:
        raise ValueError("sphere_chart weight requires beta > 0")
    return Weight(
        f=lambda U: -beta * np.log(0.5 * (1.0 + _term_sum([U * U]))),
        g=lambda U: 2.0 * beta / (1.0 + _term_sum([U * U])),
        label=f"sphere_chart({beta})",
    )


def constant(c: float = 0.0) -> Weight:
    """f identically c with g = 0; reduces the system to the Laplacian.

    Violates the positivity hypothesis on g (validate_weight reports it),
    but is indispensable as a linear test oracle.
    """
    return Weight(
        f=lambda U: np.zeros(U.shape[:-1]),
        g=lambda U: np.zeros(U.shape[:-1]),
        label=f"constant({c})",
        shift=float(c),
    )


@dataclass(frozen=True)
class WeightReport:
    min_g: float
    ok: bool
    argmin: tuple[float, ...]


def validate_weight(w: Weight, box_bound, samples: int) -> WeightReport:
    """Scan g over a uniform lattice in [-C, C]^N and report its minimum.

    This is a report, not a rejection: min_g <= 0 only flags ok=False.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    C = np.atleast_1d(np.asarray(box_bound, dtype=float))
    axes = [np.linspace(-c, c, samples) if samples > 1 else np.array([0.0]) for c in C]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, C.size)
    g_vals = w.g_value(pts)
    k = int(np.argmin(g_vals))
    min_g = float(g_vals[k])
    return WeightReport(min_g=min_g, ok=min_g > 0.0, argmin=tuple(pts[k]))
