"""Zero-padded reference stencils, written independently of the solver's slices."""

import numpy as np


def neighbor(v: np.ndarray, ax: int, step: int) -> np.ndarray:
    """v at the node step (+1 or -1) away along axis ax; zero past the lattice."""
    pad = [(0, 0)] * v.ndim
    pad[ax] = (0, 1) if step > 0 else (1, 0)
    take = [slice(None)] * v.ndim
    take[ax] = slice(1, None) if step > 0 else slice(None, -1)
    return np.pad(v, pad)[tuple(take)]


def minus_laplacian(v: np.ndarray, spacing) -> np.ndarray:
    """The 5-point -Delta_h v over the leading axes, zero-padded past the lattice."""
    lap = np.zeros_like(v)
    for ax, h in enumerate(spacing):
        lap += (2.0 * v - neighbor(v, ax, +1) - neighbor(v, ax, -1)) / h**2
    return lap


def _pair(ax: int, h: float, diff_axis) -> tuple[float, float]:
    return (-1.0 / h, 1.0 / h) if ax == diff_axis else (0.5, 0.5)


def cell_op(v: np.ndarray, spacing, diff_axis=None) -> np.ndarray:
    """Nodes -> cells over the leading axes: the cell average, or D_i for diff_axis i.

    Each axis takes lo * v + hi * (v's successor), (1/2, 1/2) or
    (-1/h, 1/h) along diff_axis, and drops the last node.
    """
    for ax, h in enumerate(spacing):
        lo, hi = _pair(ax, h, diff_axis)
        v = np.take(lo * v + hi * neighbor(v, ax, +1), range(v.shape[ax] - 1), axis=ax)
    return v


def cell_op_transpose(y: np.ndarray, spacing, diff_axis=None) -> np.ndarray:
    """Cells -> nodes: the transpose of cell_op, last axis first, zero-padded."""
    for ax in reversed(range(len(spacing))):
        lo, hi = _pair(ax, spacing[ax], diff_axis)
        pad = [(0, 0)] * y.ndim
        pad[ax] = (0, 1)
        y = np.pad(y, pad)
        y = lo * y + hi * neighbor(y, ax, -1)
    return y
