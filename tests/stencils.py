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
