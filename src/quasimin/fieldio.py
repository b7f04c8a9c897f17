"""Plain-text field dumps and machine-readable run summaries.

Field format: header lines (dims, spacing, components, origin), then one
node per line in row-major order: node indices, node class, and the N
values printed with 17 significant digits, which round-trips float64
bit-exactly.  Summaries are flat `key = value` listings with a stable key
order; convergence histories are separate comma-separated files with one
line per recorded iterate.
"""

from __future__ import annotations

import numpy as np

from .grids import Field, Grid


# rows rendered by one format operation in write_field
_CHUNK_ROWS = 4096


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_field(field: Field, path) -> None:
    grid = field.grid
    header = [
        "dims: " + " ".join(str(d) for d in grid.dims),
        "spacing: " + " ".join(_fmt(h) for h in grid.spacing),
        f"components: {field.ncomp}",
        "origin: " + " ".join(_fmt(o) for o in grid.origin),
    ]
    flat = field.flat()
    cls = grid.node_class.ravel()
    # one row per node: the indices and the class (exact integers in
    # float64), then the values; "%.17g" renders like format(x, ".17g")
    line = " ".join(["%d"] * (grid.ndim + 1) + ["%.17g"] * field.ncomp) + "\n"
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, grid.num_nodes, _CHUNK_ROWS):
            k = np.arange(start, min(start + _CHUNK_ROWS, grid.num_nodes))
            rows = np.column_stack([*np.unravel_index(k, grid.dims), cls[k], flat[k]])
            fh.write(line * len(k) % tuple(rows.ravel().tolist()))


def read_field(path) -> tuple[Field, Grid]:
    """Read a dump written by write_field; values round-trip bit-exactly."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    dims = tuple(int(t) for t in lines[0].split(":")[1].split())
    spacing = tuple(float(t) for t in lines[1].split(":")[1].split())
    ncomp = int(lines[2].split(":")[1])
    origin = tuple(float(t) for t in lines[3].split(":")[1].split())
    n = len(dims)
    count = int(np.prod(dims))
    body = lines[4 : 4 + count]
    if len(body) != count:
        raise ValueError(f"field dump has {len(body)} rows, expected {count}")
    cls = np.empty(count, dtype=np.int8)
    vals = np.empty((count, ncomp))
    for k, ln in enumerate(body):
        toks = ln.split()
        cls[k] = int(toks[n])
        vals[k] = [float(t) for t in toks[n + 1 : n + 1 + ncomp]]
    grid = Grid(dims, spacing, origin, cls.reshape(dims))
    return Field(grid, ncomp, vals.reshape(dims + (ncomp,))), grid


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    return str(value)


def write_summary(items, path) -> None:
    """Write an ordered mapping of summary entries as `key = value` lines."""
    lines = [f"{key} = {_render(val)}" for key, val in items.items()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_history(energy_history, pg_history, path) -> None:
    """CSV rows `iteration,energy,pg_norm`, one per recorded iterate."""
    lines = [
        f"{k},{_fmt(e)},{_fmt(p)}"
        for k, (e, p) in enumerate(zip(energy_history, pg_history))
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
