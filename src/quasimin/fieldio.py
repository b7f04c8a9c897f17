"""Plain-text field dumps and machine-readable run summaries.

Field format: header lines (dims, spacing, components, origin), then one
node per line in row-major order: node indices, node class, and the N
values printed with 17 significant digits, which round-trips float64
bit-exactly.  The writer renders each row exactly as `format(x, ".17g")`
per value would.  The reader parses the body in one numpy call and is
strict: a malformed dump raises ValueError naming the header key, the
file line or the expected row width.  Summaries are flat `key = value` listings with a stable key
order; convergence histories are separate comma-separated files with one
line per recorded iterate.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grids import BOUNDARY, EXTERIOR, INTERIOR, Field, Grid


# rows rendered by one format operation in write_field
_CHUNK_ROWS = 4096
# dims, spacing, components, origin
_HEADER_LINES = 4
_CLASSES = (INTERIOR, BOUNDARY, EXTERIOR)


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
    n, width = grid.ndim, grid.ndim + 1 + field.ncomp
    # one row per node: the indices and the class as Python ints, then the
    # values as floats; "%.17g" renders like format(x, ".17g")
    line = " ".join(["%d"] * (n + 1) + ["%.17g"] * field.ncomp) + "\n"
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for start in range(0, grid.num_nodes, _CHUNK_ROWS):
            k = np.arange(start, min(start + _CHUNK_ROWS, grid.num_nodes))
            columns = [*np.unravel_index(k, grid.dims), cls[k], *flat[k].T]
            items = [None] * (len(k) * width)
            for c, col in enumerate(columns):
                items[c::width] = col.tolist()
            fh.write(line * len(k) % tuple(items))


def _header(fh, key: str) -> list[str]:
    line = fh.readline()
    name, colon, rest = line.partition(":")
    if name != key or not colon:
        raise ValueError(f"field dump header: expected '{key}:', got {line.strip()!r}")
    return rest.split()


def _unparsed_line(path, width: int) -> str:
    """Name the first body line, by its file line number, that is not `width` numbers."""
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if number <= _HEADER_LINES:
                continue
            tokens = line.split()
            if len(tokens) != width:
                return f"field dump line {number}: {len(tokens)} columns, expected {width}"
            for token in tokens:
                try:
                    float(token)
                except ValueError:
                    return f"field dump line {number}: {token!r} is not a number"
    return ""


def read_field(path) -> tuple[Field, Grid]:
    """Read a dump written by write_field; values round-trip bit-exactly.

    Raises ValueError on a malformed dump: a bad header, a row of the
    wrong width or with an unparsable token, too few or too many rows, or
    node indices and classes that are not the row-major scan of the
    header's grid.
    """
    with open(path) as fh:
        dims = tuple(int(t) for t in _header(fh, "dims"))
        if not all(d > 0 for d in dims):
            raise ValueError(f"field dump header: dims: must be positive, got {list(dims)}")
        spacing = tuple(float(t) for t in _header(fh, "spacing"))
        comps = " ".join(_header(fh, "components"))
        if not comps.isdecimal() or (ncomp := int(comps)) < 1:
            raise ValueError(f"field dump header: components: must be one positive "
                             f"integer, got {comps!r}")
        origin = tuple(float(t) for t in _header(fh, "origin"))
        n = len(dims)
        if len(spacing) != n or len(origin) != n:
            raise ValueError(f"field dump header: {n} dims but {len(spacing)} "
                             f"spacings and {len(origin)} origin coordinates")
        count = int(np.prod(dims))
        width = n + 1 + ncomp
        try:
            with warnings.catch_warnings():
                # loadtxt only warns on an empty body or a blank line
                warnings.simplefilter("error", UserWarning)
                body = np.loadtxt(fh, dtype=float, comments=None, ndmin=2,
                                  max_rows=count)
        except UserWarning:
            raise ValueError(f"field dump body has a blank line or no rows, "
                             f"expected {count} rows") from None
        except ValueError as exc:
            # loadtxt counts rows inconsistently and never counts the header,
            # so find the line again; only a token that float() reads and
            # loadtxt does not, such as 1_0, keeps loadtxt's message
            raise ValueError(_unparsed_line(path, width) or f"field dump body, expected "
                             f"{width} columns per row: {exc}") from None
        # loadtxt stops after count rows; each non-blank line after them is one more
        rows = len(body) + sum(1 for line in fh if line.strip())
    if rows != count:
        raise ValueError(f"field dump has {rows} rows, expected {count}")
    if body.shape[1] != width:
        raise ValueError(f"field dump rows have {body.shape[1]} columns, expected "
                         f"{width} ({n} indices, the class, {ncomp} values)")
    scan = np.indices(dims).reshape(n, count).T
    ok = (body[:, :n] == scan).all(axis=1) & np.isin(body[:, n], _CLASSES)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"field dump line {k + 1 + _HEADER_LINES}: indices and class "
                         f"{body[k, : n + 1].tolist()}, expected node {scan[k].tolist()} "
                         f"and a class in {_CLASSES}")
    grid = Grid(dims, spacing, origin, body[:, n].astype(np.int8).reshape(dims))
    values = np.ascontiguousarray(body[:, n + 1 :]).reshape(dims + (ncomp,))
    return Field(grid, values), grid


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
