"""Problem-spec files: `key = value` lines under [section] headers.

A spec fully describes one batch run: the mode, domain, weight, boundary
expression, solver options, and output names.  Parsing either returns a
validated ProblemSpec or raises SpecError carrying line-numbered
diagnostics.

The key table `_KEYS` gives every valid key its diagnostic label, its
converter and the ProblemSpec field it fills.  `_scan` converts every key
in one loop, so a bad value, an unknown key (named with its nearest valid
alternative), a non-finite number or a repeated key is reported on its
own line.  The domain, weight and solver options are then built from the
converted values.  `_REQUIRED` lists the keys a mode needs and `_READERS`
the modes that read each section.  `_KINDS` gives each domain and weight
kind the keys it needs, the keys it may also read and its constructor,
and `_FILES` the files each mode writes.  Anything else is refused on
its line, in line order.
"""

from __future__ import annotations

import difflib
import os
from collections import defaultdict
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .energy import CoefficientTensor
from .exprlang import VectorExpr, parse_expr, parse_vector_expr
from .grids import DomainSpec
from .optim import SolveOptions
from .weights import Weight, constant, gaussian, sphere_chart

MODES = ("solve", "oracle", "sphere", "halfspace", "gradcheck")
TIMING_FILE = "timing.txt"  # written by every run, next to the files of `_FILES`


@dataclass
class Diagnostic:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class SpecError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = sorted(diagnostics, key=lambda d: d.line)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ProblemSpec:
    mode: str
    domain: DomainSpec | None = None
    resolution: tuple[int, ...] | None = None
    weight: Weight | None = None
    boundary: VectorExpr | None = None
    tensor: CoefficientTensor | None = None
    solver: SolveOptions = dataclass_field(default_factory=SolveOptions)
    box_bound: np.ndarray | None = None
    radii: tuple[float, ...] | None = None
    spacing: float | None = None
    window: tuple[tuple[float, float], ...] | None = None
    halfspace_fn: VectorExpr | None = None
    source: VectorExpr | None = None
    source_damping: float = 1.0
    gradcheck_components: int = 2
    gradcheck_step: float = 1e-5
    # file name by [output] key, sphere's pairs keyed `field_a` ... `history_b`
    outputs: dict = dataclass_field(default_factory=dict)


def _checked(convert, ok, message):
    """convert, then refuse a result for which ok() is false."""

    def check(value):
        out = convert(value)
        if not ok(out):
            raise ValueError(message)
        return out

    return check


_finite = _checked(float, np.isfinite, "expected a finite number")
# a name with a directory part, `.` or `..` would write outside --out-dir, or not at all
_file_name = _checked(_checked(str, bool, "expected a file name"),
                      lambda name: os.path.basename(name) == name and name not in (".", ".."),
                      "expected a plain file name, with no directory part")


def _floats(value: str) -> list[float]:
    return [_finite(tok) for tok in value.replace(",", " ").split()]


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in value.split())


def _intervals(value: str) -> tuple[tuple[float, float], ...]:
    out = []
    for part in value.split(";"):
        nums = _floats(part)
        if len(nums) != 2:
            raise ValueError(f"expected `lo hi`, got {part.strip()!r}")
        out.append((nums[0], nums[1]))
    return tuple(out)


def _choice(*options):
    return _checked(str.lower, options.__contains__, f"expected one of {', '.join(options)}")


def _solver_option(name, convert):
    """Convert one [solver] key and let SolveOptions check its range."""
    return lambda value: getattr(SolveOptions(**{name: convert(value)}), name)


def _diagonal_tensor(value):
    exprs = [parse_expr(part.strip()) for part in value.split(";")]
    return CoefficientTensor.diagonal(exprs)


# section -> kind -> (the keys the kind needs, the keys it may also read,
# its constructor from the section's converted keys).  Every kind reads
# `kind`.  parse_problem builds the object only once the keys the mode
# requires of the section are given too: half_ball reads its rank from
# the resolution.
_KINDS = {
    "domain": {
        "box": (("extents",), ("resolution",), lambda k: DomainSpec.box(k["extents"])),
        "masked_box": (("extents", "mask"), ("resolution",),
                       lambda k: DomainSpec.masked_box(k["extents"], k["mask"])),
        "half_ball": (("radius",), ("resolution",),
                      lambda k: DomainSpec.half_ball(k["radius"], len(k["resolution"]))),
    },
    "weight": {
        "gaussian": (("alpha",), ("shift",),
                     lambda k: gaussian(k["alpha"]).shifted(k.get("shift", 0.0))),
        "sphere_chart": (("beta",), ("shift",),
                         lambda k: sphere_chart(k["beta"]).shifted(k.get("shift", 0.0))),
        "constant": ((), ("value", "shift"),
                     lambda k: constant(k.get("value", 0.0)).shifted(k.get("shift", 0.0))),
    },
}

# (section, key) -> (diagnostic label, converter, ProblemSpec field or None)
_KEYS = {
    ("", "mode"): ("mode", str.lower, None),
    ("domain", "kind"): ("domain kind", _choice(*_KINDS["domain"]), None),
    ("domain", "extents"): ("extents", _intervals, None),
    ("domain", "resolution"): ("resolution", _ints, "resolution"),
    ("domain", "radius"): ("radius", _finite, None),
    ("domain", "mask"): ("mask expression", parse_expr, None),
    ("weight", "kind"): ("weight kind", _choice(*_KINDS["weight"]), None),
    ("weight", "alpha"): ("weight alpha", _finite, None),
    ("weight", "beta"): ("weight beta", _finite, None),
    ("weight", "value"): ("weight value", _finite, None),
    ("weight", "shift"): ("weight shift", _finite, None),
    ("boundary", "values"): ("boundary expression", parse_vector_expr, "boundary"),
    ("tensor", "diagonal"): ("tensor diagonal", _diagonal_tensor, "tensor"),
    ("solver", "tol_pg"): ("tol_pg", _solver_option("tol_pg", _finite), None),
    ("solver", "max_iters"): ("max_iters", _solver_option("max_iters", int), None),
    ("solver", "box_bound"): ("box_bound", lambda v: np.array(_floats(v)), "box_bound"),
    ("halfspace", "radii"): ("radii", lambda v: tuple(_floats(v)), "radii"),
    ("halfspace", "spacing"): ("spacing", _checked(
        _finite, lambda h: h > 0, "spacing must be positive"), "spacing"),
    ("halfspace", "window"): ("window", _intervals, "window"),
    ("halfspace", "function"): ("halfspace function", parse_vector_expr, "halfspace_fn"),
    ("source", "values"): ("source expression", _checked(
        parse_vector_expr, lambda v: v.ncomp == 1, "source must be scalar"), "source"),
    ("source", "damping"): ("damping", _checked(
        _finite, lambda d: 0.0 < d <= 1.0, "damping must lie in (0, 1]"), "source_damping"),
    ("gradcheck", "components"): ("component count", _checked(
        int, lambda c: c >= 1, "gradcheck components must be >= 1"), "gradcheck_components"),
    ("gradcheck", "step"): ("gradcheck step", _checked(
        _finite, lambda s: s > 0, "gradcheck step must be positive"), "gradcheck_step"),
    ("output", "field"): ("output name", _file_name, None),
    ("output", "summary"): ("output name", _file_name, None),
    ("output", "history"): ("output name", _file_name, None),
}
_SECTIONS = {section for section, _ in _KEYS}
_OUTPUTS = {"field": "solution.field", "summary": "summary.txt", "history": "history.csv"}

# [output] key -> the suffixes of the files it names, for each mode.  Sphere
# mode writes a field and a history per solution, with `_a` and `_b` put
# before the extension.
_ONE, _PAIR = ("",), ("_a", "_b")
_FILES = {
    "solve": {"field": _ONE, "history": _ONE, "summary": _ONE},
    "oracle": {"field": _ONE, "summary": _ONE},
    "sphere": {"field": _PAIR, "history": _PAIR, "summary": _ONE},
    "halfspace": {"field": _ONE, "history": _ONE, "summary": _ONE},
    "gradcheck": {"summary": _ONE},
}

# Keys a mode cannot run without.
_REQUIRED = {
    "solve": (("domain", "resolution"), ("weight", "kind"), ("boundary", "values")),
    "oracle": (("domain", "resolution"), ("weight", "kind"), ("boundary", "values")),
    "sphere": (("domain", "resolution"), ("boundary", "values")),
    "halfspace": (("weight", "kind"), ("halfspace", "radii"), ("halfspace", "spacing"),
                  ("halfspace", "window"), ("halfspace", "function")),
    "gradcheck": (("domain", "resolution"), ("weight", "kind")),
}

# section -> (the modes that read it, the message every other mode refuses
# it with, on its header line).  Every mode reads the mode line and [output].
_READERS = {
    "domain": (("solve", "oracle", "sphere", "gradcheck"),
               "halfspace mode builds its own half-ball domains; drop [domain]"),
    "weight": (("solve", "oracle", "halfspace", "gradcheck"),
               "sphere mode fixes the chart weight; drop [weight]"),
    "boundary": (("solve", "oracle", "sphere"),
                 "halfspace and gradcheck modes read no boundary expression; drop [boundary]"),
    "tensor": (("solve",), "a coefficient tensor applies to solve mode only"),
    "source": (("oracle",), "a source term applies to oracle mode only"),
    "solver": (("solve", "sphere", "halfspace"),
               "oracle and gradcheck modes run no descent; drop [solver]"),
    "halfspace": (("halfspace",), "[halfspace] applies to halfspace mode only"),
    "gradcheck": (("gradcheck",), "[gradcheck] applies to gradcheck mode only"),
}

def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, sorted(valid), n=1)
    return f"; nearest valid key is {close[0]!r}" if close else ""


def _scan(text: str):
    """Convert every key of a spec in one pass.

    Returns (values, lines, diagnostics): values[section][key] is the
    converted value, lines[(section, key)] the line the key was set on, and
    lines[(section, None)] the line of the section's first header.
    """
    values, lines, diags = defaultdict(dict), {}, []
    section = ""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(no, "unterminated section header"))
                continue
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
                suggestion = _suggest(section, _SECTIONS - {""})
                diags.append(Diagnostic(no, f"unknown section [{section}]{suggestion}"))
                section = None
            else:
                lines.setdefault((section, None), no)
            continue
        if "=" not in line:
            diags.append(Diagnostic(no, f"expected `key = value`, got {line!r}"))
            continue
        if section is None:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        scope = f"[{section}] " if section else ""
        if (section, key) not in _KEYS:
            suggestion = _suggest(key, {k for s, k in _KEYS if s == section})
            diags.append(Diagnostic(no, f"unknown key {scope}{key!r}{suggestion}"))
        elif (section, key) in lines:
            first = lines[(section, key)]
            message = f"duplicate key {scope}{key!r}; first set on line {first}"
            diags.append(Diagnostic(no, message))
        else:
            lines[(section, key)] = no
            label, convert, _ = _KEYS[(section, key)]
            try:
                values[section][key] = convert(value)
            except ValueError as exc:
                diags.append(Diagnostic(no, f"bad {label} {value!r}: {exc}"))
    return values, lines, diags


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem spec; raises SpecError on any defect."""
    values, lines, diags = _scan(text)

    def fail(no, msg):
        diags.append(Diagnostic(no, msg))

    mode = values[""].get("mode")
    if mode is None:
        fail(1, "missing required key `mode`")
    elif mode not in MODES:
        fail(lines[("", "mode")], f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
    if mode not in MODES:
        raise SpecError(diags)

    def line_of(section, key=None):
        """The key's line, else its section header's, else the mode line."""
        return lines.get((section, key)) or lines.get((section, None)) or lines[("", "mode")]

    for section, (modes, message) in _READERS.items():
        if mode not in modes and (section, None) in lines:
            fail(lines[(section, None)], message)
    if mode == "sphere" and ("solver", "box_bound") in lines:
        fail(lines[("solver", "box_bound")],
             "sphere mode sizes each chart's box from its data; drop box_bound")
    for section, key in _REQUIRED[mode]:
        if (section, key) not in lines:
            fail(line_of(section), f"missing [{section}] {key}")

    spec = ProblemSpec(mode=mode, **{
        name: values[s][k] for (s, k), (_, _, name) in _KEYS.items() if name and k in values[s]
    })
    needs = {section for section, _ in _REQUIRED[mode]}
    # a section holding a bad value was reported on that value's line already
    broken = {s for s, k in lines if k is not None and k not in values[s]}
    for section, kinds in _KINDS.items():
        keys = values[section]
        kind = keys.get("kind")
        # a kind the mode does not require defaults to the first, the
        # domain's box; a bad kind was reported on its line
        if (section, "kind") not in lines and (section, "kind") not in _REQUIRED[mode]:
            kind = next(iter(kinds))
        if section not in needs or kind not in kinds:
            continue
        need, may, build = kinds[kind]
        for key in keys:
            if key not in ("kind",) + need + may:
                fail(lines[(section, key)], f"a {kind} {section} does not read {key}; drop it")
        if section in broken:
            continue
        missing = [k for k in need if k not in keys]
        if missing:
            fail(line_of(section, "kind"), f"{kind} {section} needs {' and '.join(missing)}")
        elif all(k in keys for s, k in _REQUIRED[mode] if s == section):
            try:
                setattr(spec, section, build(keys))
            except ValueError as exc:
                fail(line_of(section, "kind"), str(exc))
    if spec.domain is not None and len(spec.resolution) != spec.domain.ndim:
        fail(lines[("domain", "resolution")], "resolution rank does not match domain dimension")

    ncomp = spec.boundary.ncomp if spec.boundary is not None else None
    boundary_line = lines.get(("boundary", "values"))
    if mode == "oracle" and ncomp not in (None, 1):
        fail(boundary_line, "oracle mode is scalar; boundary must have one component")
    if mode == "sphere" and ncomp == 1:
        fail(boundary_line, "sphere boundary needs at least two components")

    spec.solver = SolveOptions(**{k: v for k, v in values["solver"].items() if k != "box_bound"})
    files = _FILES[mode]
    for key in values["output"]:
        if key not in files:
            fail(lines[("output", key)], f"{mode} mode writes no {key}; drop it")
    # default names first, then given ones in line order: a clash fails on the later line
    owners = {TIMING_FILE: "timing"}
    for key in sorted(files, key=lambda k: lines.get(("output", k), 0)):
        base, ext = os.path.splitext(values["output"].get(key, _OUTPUTS[key]))
        for suffix in files[key]:
            name = base + suffix + ext
            if name in owners:
                fail(lines[("output", key)], f"{key} file {name!r} is also the {owners[name]} file")
                break
            owners[name] = key
            spec.outputs[key + suffix] = name
    if diags:
        raise SpecError(diags)
    return spec
