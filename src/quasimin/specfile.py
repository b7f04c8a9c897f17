"""Problem-spec files: `key = value` lines under [section] headers.

A spec fully describes one batch run: the mode, domain, weight, boundary
expression, solver options, and output names.  Parsing either returns a
validated ProblemSpec or raises SpecError carrying line-numbered
diagnostics (unknown keys name their nearest valid alternative).
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .energy import CoefficientTensor
from .exprlang import ExprError, VectorExpr, parse_expr, parse_vector_expr
from .grids import DomainSpec
from .optim import SolveOptions
from .weights import Weight, WeightSpec, make_weight

MODES = ("solve", "oracle", "sphere", "halfspace", "gradcheck")

_SECTION_KEYS = {
    "": {"mode"},
    "domain": {"kind", "extents", "resolution", "radius", "mask"},
    "weight": {"kind", "alpha", "beta", "value", "shift"},
    "boundary": {"values"},
    "tensor": {"diagonal"},
    "solver": {"tol_pg", "max_iters", "init", "box_bound"},
    "sphere": {"candidates"},
    "halfspace": {"radii", "spacing", "window", "function"},
    "source": {"values", "damping"},
    "gradcheck": {"components", "step"},
    "output": {"field", "summary", "history"},
}


@dataclass
class Diagnostic:
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class SpecError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


@dataclass
class ProblemSpec:
    mode: str
    domain: DomainSpec | None = None
    resolution: tuple[int, ...] | None = None
    weight_spec: WeightSpec | None = None
    weight: Weight | None = None
    boundary: VectorExpr | None = None
    tensor: CoefficientTensor | None = None
    solver: SolveOptions = dataclass_field(default_factory=SolveOptions)
    box_bound: np.ndarray | None = None
    sphere_candidates: int = 256
    radii: tuple[float, ...] | None = None
    spacing: float | None = None
    window: tuple[tuple[float, float], ...] | None = None
    halfspace_fn: VectorExpr | None = None
    source: VectorExpr | None = None
    source_damping: float = 1.0
    gradcheck_components: int = 2
    gradcheck_step: float = 1e-5
    outputs: dict = dataclass_field(default_factory=dict)


def _suggest(key: str, valid) -> str:
    close = difflib.get_close_matches(key, sorted(valid), n=1)
    return f"; nearest valid key is {close[0]!r}" if close else ""


def _scan(text: str):
    """Yield (line_no, section, key, value) entries plus collected errors."""
    entries = []
    errors = []
    section = ""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                errors.append(Diagnostic(no, "unterminated section header"))
                continue
            section = line[1:-1].strip().lower()
            if section not in _SECTION_KEYS:
                errors.append(
                    Diagnostic(
                        no,
                        f"unknown section [{section}]"
                        + _suggest(section, set(_SECTION_KEYS) - {""}),
                    )
                )
                section = None
            continue
        if "=" not in line:
            errors.append(Diagnostic(no, f"expected `key = value`, got {line!r}"))
            continue
        if section is None:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        valid = _SECTION_KEYS[section]
        if key not in valid:
            scope = f"[{section}] " if section else ""
            errors.append(
                Diagnostic(no, f"unknown key {scope}{key!r}" + _suggest(key, valid))
            )
            continue
        entries.append((no, section, key, value))
    return entries, errors


class _Fields:
    def __init__(self, entries):
        self.data = {}
        for no, section, key, value in entries:
            self.data[(section, key)] = (no, value)

    def get(self, section, key, default=None):
        return self.data.get((section, key), (None, default))

    def has(self, section, key):
        return (section, key) in self.data

    def has_section(self, section):
        return any(s == section for s, _ in self.data)


def _parse_floats(value: str) -> list[float]:
    return [float(tok) for tok in value.replace(",", " ").split()]


def _parse_intervals(value: str) -> list[tuple[float, float]]:
    out = []
    for part in value.split(";"):
        nums = _parse_floats(part)
        if len(nums) != 2:
            raise ValueError(f"expected `lo hi`, got {part.strip()!r}")
        out.append((nums[0], nums[1]))
    return out


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem spec; raises SpecError on any defect."""
    entries, errors = _scan(text)
    fields = _Fields(entries)
    diags = list(errors)

    def fail(no, msg):
        diags.append(Diagnostic(no if no else 0, msg))

    no_mode, mode = fields.get("", "mode")
    if mode is None:
        fail(1, "missing required key `mode`")
        raise SpecError(diags)
    mode = mode.lower()
    if mode not in MODES:
        fail(no_mode, f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
        raise SpecError(diags)

    spec = ProblemSpec(mode=mode)

    # [domain]
    needs_domain = mode in ("solve", "oracle", "sphere", "gradcheck")
    if mode == "halfspace" and fields.has_section("domain"):
        no, _ = fields.get("domain", "kind")
        fail(no, "halfspace mode builds its own half-ball domains; drop [domain]")
    if needs_domain:
        no_kind, kind = fields.get("domain", "kind", "box")
        kind = kind.lower()
        no_ext, ext_s = fields.get("domain", "extents")
        no_res, res_s = fields.get("domain", "resolution")
        if res_s is None:
            fail(no_kind or 1, "missing [domain] resolution")
        else:
            try:
                spec.resolution = tuple(int(t) for t in res_s.split())
            except ValueError:
                fail(no_res, f"bad resolution {res_s!r}")
        extents = None
        if ext_s is not None:
            try:
                extents = _parse_intervals(ext_s)
            except ValueError as exc:
                fail(no_ext, str(exc))
        try:
            if kind == "box":
                if extents is None:
                    fail(no_kind or 1, "box domain needs extents")
                else:
                    spec.domain = DomainSpec.box(extents)
            elif kind == "masked_box":
                no_mask, mask_s = fields.get("domain", "mask")
                if extents is None or mask_s is None:
                    fail(no_kind or 1, "masked_box domain needs extents and mask")
                else:
                    try:
                        mask_expr = parse_expr(mask_s)
                        spec.domain = DomainSpec.masked_box(extents, mask_expr)
                    except ExprError as exc:
                        fail(no_mask, f"mask expression: {exc}")
            elif kind == "half_ball":
                no_rad, rad_s = fields.get("domain", "radius")
                ndim = len(spec.resolution) if spec.resolution else 0
                if rad_s is None or not ndim:
                    fail(no_kind or 1, "half_ball domain needs radius and resolution")
                else:
                    spec.domain = DomainSpec.half_ball(float(rad_s), ndim)
            else:
                fail(no_kind, f"unknown domain kind {kind!r}")
        except ValueError as exc:
            fail(no_kind or 1, str(exc))
        if (
            spec.domain is not None
            and spec.resolution is not None
            and len(spec.resolution) != spec.domain.ndim
        ):
            fail(no_res, "resolution rank does not match domain dimension")

    # [weight]
    needs_weight = mode in ("solve", "oracle", "halfspace", "gradcheck")
    if mode == "sphere" and fields.has_section("weight"):
        no, _ = fields.get("weight", "kind")
        fail(no, "sphere mode fixes the chart weight; drop [weight]")
    if needs_weight:
        no_wk, wkind = fields.get("weight", "kind")
        if wkind is None:
            fail(1, "missing [weight] kind")
        else:
            wkind = wkind.lower()
            try:
                kwargs = {}
                if fields.has("weight", "alpha"):
                    kwargs["alpha"] = float(fields.get("weight", "alpha")[1])
                if fields.has("weight", "beta"):
                    kwargs["beta"] = float(fields.get("weight", "beta")[1])
                if fields.has("weight", "value"):
                    kwargs["value"] = float(fields.get("weight", "value")[1])
                spec.weight_spec = WeightSpec(kind=wkind, **kwargs)
                spec.weight = make_weight(spec.weight_spec)
                if fields.has("weight", "shift"):
                    spec.weight = spec.weight.shifted(
                        float(fields.get("weight", "shift")[1])
                    )
            except ValueError as exc:
                fail(no_wk, f"weight: {exc}")

    # [boundary]
    needs_boundary = mode in ("solve", "oracle", "sphere")
    if needs_boundary:
        no_b, btext = fields.get("boundary", "values")
        if btext is None:
            fail(1, "missing [boundary] values")
        else:
            try:
                spec.boundary = parse_vector_expr(btext)
            except ExprError as exc:
                fail(no_b, f"boundary expression: {exc}")
        if mode == "oracle" and spec.boundary is not None and spec.boundary.ncomp != 1:
            fail(no_b, "oracle mode is scalar; boundary must have one component")
        if mode == "sphere" and spec.boundary is not None and spec.boundary.ncomp < 2:
            fail(no_b, "sphere boundary needs at least two components")

    # [tensor]
    if fields.has("tensor", "diagonal"):
        no_t, diag_s = fields.get("tensor", "diagonal")
        if mode != "solve":
            fail(no_t, "a coefficient tensor applies to solve mode only")
        else:
            try:
                exprs = [parse_expr(p.strip()) for p in diag_s.split(";")]
                spec.tensor = CoefficientTensor.diagonal(exprs, label="diagonal")
            except ExprError as exc:
                fail(no_t, f"tensor diagonal: {exc}")

    # [solver]: each key is checked alone, so a diagnostic names its own line
    kw = {}
    for key, conv in (("tol_pg", float), ("max_iters", int), ("init", str.lower)):
        if not fields.has("solver", key):
            continue
        no_k, raw = fields.get("solver", key)
        try:
            val = conv(raw)
            if key == "init" and val not in ("harmonic_extension", "boundary_constant"):
                raise ValueError(f"unknown init {val!r}")
            SolveOptions(**{key: val})
        except ValueError as exc:
            fail(no_k, f"solver options: {exc}")
        else:
            kw[key] = val
    spec.solver = SolveOptions(**kw)
    if fields.has("solver", "box_bound"):
        no_bb, bb_s = fields.get("solver", "box_bound")
        try:
            spec.box_bound = np.asarray(_parse_floats(bb_s), dtype=float)
        except ValueError:
            fail(no_bb, f"bad box_bound {bb_s!r}")

    # [sphere]
    if fields.has("sphere", "candidates"):
        no_c, cand = fields.get("sphere", "candidates")
        try:
            spec.sphere_candidates = int(cand)
        except ValueError:
            fail(no_c, f"bad candidate count {cand!r}")

    # [halfspace]
    if mode == "halfspace":
        for key in ("radii", "spacing", "window", "function"):
            if not fields.has("halfspace", key):
                fail(1, f"missing [halfspace] {key}")
        if fields.has("halfspace", "radii"):
            no_r, rad_s = fields.get("halfspace", "radii")
            try:
                spec.radii = tuple(_parse_floats(rad_s))
            except ValueError:
                fail(no_r, f"bad radii {rad_s!r}")
        if fields.has("halfspace", "spacing"):
            no_s, sp_s = fields.get("halfspace", "spacing")
            try:
                spec.spacing = float(sp_s)
            except ValueError:
                fail(no_s, f"bad spacing {sp_s!r}")
        if fields.has("halfspace", "window"):
            no_w, win_s = fields.get("halfspace", "window")
            try:
                spec.window = tuple(_parse_intervals(win_s))
            except ValueError as exc:
                fail(no_w, f"window: {exc}")
        if fields.has("halfspace", "function"):
            no_f, fn_s = fields.get("halfspace", "function")
            try:
                spec.halfspace_fn = parse_vector_expr(fn_s)
            except ExprError as exc:
                fail(no_f, f"halfspace function: {exc}")

    # [source]
    if fields.has("source", "values"):
        no_src, src_s = fields.get("source", "values")
        if mode != "oracle":
            fail(no_src, "a source term applies to oracle mode only")
        else:
            try:
                spec.source = parse_vector_expr(src_s)
                if spec.source.ncomp != 1:
                    fail(no_src, "source must be scalar")
            except ExprError as exc:
                fail(no_src, f"source expression: {exc}")
    if fields.has("source", "damping"):
        no_d, damp_s = fields.get("source", "damping")
        try:
            spec.source_damping = float(damp_s)
        except ValueError:
            fail(no_d, f"bad damping {damp_s!r}")

    # [gradcheck]
    if fields.has("gradcheck", "components"):
        no_gc, comp_s = fields.get("gradcheck", "components")
        try:
            spec.gradcheck_components = int(comp_s)
        except ValueError:
            fail(no_gc, f"bad component count {comp_s!r}")
        else:
            if spec.gradcheck_components < 1:
                fail(no_gc, "gradcheck components must be >= 1")
    if fields.has("gradcheck", "step"):
        no_gs, step_s = fields.get("gradcheck", "step")
        try:
            spec.gradcheck_step = float(step_s)
        except ValueError:
            fail(no_gs, f"bad gradcheck step {step_s!r}")

    # [output]
    spec.outputs = {
        "field": fields.get("output", "field", "solution.field")[1],
        "summary": fields.get("output", "summary", "summary.txt")[1],
        "history": fields.get("output", "history", "history.csv")[1],
    }

    if diags:
        raise SpecError(diags)
    return spec
