"""Spans around the program's layers, installed by rebinding attributes.

Nothing inside ``src/`` records spans.  ``Patch`` replaces a module-level
function -- or a method, for ``Class.method`` targets -- with a wrapper, in
its home module and under every alias another ``quasimin`` module bound
with ``from ... import``, and puts the originals back on ``restore``.  A
target whose home attribute no longer exists is listed in ``missing`` and
the metrics derived from it are reported as missing, never as 0.

``Tracer`` keeps every span in memory: name, start, end, the index of the
span that caused it (its parent on the call stack) and a small info dict.
A layer's self time is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time

# (span name, home module, attribute); a span name may have several targets
TARGETS = [
    ("grids.build_grid", "quasimin.grids", "build_grid"),
    ("grids.sample_boundary", "quasimin.grids", "sample_boundary"),
    ("weights.eval", "quasimin.weights", "Weight.f_base"),
    ("weights.eval", "quasimin.weights", "Weight.g_value"),
    ("energy.cell_kernel", "quasimin.energy", "_cell_kernel"),
    ("energy.energy_raw", "quasimin.optim", "energy_raw"),
    ("energy.grad_raw", "quasimin.optim", "grad_raw"),
    ("energy.tensor_eval", "quasimin.energy", "CoefficientTensor.eval"),
    ("energy.el_residual", "quasimin.energy", "el_residual"),
    ("optim.minimize", "quasimin.optim", "minimize"),
    ("optim.project", "quasimin.optim", "_project_values"),
    ("oracle.poisson", "quasimin.optim", "poisson_dirichlet"),
    ("oracle.neighbor_sum", "quasimin.oracle", "_neighbor_sum"),
    ("oracle.table_build", "quasimin.oracle", "TransformTable.__init__"),
    ("oracle.forward", "quasimin.oracle", "TransformTable.forward"),
    ("oracle.inverse", "quasimin.oracle", "TransformTable.inverse"),
    ("oracle.picard", "quasimin.oracle", "solve_scalar_source"),
    ("sphere.choose_poles", "quasimin.sphere", "choose_poles"),
    ("sphere.stereo_project", "quasimin.sphere", "stereo_project"),
    ("sphere.stereo_inverse", "quasimin.sphere", "stereo_inverse"),
    ("sphere.harmonic_residual", "quasimin.sphere", "harmonic_residual"),
    ("sphere.solve_chart", "quasimin.sphere", "solve_chart"),
    ("halfspace.solve_exhaustion", "quasimin.halfspace", "solve_exhaustion"),
    ("specfile.parse_problem", "quasimin.specfile", "parse_problem"),
    ("exprlang.eval", "quasimin.exprlang", "Expr.__call__"),
    ("fieldio.write_field", "quasimin.fieldio", "write_field"),
    ("fieldio.read_field", "quasimin.fieldio", "read_field"),
    ("fieldio.write_history", "quasimin.fieldio", "write_history"),
    ("cli.main", "quasimin.cli", "main"),
]


def _cells(args, kwargs, result):
    # computed from the grid dims, not measured: one cell per (d - 1)^n block
    return {"cells": math.prod(d - 1 for d in args[0].dims)}


def _solve_report(args, kwargs, result):
    report = result[1]
    return {"iters": report.iterations, "ls_failures": report.line_search_failures}


def _picard_steps(args, kwargs, result):
    return {"picard": result[1]}


def _dump_bytes(args, kwargs, result):
    # computed from the file size, not measured disk traffic
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


INFO = {
    "energy.cell_kernel": _cells,
    "optim.minimize": _solve_report,
    "oracle.picard": _picard_steps,
    "fieldio.write_field": _dump_bytes,
}


class Patch:
    """Rebinds targets to wrappers made by ``make(span, original)``."""

    def __init__(self, targets, make):
        self.saved = []  # (owner, attribute, original) in install order
        self.missing = []
        for span, modname, attr in targets:
            try:
                home = importlib.import_module(modname)
            except ImportError:
                self.missing.append(span)
                continue
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name, None)
                orig = vars(owner).get(meth) if isinstance(owner, type) else None
                if orig is None:
                    self.missing.append(span)
                    continue
                self._bind(owner, meth, orig, make(span, orig))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            wrapper = make(span, orig)
            for mod in [m for n, m in list(sys.modules.items())
                        if n == "quasimin" or n.startswith("quasimin.")]:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, name, orig, wrapper)

    def _bind(self, owner, name, orig, wrapper):
        self.saved.append((owner, name, orig))
        setattr(owner, name, wrapper)

    def restore(self):
        for owner, name, orig in reversed(self.saved):
            setattr(owner, name, orig)
        self.saved = []


class Recorder:
    """Keeps the bound arguments and result of every minimize call."""

    def __init__(self):
        self.calls = []
        self.patch = Patch([("optim.minimize", "quasimin.optim", "minimize")], self._wrap)

    def _wrap(self, span, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((sig.bind(*args, **kwargs).arguments, result))
            return result

        return recorded

    def take(self):
        calls, self.calls = self.calls, []
        return calls

    def restore(self):
        self.patch.restore()


class Tracer:
    """In-memory spans; ``install`` wraps every target, ``restore`` undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, info]
        self.stack = []
        self.patch = None

    def install(self):
        self.patch = Patch(TARGETS, self._wrap)
        return self.patch.missing

    def restore(self):
        self.patch.restore()

    def _wrap(self, span, fn):
        info_fn = INFO.get(span)
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info_fn is not None:
                rec[4] = info_fn(args, kwargs, result)
            return result

        return traced

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans


class Layers:
    """Aggregates of one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = {}
        self.total = {}
        self.self_s = {}
        for k, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child[k]
            if not self._inside_same(k):
                self.total[name] = self.total.get(name, 0.0) + dur

    def _inside_same(self, k):
        name, parent = self.spans[k][0], self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def n(self, name):
        return self.calls.get(name, 0)

    def s(self, name):
        return self.total.get(name, 0.0)

    def under(self, name, parent_name):
        """Spans of ``name`` whose parent span is ``parent_name``."""
        return [sp for sp in self.spans
                if sp[0] == name and sp[3] >= 0 and self.spans[sp[3]][0] == parent_name]

    def info_sum(self, name, key):
        return sum(sp[4][key] for sp in self.spans if sp[0] == name and sp[4])


def _ratio(num, den):
    return num / den if den else 0.0


def _s(span):
    return "s", [span], lambda L: L.s(span)


def _calls(span):
    return "count", [span], lambda L: L.n(span)


def _self_s(span):
    return "s", [span], lambda L: L.self_s.get(span, 0.0)


def _ls_evals(L):
    # the first energy evaluation of each solve is the initial point, not a
    # line-search trial
    return len(L.under("energy.energy_raw", "optim.minimize")) - L.n("optim.minimize")


def _iters(L):
    return L.info_sum("optim.minimize", "iters")


_SOLVE = ["energy.energy_raw", "optim.minimize"]

# metric name -> (unit, span names it needs, function of Layers)
#
# Which end-to-end metric each group should move, and on which workload:
# - grids: setup_s everywhere.
# - weights, energy.cell_kernel, energy.grad_raw: wall_s and finest_s of
#   box_ladder, spec_batch somewhat, nothing on oracle_picard.  A fused
#   energy-and-gradient kernel lowers cell_kernel.calls by about the
#   gradient-call count.
# - energy.tensor_eval: spec_batch wall_s; zero on box_ladder.
# - optim: iteration counts move wall_s of box_ladder and sphere_pair;
#   per-iteration overhead (minimize.self_s, s_per_iter) moves sphere_pair's
#   interval pair most.
# - oracle: oracle_picard wall_s; box_ladder only through optim.init_s.
# - sphere: sphere_pair wall_s.
# - halfspace, specfile, exprlang, fieldio, cli: spec_batch wall_s, except
#   specfile.parse_problem, which is part of setup_s.
PER_LAYER = {
    "grids.build_grid.s": _s("grids.build_grid"),
    "grids.sample_boundary.s": _s("grids.sample_boundary"),
    "weights.eval.calls": _calls("weights.eval"),
    "weights.eval.s": _s("weights.eval"),
    "energy.cell_kernel.calls": _calls("energy.cell_kernel"),
    "energy.cell_kernel.self_s": _self_s("energy.cell_kernel"),
    "energy.cell_kernel.cells": ("cells", ["energy.cell_kernel"], lambda L: _ratio(
        L.info_sum("energy.cell_kernel", "cells"), L.n("energy.cell_kernel"))),
    "energy.cell_kernel.ns_per_cell": ("ns", ["energy.cell_kernel"], lambda L: _ratio(
        1e9 * L.s("energy.cell_kernel"), L.info_sum("energy.cell_kernel", "cells"))),
    "energy.energy_raw.calls": _calls("energy.energy_raw"),
    "energy.energy_raw.s": _s("energy.energy_raw"),
    "energy.grad_raw.calls": _calls("energy.grad_raw"),
    "energy.grad_raw.self_s": _self_s("energy.grad_raw"),
    "energy.tensor_eval.calls": _calls("energy.tensor_eval"),
    "energy.tensor_eval.s": _s("energy.tensor_eval"),
    "energy.el_residual.s": _s("energy.el_residual"),
    "optim.minimize.calls": _calls("optim.minimize"),
    "optim.minimize.s": _s("optim.minimize"),
    "optim.minimize.self_s": _self_s("optim.minimize"),
    "optim.project.calls": _calls("optim.project"),
    "optim.project.s": _s("optim.project"),
    "optim.init_s": ("s", ["oracle.poisson", "optim.minimize"], lambda L: sum(
        sp[2] - sp[1] for sp in L.under("oracle.poisson", "optim.minimize"))),
    "optim.iters": ("count", ["optim.minimize"], _iters),
    "optim.ls_failures": ("count", ["optim.minimize"],
                          lambda L: L.info_sum("optim.minimize", "ls_failures")),
    "optim.energy_evals_per_iter": ("1", _SOLVE, lambda L: _ratio(
        len(L.under("energy.energy_raw", "optim.minimize")), _iters(L))),
    "optim.ls_energy_evals": ("count", _SOLVE, _ls_evals),
    "optim.armijo_accept_ratio": ("1", _SOLVE, lambda L: _ratio(_iters(L), _ls_evals(L))),
    "optim.s_per_iter": ("s", ["optim.minimize"],
                         lambda L: _ratio(L.s("optim.minimize"), _iters(L))),
    "oracle.poisson.calls": _calls("oracle.poisson"),
    "oracle.poisson.s": _s("oracle.poisson"),
    # one _neighbor_sum per solve builds the right-hand side; the rest are
    # CG matrix-vector products
    "oracle.cg_matvecs": ("count", ["oracle.neighbor_sum", "oracle.poisson"],
                          lambda L: L.n("oracle.neighbor_sum") - L.n("oracle.poisson")),
    "oracle.table_build.s": _s("oracle.table_build"),
    "oracle.forward.calls": _calls("oracle.forward"),
    "oracle.forward.s": _s("oracle.forward"),
    "oracle.inverse.calls": _calls("oracle.inverse"),
    "oracle.inverse.s": _s("oracle.inverse"),
    "oracle.picard_iters": ("count", ["oracle.picard"],
                            lambda L: L.info_sum("oracle.picard", "picard")),
    "sphere.choose_poles.s": _s("sphere.choose_poles"),
    "sphere.stereo_project.s": _s("sphere.stereo_project"),
    "sphere.stereo_inverse.s": _s("sphere.stereo_inverse"),
    "sphere.harmonic_residual.s": _s("sphere.harmonic_residual"),
    "sphere.solve_chart.s": _s("sphere.solve_chart"),
    "halfspace.solve_exhaustion.s": _s("halfspace.solve_exhaustion"),
    "halfspace.minimize.calls": ("count", ["optim.minimize", "halfspace.solve_exhaustion"],
                                 lambda L: len(L.under("optim.minimize",
                                                       "halfspace.solve_exhaustion"))),
    "specfile.parse_problem.s": _s("specfile.parse_problem"),
    "exprlang.eval.calls": _calls("exprlang.eval"),
    "exprlang.eval.s": _s("exprlang.eval"),
    "fieldio.write_field.s": _s("fieldio.write_field"),
    "fieldio.write_field.bytes": ("B", ["fieldio.write_field"], lambda L: _ratio(
        L.info_sum("fieldio.write_field", "bytes"), L.n("fieldio.write_field"))),
    "fieldio.read_field.s": _s("fieldio.read_field"),
    "fieldio.write_history.s": _s("fieldio.write_history"),
    "cli.main.s": _s("cli.main"),
}

# metrics computed from sizes rather than timed or counted
COMPUTED = ("energy.cell_kernel.cells", "fieldio.write_field.bytes")


def _shifted(spans, offset):
    return [[n, a, b, p + offset if p >= 0 else -1, i] for n, a, b, p, i in spans]


def layer_metrics(setup_spans, rep_spans, missing):
    """Per-layer values: set-up spans plus the median over traced reps.

    Times take the median over reps; counts repeat exactly from rep to rep.
    """
    out = {}
    reps = [Layers(setup_spans + _shifted(spans, len(setup_spans))) for spans in rep_spans]
    for name, (unit, needs, fn) in PER_LAYER.items():
        if any(n in missing for n in needs):
            out[name] = {"value": None, "unit": unit, "missing": True}
            continue
        values = [fn(L) for L in reps]
        # counts repeat exactly; keep them whole numbers
        value = values[0] if len(set(values)) == 1 else statistics.median(values)
        out[name] = {"value": value, "unit": unit}
    return out
