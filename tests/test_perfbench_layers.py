"""The benchmark's span table still finds every layer it names.

perfbench/layers.py wraps program functions by name; a renamed or moved
function shows up there as a missing span.  The file is loaded read-only.
"""

import functools
import importlib.util
from pathlib import Path

from quasimin import cli, optim, oracle

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_spans_bind_every_target():
    layers = _load_layers()
    before = (optim.poisson_dirichlet, oracle._neighbor_sum, cli.main)

    def make(span, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapped

    patch = layers.Patch(layers.TARGETS, make)
    try:
        assert patch.missing == []
        # the harmonic start calls poisson_dirichlet through optim's binding
        assert any(owner is optim and name == "poisson_dirichlet"
                   for owner, name, _ in patch.saved)
    finally:
        patch.restore()
    assert (optim.poisson_dirichlet, oracle._neighbor_sum, cli.main) == before


_SOLVE = """
mode = solve

[domain]
extents = 0 1 ; 0 1
resolution = 9 9

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = x1 * x2
"""


def test_traced_cli_run_records_the_field_dump_bytes(tmp_path):
    layers = _load_layers()
    spec = tmp_path / "p.cfg"
    spec.write_text(_SOLVE)
    tracer = layers.Tracer()
    assert tracer.install() == []
    try:
        code = cli.main(["solve", "--spec", str(spec), "--out-dir", str(tmp_path)])
    finally:
        tracer.restore()
    assert code == 0
    dumps = [info for name, _, _, _, info in tracer.take() if name == "fieldio.write_field"]
    assert dumps == [{"bytes": (tmp_path / "solution.field").stat().st_size}]
