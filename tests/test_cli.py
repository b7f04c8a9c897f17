import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasimin.cli import main
from quasimin.energy import CoefficientTensor
from quasimin.specfile import parse_problem
from quasimin.oracle import ConvergenceError
from quasimin.fieldio import read_field, write_field
from quasimin import DomainSpec, Field, build_grid

SOLVE_SPEC = """
mode = solve

[domain]
kind = box
extents = 0 1 ; 0 1
resolution = 17 17

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = x1 * x2
"""

SPHERE_SPEC = """
mode = sphere

[domain]
kind = box
extents = 0 1
resolution = 51

[boundary]
values = min(1, max(0, 1 - 2*x1)), min(1, max(0, 2*x1 - 1)), 0
"""

ORACLE_SPEC = """
mode = oracle

[domain]
kind = box
extents = 0 1
resolution = 33

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = x1
"""

GRADCHECK_SPEC = """
mode = gradcheck

[domain]
kind = box
extents = 0 1 ; 0 1
resolution = 8 8

[weight]
kind = gaussian
alpha = 1.0

[gradcheck]
components = 2
"""

HALFSPACE_SPEC = """
mode = halfspace

[weight]
kind = gaussian
alpha = 1.0

[halfspace]
radii = 1 2
spacing = 0.25
window = 0 0.5 ; 0 0.5
function = exp(-(x1^2 + x2^2))
"""


def run(tmp_path, name, text, mode, sub=None, seed=None):
    spec = tmp_path / name
    spec.write_text(text)
    out = tmp_path / (sub or "out")
    argv = [mode, "--spec", str(spec), "--out-dir", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def read_summary(path):
    items = {}
    for line in path.read_text().splitlines():
        key, val = line.split(" = ", 1)
        items[key] = val
    return items


def test_solve_run_and_outputs(tmp_path):
    code, out = run(tmp_path, "p.cfg", SOLVE_SPEC, "solve")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "true"
    assert float(summary["pg_norm"]) <= float(summary["tol_pg"])
    hist = (out / "history.csv").read_text().splitlines()
    assert len(hist) == int(summary["iterations"]) + 1
    field, grid = read_field(out / "solution.field")
    assert grid.dims == (17, 17)
    # header dims product equals row count
    lines = (out / "solution.field").read_text().splitlines()
    assert len(lines) - 4 == 17 * 17
    timing = read_summary(out / "timing.txt")
    assert set(timing) == {"wall_time_s", "write_s"}
    assert 0.0 <= float(timing["write_s"]) <= float(timing["wall_time_s"])


def test_solve_summary_counts_the_work(tmp_path):
    code, out = run(tmp_path, "p.cfg", SOLVE_SPEC, "solve")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    iters = int(summary["iterations"])
    assert int(summary["energy_evals"]) == 1 + iters + int(summary["backtracks"])
    # a box grid builds its DST-I metric at least once
    assert int(summary["factorizations"]) >= 1
    # a masked grid factors K_w at least once
    disk = SOLVE_SPEC.replace("kind = box", "kind = masked_box\nmask = x1^2 + x2^2 <= 1").replace(
        "extents = 0 1 ; 0 1", "extents = -1 1 ; -1 1")
    code, out = run(tmp_path, "d.cfg", disk, "solve", sub="disk")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert int(summary["iterations"]) > 0
    assert int(summary["factorizations"]) >= 1


def test_field_round_trip_bit_exact(tmp_path):
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (7, 7))
    rng = np.random.default_rng(0)
    f = Field(g, np.where(g.in_mask[..., None], rng.standard_normal(g.dims + (2,)), 0.0))
    path = tmp_path / "f.field"
    write_field(f, path)
    back, grid2 = read_field(path)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(grid2.node_class, g.node_class)
    # blank lines after the last row are not rows
    path.write_text(path.read_text() + "\n  \n")
    assert np.array_equal(read_field(path)[0].values, f.values)


def _per_node_dump(field):
    # the row-by-row rendering that write_field must reproduce byte for byte
    grid = field.grid

    def fmt(x):
        return format(float(x), ".17g")

    lines = [
        "dims: " + " ".join(str(d) for d in grid.dims),
        "spacing: " + " ".join(fmt(h) for h in grid.spacing),
        f"components: {field.ncomp}",
        "origin: " + " ".join(fmt(o) for o in grid.origin),
    ]
    flat = field.flat()
    cls = grid.node_class.ravel()
    for k, idx in enumerate(np.ndindex(*grid.dims)):
        lines.append(" ".join([*map(str, idx), str(int(cls[k])), *map(fmt, flat[k])]))
    return ("\n".join(lines) + "\n").encode()


_DUMP_GRIDS = pytest.mark.parametrize("grid, ncomp", [
    (build_grid(DomainSpec.box([(0, 1)]), (7,)), 1),
    # more rows than one rendering chunk, and exterior nodes
    (build_grid(DomainSpec.masked_box([(-1, 1), (-1, 2)],
                                      lambda x: np.sum(x * x, axis=-1) <= 1.5), (65, 70)), 1),
    (build_grid(DomainSpec.box([(0, 1), (-1, 1), (0, 0.3)]), (3, 4, 5)), 2),
], ids=["1d", "2d", "3d"])


def _special_values(grid, ncomp):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal(grid.dims + (ncomp,))
    vals.reshape(-1)[:5] = [-0.0, 5e-324, 1e308, -1e308, 0.1]
    return vals


@_DUMP_GRIDS
def test_field_dump_bytes_match_per_node_rendering(tmp_path, grid, ncomp):
    path = tmp_path / "f.field"
    field = Field(grid, _special_values(grid, ncomp))
    write_field(field, path)
    assert path.read_bytes() == _per_node_dump(field)


@_DUMP_GRIDS
def test_read_field_round_trips_bits(tmp_path, grid, ncomp):
    vals = _special_values(grid, ncomp)
    exterior = np.flatnonzero(~grid.in_mask.ravel())
    vals.reshape(-1, ncomp)[exterior[:3]] = np.array([np.inf, -np.inf, np.nan])[:len(exterior), None]
    path = tmp_path / "f.field"
    write_field(Field(grid, vals), path)
    back, grid2 = read_field(path)
    assert back.ncomp == ncomp
    assert np.array_equal(back.values.view(np.int64), vals.view(np.int64))
    assert np.array_equal(grid2.node_class, grid.node_class)
    assert (grid2.dims, grid2.spacing, grid2.origin) == (grid.dims, grid.spacing, grid.origin)


def _malformed(lines):
    # a valid 3x4 dump with two components, then one defect per case
    header, rows = lines[:4], lines[4:]
    return {
        "short_row": header + rows[:2] + [rows[2].rsplit(" ", 1)[0]] + rows[3:],
        "missing_values": header + [" ".join(r.split()[:3]) for r in rows],
        "extra_column": header + rows[:1] + [rows[1] + " 0"] + rows[2:],
        "bad_token": header + rows[:5] + [rows[5].rsplit(" ", 1)[0] + " abc"] + rows[6:],
        "late_short_row": header + rows[:5] + [rows[5].rsplit(" ", 1)[0]] + rows[6:],
        # float() reads 1_0, loadtxt does not
        "underscore_token": header + rows[:5] + [rows[5].rsplit(" ", 1)[0] + " 1_0"] + rows[6:],
        "wrong_components": [*header[:2], "components: 3", header[3]] + rows,
        "truncated": header + rows[:-2],
        "header_only": header,
        "bad_header": [header[0], "spacings: 0.5 0.25", *header[2:]] + rows,
        "swapped_rows": header + [rows[1], rows[0]] + rows[2:],
        "bad_class": header + rows[:3] + ["0 3 7" + rows[3][5:]] + rows[4:],
        "nan_spacing": [header[0], "spacing: nan 0.25", *header[2:]] + rows,
        "inf_spacing": [header[0], "spacing: inf 0.25", *header[2:]] + rows,
        "nan_origin": [*header[:3], "origin: nan 0"] + rows,
        "negative_dims": ["dims: 3 -3", *header[1:]] + rows,
        "zero_components": [*header[:2], "components: 0", header[3]] + rows,
        "negative_components": [*header[:2], "components: -1", header[3]] + rows,
        "two_components_values": [*header[:2], "components: 1 2", header[3]] + rows,
        "empty_components": [*header[:2], "components:", header[3]] + rows,
        "extra_row": header + rows + [rows[-1]],
    }


# a row defect is named by its file line: four header lines, then the rows
_MALFORMED_MESSAGES = {
    "short_row": "line 7: 4 columns, expected 5",
    "missing_values": "3 columns, expected 5",
    "extra_column": "line 6: 6 columns, expected 5",
    "bad_token": "line 10: 'abc' is not a number",
    "late_short_row": "line 10: 4 columns, expected 5",
    "underscore_token": "expected 5 columns per row.*'1_0'",
    "wrong_components": "5 columns, expected 6",
    "truncated": "10 rows, expected 12",
    "header_only": "no rows, expected 12",
    "bad_header": "expected 'spacing:'",
    "swapped_rows": "line 5: indices and class",
    "bad_class": "line 8: indices and class",
    "nan_spacing": "grid spacing must be finite and positive",
    "inf_spacing": "grid spacing must be finite and positive",
    "nan_origin": "grid origin must be finite",
    "negative_dims": r"dims: must be positive, got \[3, -3\]",
    "zero_components": "components: must be one positive integer, got '0'",
    "negative_components": "components: must be one positive integer, got '-1'",
    "two_components_values": "components: must be one positive integer, got '1 2'",
    "empty_components": "components: must be one positive integer, got ''",
    "extra_row": "field dump has 13 rows, expected 12",
}


@pytest.mark.parametrize("case", _MALFORMED_MESSAGES)
def test_read_field_rejects_malformed_dumps(tmp_path, case):
    grid = build_grid(DomainSpec.box([(0, 1), (0, 0.75)]), (3, 4))
    path = tmp_path / "f.field"
    write_field(Field(grid, np.arange(24.0).reshape(3, 4, 2)), path)
    path.write_text("\n".join(_malformed(path.read_text().splitlines())[case]) + "\n")
    with pytest.raises(ValueError, match=_MALFORMED_MESSAGES[case]):
        read_field(path)


def test_constant_field_dump_columns(tmp_path):
    g = build_grid(DomainSpec.box([(0, 1)]), (5,))
    f = Field(g, np.full(g.dims + (1,), 0.3))
    path = tmp_path / "c.field"
    write_field(f, path)
    rows = path.read_text().splitlines()[4:]
    vals = {row.split()[-1] for row in rows}
    assert len(vals) == 1


def test_determinism_two_runs(tmp_path):
    code1, out1 = run(tmp_path, "p.cfg", SOLVE_SPEC, "solve", sub="a")
    code2, out2 = run(tmp_path, "p.cfg", SOLVE_SPEC, "solve", sub="b")
    assert code1 == code2 == 0
    for name in ("solution.field", "summary.txt", "history.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_spec_error_exit_code(tmp_path, capsys):
    bad = SOLVE_SPEC.replace("[weight]", "[wieght]")
    code, _ = run(tmp_path, "bad.cfg", bad, "solve")
    assert code == 3
    err = capsys.readouterr().err
    assert "wieght" in err and "weight" in err


def test_boundary_evaluation_error_refuses(tmp_path, capsys):
    with np.errstate(divide="ignore", invalid="ignore"):
        bad = SOLVE_SPEC.replace("values = x1 * x2", "values = 1 / (x1 - x1)")
        code, _ = run(tmp_path, "bad.cfg", bad, "solve")
    assert code == 3
    assert "boundary" in capsys.readouterr().err


def test_mode_mismatch(tmp_path, capsys):
    code, _ = run(tmp_path, "p.cfg", SOLVE_SPEC, "oracle")
    assert code == 3
    assert "mode" in capsys.readouterr().err


def test_oracle_mode(tmp_path):
    code, out = run(tmp_path, "o.cfg", ORACLE_SPEC, "oracle")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["mode"] == "oracle"
    field, _ = read_field(out / "solution.field")
    assert field.values[16, 0] == pytest.approx(0.4418, abs=1e-3)


@pytest.mark.parametrize(
    "values, source, ends",
    [("-9 * (1 - x1)", None, (-9.0, -0.0)), ("9 * x1", None, (0.0, 9.0)),
     ("-6 * (1 - x1)", None, (-6.0, -0.0)), ("-6 * (1 - x1)", "1", (-6.0, -0.0)),
     ("9 * x1", "1", (0.0, 9.0))],
    ids=["flat_table_end", "steep_data", "moderate_data", "picard", "underflowing_table"],
)
def test_oracle_dump_holds_the_data_on_the_boundary(tmp_path, values, source, ends):
    # the first spec's table is flat at its lower end, where the inverse's
    # linear start once divided 0 by 0; the boundary rows are phi itself,
    # not W^{-1}(W(phi)), which read 8.1640625 for phi = 9.  The last asks
    # for table range 39, past the underflow of e^{f/2} at |u| = 38.6,
    # and runs on the table cut back to where its density is positive
    text = (_PROBLEMS / "oracle_interval.cfg").read_text().replace(
        "values = x1", f"values = {values}")
    if source is not None:
        text += f"\n[source]\nvalues = {source}\n"
    code, out = run(tmp_path, "o.cfg", text, "oracle")
    assert code == 0
    field, _ = read_field(out / "solution.field")
    assert [v.hex() for v in field.values[[0, -1], 0]] == [v.hex() for v in ends]


def test_sphere_mode_summary(tmp_path):
    code, out = run(tmp_path, "s.cfg", SPHERE_SPEC, "sphere")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert {"energy_a", "energy_b", "sup_distance"} <= set(summary)
    e = sorted([float(summary["energy_a"]), float(summary["energy_b"])])
    assert e[0] == pytest.approx(np.pi**2 / 4, rel=0.05)
    assert e[1] == pytest.approx(9 * np.pi**2 / 4, rel=0.05)
    assert float(summary["sup_distance"]) >= 1.0
    assert (out / "solution_a.field").exists()
    assert (out / "solution_b.field").exists()


def test_gradcheck_mode(tmp_path, capsys):
    code, out = run(tmp_path, "g.cfg", GRADCHECK_SPEC, "gradcheck", seed=7)
    assert code == 0
    assert "max relative error" in capsys.readouterr().out
    summary = read_summary(out / "summary.txt")
    assert float(summary["max_rel_error"]) <= 1e-6


def test_halfspace_mode(tmp_path):
    code, out = run(tmp_path, "h.cfg", HALFSPACE_SPEC, "halfspace")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["uniform_bound_ok"] == "true"
    assert "window_diff_1" in summary


def test_nonconvergence_still_writes_summary(tmp_path):
    capped = SOLVE_SPEC + "\n[solver]\nmax_iters = 2\n"
    code, out = run(tmp_path, "capped.cfg", capped, "solve")
    assert code == 2
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "false"
    assert int(summary["iterations"]) == 2
    assert (out / "solution.field").exists()


def test_io_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    spec = tmp_path / "p.cfg"
    spec.write_text(SOLVE_SPEC)
    code = main(["solve", "--spec", str(spec), "--out-dir", str(blocker / "sub")])
    assert code == 4
    assert "out dir" in capsys.readouterr().err


def test_artifact_write_failure_after_the_solve_exits_4(tmp_path, capsys):
    (tmp_path / "out" / "solution.field").mkdir(parents=True)
    code, _ = run(tmp_path, "p.cfg", SOLVE_SPEC, "solve")
    assert code == 4
    assert "I/O failure" in capsys.readouterr().err


def test_missing_spec_file(tmp_path, capsys):
    code = main(["solve", "--spec", str(tmp_path / "absent.cfg")])
    assert code == 4
    assert "cannot read spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, code",
    [(["solve"], 3), (["bogus", "--spec", "p.cfg"], 3),
     (["solve", "--spec", "p.cfg", "--seed", "abc"], 3), (["-h"], 0)],
    ids=["no_spec", "unknown_mode", "bad_seed", "help"],
)
def test_usage_errors_exit_3_and_help_exits_0(capsys, argv, code):
    # exit 2 is reserved for non-convergence
    assert main(argv) == code
    assert "usage: quasimin" in capsys.readouterr()[code == 3]


def test_importing_the_cli_loads_no_scipy():
    # scipy.fft and scipy.sparse load on the first solve that needs them
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = "import sys, quasimin.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_weights_below_double_range_leave_a_finite_residual(tmp_path):
    # e^{-2000 u^2} underflows on every node of this converged solve: the
    # residual takes each face weight relative to its node, where
    # e^{-f_node} e^{f_face} was inf * 0
    text = SOLVE_SPEC.replace("alpha = 1.0", "alpha = 2000").replace(
        "values = x1 * x2", "values = 0.8 + 0.1 * x1 * x2")
    code, out = run(tmp_path, "u.cfg", text, "solve")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "true"
    assert np.isfinite(float(summary["el_residual"]))


def test_converged_solve_with_nodes_on_the_bound_exits_0(tmp_path):
    # nodes held at 0.9 sit next to nodes near 0, where e^{f_face - f_node}
    # is e^{1215}; the residual leaves the nodes on the bound out
    text = (SOLVE_SPEC.replace("alpha = 1.0", "alpha = 2000")
            .replace("values = x1 * x2", "values = 0.9 * (x1 > 0.5)")
            + "\n[solver]\nmax_iters = 200\n")
    code, out = run(tmp_path, "b.cfg", text, "solve")
    assert code == 0
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "true"
    assert int(summary["active_constraints"]) > 0
    assert np.isfinite(float(summary["el_residual"]))
    field, _ = read_field(out / "solution.field")
    assert np.isfinite(field.values).all()
    history = (out / "history.csv").read_text().splitlines()
    assert len(history) == int(summary["iterations"]) + 1


def _raise_convergence(*args, **kwargs):
    raise ConvergenceError("transform inversion did not converge")


@pytest.mark.parametrize(
    "text, mode, patch, message",
    [
        (ORACLE_SPEC.replace("alpha = 1.0", "alpha = 400").replace("values = x1", "values = 3*x1"),
         "oracle", None, "transform density must be positive"),
        (SOLVE_SPEC.replace("alpha = 1.0", "alpha = 1.0\nshift = 1000"),
         "solve", None, "initial energy is not finite"),
        (ORACLE_SPEC, "oracle", _raise_convergence, "transform inversion did not converge"),
        (HALFSPACE_SPEC.replace("alpha = 1.0", "alpha = 1.0\nshift = 1000"),
         "halfspace", None, "initial energy is not finite"),
        # e^{-2000 u^2} leaves whole regions of the disk with cell weights
        # below float32 range, and the float32 K_w factor singular
        (SOLVE_SPEC.replace("kind = box", "kind = masked_box\nmask = x1^2 + x2^2 <= 1")
         .replace("extents = 0 1 ; 0 1", "extents = -1 1 ; -1 1")
         .replace("alpha = 1.0", "alpha = 2000").replace("values = x1 * x2", "values = 0.9 * x1"),
         "solve", None, "metric factorization failed"),
    ],
    ids=["density_underflow", "infinite_energy", "convergence_error",
         "halfspace_infinite_energy", "singular_metric"],
)
def test_numerical_failure_exits_2_with_summary(tmp_path, monkeypatch, capsys,
                                                text, mode, patch, message):
    if patch is not None:
        monkeypatch.setattr("quasimin.cli.solve_scalar_exact", patch)
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(tmp_path, "n.cfg", text, mode)
    assert code == 2
    summary = read_summary(out / "summary.txt")
    assert summary["converged"] == "false"
    assert message in summary["error"]
    assert "spec error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, line, message",
    [("solver", "init = harmonic_extension", "unknown key [solver] 'init'"),
     ("sphere", "candidates = 256", "unknown section [sphere]")],
    ids=["solver_init", "sphere_section"],
)
def test_removed_keys_exit_3_on_their_line(tmp_path, capsys, section, line, message):
    text = SPHERE_SPEC + f"\n[{section}]\n{line}\n"
    code, out = run(tmp_path, "r.cfg", text, "sphere")
    assert code == 3
    # an unknown key is reported on its line, an unknown section on its header
    lines = text.splitlines()
    no = lines.index(line if section == "solver" else f"[{section}]") + 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"spec error: line {no}: {message}")
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize(
    "text, mode, message",
    [
        (SOLVE_SPEC.replace("resolution = 17 17", "resolution = 2 2"), "solve", "grid"),
        (SOLVE_SPEC + "\n[solver]\nbox_bound = 0.5\n", "solve", "box bound"),
        (SOLVE_SPEC + "\n[tensor]\ndiagonal = 1\n", "solve", "tensor evaluation"),
        # finite at the cell midpoints, infinite on the nodes x1 = 0.5 where
        # el_residual evaluates it
        (SOLVE_SPEC + "\n[tensor]\ndiagonal = 1 ; 1 + 1/(x1 - 0.5)^2\n", "solve",
         "tensor evaluation"),
        (SOLVE_SPEC + "\n[tensor]\ndiagonal = -1 ; 1\n", "solve",
         "tensor evaluation: coefficient tensor is not elliptic"),
        (SOLVE_SPEC + "\n[tensor]\ndiagonal = 0 ; 1\n", "solve",
         "tensor evaluation: coefficient tensor is not elliptic"),
        (HALFSPACE_SPEC.replace("window = 0 0.5 ; 0 0.5", "window = 0 2 ; 0 2"),
         "halfspace", "half-ball"),
        (SOLVE_SPEC.replace("values = x1 * x2", "values = " + " + ".join(["x1"] * 1000)),
         "solve", "bad boundary expression"),
        # the data vanish at x1 = 1
        ("mode = sphere\n[domain]\nkind = box\nextents = -1 1\nresolution = 9\n"
         "[boundary]\nvalues = x1 - 1, 0, 0\n", "sphere",
         "sphere boundary expression vanishes at a node"),
    ],
    ids=["grid", "box_bound", "tensor", "tensor_nodes", "tensor_negative", "tensor_zero",
         "halfspace_window", "nested_boundary", "sphere_vanishing_data"],
)
def test_failures_from_the_spec_exit_3(tmp_path, capsys, text, mode, message):
    code, out = run(tmp_path, "s.cfg", text, mode)
    assert code == 3
    assert message in capsys.readouterr().err
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize(
    "text, mode, line, message",
    [
        (ORACLE_SPEC + "\n[solver]\nmax_iters = 1\nbox_bound = 0.01\n", "oracle", "[solver]",
         "oracle and gradcheck modes run no descent; drop [solver]"),
        (GRADCHECK_SPEC + "\n[solver]\ntol_pg = 1e-9\n", "gradcheck", "[solver]",
         "oracle and gradcheck modes run no descent; drop [solver]"),
        # the chart solves still take max_iters
        (SPHERE_SPEC + "\n[solver]\nmax_iters = 500\nbox_bound = 0.001\n", "sphere",
         "box_bound = 0.001",
         "sphere mode sizes each chart's box from its data; drop box_bound"),
    ],
    ids=["oracle", "gradcheck", "sphere_box_bound"],
)
def test_refused_solver_keys_exit_3_on_their_line(tmp_path, capsys, text, mode, line, message):
    code, out = run(tmp_path, "r.cfg", text, mode)
    assert code == 3
    no = text.splitlines().index(line) + 1
    (err,) = capsys.readouterr().err.splitlines()
    assert err == f"spec error: line {no}: {message}"
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize(
    "text, lines",
    [
        (SOLVE_SPEC.replace("resolution = 17 17", "resolution = 17 17\nmask = x1 < 2\nradius = 1")
         .replace("alpha = 1.0", "alpha = 1.0\nbeta = 2\nvalue = 3\nshift = 0.5"),
         {"mask = x1 < 2": "a box domain does not read mask; drop it",
          "radius = 1": "a box domain does not read radius; drop it",
          "beta = 2": "a gaussian weight does not read beta; drop it",
          "value = 3": "a gaussian weight does not read value; drop it"}),
        (SOLVE_SPEC.replace("kind = gaussian\nalpha = 1.0", "kind = constant\nalpha = 1.0"),
         {"alpha = 1.0": "a constant weight does not read alpha; drop it"}),
    ],
    ids=["box_gaussian", "constant_alpha"],
)
def test_keys_the_kind_does_not_read_exit_3_on_their_lines(tmp_path, capsys, text, lines):
    code, out = run(tmp_path, "k.cfg", text, "solve")
    assert code == 3
    numbered = text.splitlines()
    want = [f"spec error: line {numbered.index(line) + 1}: {msg}" for line, msg in lines.items()]
    assert capsys.readouterr().err.splitlines() == want
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("kind, key", [("gaussian", "alpha = 1.0"), ("sphere_chart", "beta = 2"),
                                       ("constant", "value = 0.5")])
def test_weight_shift_is_read_by_every_kind(tmp_path, kind, key):
    text = SOLVE_SPEC.replace("kind = gaussian\nalpha = 1.0", f"kind = {kind}\n{key}\nshift = 0.25")
    code, out = run(tmp_path, "w.cfg", text, "solve")
    assert code == 0
    assert read_summary(out / "summary.txt")["converged"] == "true"


_NO_BOUNDARY = "halfspace and gradcheck modes read no boundary expression; drop [boundary]"
_NO_GRADCHECK = "[gradcheck] applies to gradcheck mode only"


@pytest.mark.parametrize(
    "text, mode, lines",
    [
        (SOLVE_SPEC + "\n[halfspace]\nradii = 1 2\n\n[gradcheck]\ncomponents = 3\n"
         "\n[source]\ndamping = 0.5\n", "solve",
         {"[halfspace]": "[halfspace] applies to halfspace mode only",
          "[gradcheck]": _NO_GRADCHECK,
          "[source]": "a source term applies to oracle mode only"}),
        (GRADCHECK_SPEC + "\n[boundary]\nvalues = x1\n", "gradcheck",
         {"[boundary]": _NO_BOUNDARY}),
        (HALFSPACE_SPEC + "\n[boundary]\nvalues = x1\n\n[gradcheck]\nstep = 1e-4\n", "halfspace",
         {"[boundary]": _NO_BOUNDARY, "[gradcheck]": _NO_GRADCHECK}),
        # line order: the kind refusal on line 6 comes before the [tensor] header
        (ORACLE_SPEC.replace("kind = box", "kind = box\nradius = 2")
         + "\n[tensor]\ndiagonal = 1\n", "oracle",
         {"radius = 2": "a box domain does not read radius; drop it",
          "[tensor]": "a coefficient tensor applies to solve mode only"}),
    ],
    ids=["solve", "gradcheck", "halfspace", "line_order"],
)
def test_sections_the_mode_does_not_read_exit_3_on_their_headers(tmp_path, capsys, text,
                                                                  mode, lines):
    code, out = run(tmp_path, "m.cfg", text, mode)
    assert code == 3
    numbered = text.splitlines()
    want = sorted((numbered.index(line) + 1, msg) for line, msg in lines.items())
    assert capsys.readouterr().err.splitlines() == [
        f"spec error: line {no}: {msg}" for no, msg in want]
    assert not (out / "summary.txt").exists()


_NOT_FINITE = "expected a finite number"


@pytest.mark.parametrize(
    "text, mode, line, message",
    [
        (SOLVE_SPEC.replace("alpha = 1.0", "alpha = nan"), "solve", "alpha = nan",
         f"bad weight alpha 'nan': {_NOT_FINITE}"),
        (SOLVE_SPEC.replace("alpha = 1.0", "alpha = inf"), "solve", "alpha = inf",
         f"bad weight alpha 'inf': {_NOT_FINITE}"),
        (SOLVE_SPEC.replace("alpha = 1.0", "alpha = 1.0\nshift = nan"), "solve", "shift = nan",
         f"bad weight shift 'nan': {_NOT_FINITE}"),
        (SOLVE_SPEC + "\n[solver]\ntol_pg = nan\n", "solve", "tol_pg = nan",
         f"bad tol_pg 'nan': {_NOT_FINITE}"),
        (SOLVE_SPEC + "\n[solver]\nbox_bound = inf\n", "solve", "box_bound = inf",
         f"bad box_bound 'inf': {_NOT_FINITE}"),
        (HALFSPACE_SPEC.replace("radii = 1 2", "radii = 1 nan"), "halfspace", "radii = 1 nan",
         f"bad radii '1 nan': {_NOT_FINITE}"),
        (GRADCHECK_SPEC + "step = 0\n", "gradcheck", "step = 0",
         "bad gradcheck step '0': gradcheck step must be positive"),
    ],
    ids=["alpha_nan", "alpha_inf", "shift_nan", "tol_pg_nan", "box_bound_inf", "radii_nan",
         "step_zero"],
)
def test_non_finite_numbers_exit_3_on_their_line(tmp_path, capsys, text, mode, line, message):
    code, out = run(tmp_path, "f.cfg", text, mode)
    assert code == 3
    no = text.splitlines().index(line) + 1
    assert capsys.readouterr().err.splitlines() == [f"spec error: line {no}: {message}"]
    assert not (out / "summary.txt").exists()


_PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
_DISK_CHART = (_PROBLEMS / "disk_chart.cfg").read_text()


# the files each mode writes under the default names, besides timing.txt
_MODE_FILES = {
    "solve": {"solution.field", "history.csv", "summary.txt"},
    "oracle": {"solution.field", "summary.txt"},
    "sphere": {"solution_a.field", "solution_b.field", "history_a.csv", "history_b.csv",
               "summary.txt"},
    "halfspace": {"solution.field", "history.csv", "summary.txt"},
    "gradcheck": {"summary.txt"},
}


@pytest.mark.parametrize("path", sorted(_PROBLEMS.glob("*.cfg")), ids=lambda p: p.stem)
def test_shipped_problem_runs_and_converges(tmp_path, path):
    text = path.read_text()
    mode = parse_problem(text).mode
    code, out = run(tmp_path, path.name, text, mode)
    assert code == 0
    assert read_summary(out / "summary.txt")["converged"] == "true"
    assert set(os.listdir(out)) == _MODE_FILES[mode] | {"timing.txt"}


@pytest.mark.parametrize(
    "text, mode, line, message",
    [
        (ORACLE_SPEC + "\n[output]\nhistory = h.csv\n", "oracle", "history = h.csv",
         "oracle mode writes no history; drop it"),
        (GRADCHECK_SPEC + "\n[output]\nfield = f.field\n", "gradcheck", "field = f.field",
         "gradcheck mode writes no field; drop it"),
        (SOLVE_SPEC + "\n[output]\nsummary = timing.txt\n", "solve", "summary = timing.txt",
         "summary file 'timing.txt' is also the timing file"),
        (SPHERE_SPEC + "\n[output]\nfield = h.csv\nhistory = h.csv\n", "sphere",
         "history = h.csv", "history file 'h_a.csv' is also the field file"),
        (SOLVE_SPEC + "\n[output]\nfield =\n", "solve", "field =",
         "bad output name '': expected a file name"),
        ((_PROBLEMS / "square_gaussian.cfg").read_text() + "\n[output]\nfield = nodir/x.field\n",
         "solve", "field = nodir/x.field",
         "bad output name 'nodir/x.field': expected a plain file name, with no directory part"),
        ((_PROBLEMS / "oracle_interval.cfg").read_text() + "\n[output]\nfield = ../escaped.field\n",
         "oracle", "field = ../escaped.field",
         "bad output name '../escaped.field': expected a plain file name, with no directory part"),
    ],
    ids=["oracle_history", "gradcheck_field", "timing_summary", "sphere_pair_clash",
         "empty_field", "directory_part", "parent_directory"],
)
def test_output_names_the_run_cannot_write_exit_3_on_their_line(tmp_path, capsys, text, mode,
                                                                 line, message):
    code, out = run(tmp_path, "o.cfg", text, mode)
    assert code == 3
    no = text.splitlines().index(line) + 1
    assert capsys.readouterr().err.splitlines() == [f"spec error: line {no}: {message}"]
    # refused before the run creates its out dir
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        # x1 + 0.01 <= 0 only at the face points x1 = -h/2, left of the box
        SOLVE_SPEC.replace("17 17", "33 33") + "\n[tensor]\ndiagonal = x1 + 0.01 ; 1\n",
        # 1.01 - |x|^2 <= 0 only outside the disk, at the bounding box corners
        _DISK_CHART.replace("diagonal = 1 ; 1 + x1^2", "diagonal = 1 ; 1.01 - x1^2 - x2^2"),
    ],
    ids=["box_left_face", "disk_rim"],
)
def test_tensor_elliptic_on_the_domain_solves(tmp_path, text):
    assert ".01" in text  # the replacement took
    code, out = run(tmp_path, "e.cfg", text, "solve")
    assert code == 0
    assert read_summary(out / "summary.txt")["converged"] == "true"


def test_tensor_solve_evaluates_the_tensor_once(tmp_path, monkeypatch):
    calls = []
    evaluate = CoefficientTensor.eval

    def counted(self, points):
        calls.append(points.shape)
        return evaluate(self, points)

    monkeypatch.setattr(CoefficientTensor, "eval", counted)
    code, out = run(tmp_path, "d.cfg", _DISK_CHART, "solve")
    assert code == 0
    assert len(calls) == 1
