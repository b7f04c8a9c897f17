import re
from pathlib import Path

import numpy as np
import pytest

from quasimin.exprlang import ExprError, parse_expr, parse_vector_expr
from quasimin.specfile import SpecError, parse_problem


def test_expr_arithmetic_and_power():
    e = parse_expr("x1^2 + 2*x2 - 1")
    pts = np.array([[3.0, 0.5]])
    assert e(pts)[0] == 9.0 + 1.0 - 1.0


def test_expr_functions_and_constants():
    e = parse_expr("sin(pi * x1) + exp(0) + min(x1, x2, 0.25)")
    pts = np.array([[0.5, 2.0]])
    assert e(pts)[0] == pytest.approx(1.0 + 1.0 + 0.25)


def test_expr_mask_comparison():
    e = parse_expr("x1^2 + x2^2 <= 1 and x2 >= 0")
    pts = np.array([[0.5, 0.5], [0.5, -0.5], [2.0, 0.0]])
    assert list(e(pts)) == [True, False, False]


def test_expr_errors():
    with pytest.raises(ExprError, match="unknown name"):
        parse_expr("y + 1")
    with pytest.raises(ExprError, match="unknown function"):
        parse_expr("sinh(x1)")
    with pytest.raises(ExprError, match="syntax"):
        parse_expr("x1 + ")
    # 1000 terms nest too deeply to compile, 3000 too deeply for Python's parser
    for terms in (1000, 3000):
        with pytest.raises(ExprError, match="expression nested too deeply"):
            parse_expr(" + ".join(["x1"] * terms))
    with pytest.raises(ExprError, match="only plain function calls allowed"):
        parse_expr("exp(x1, y=2)")
    with pytest.raises(ExprError, match="too large to convert to float"):
        parse_expr("1" + "0" * 400)
    for text in ("x1,", "(x1,)", "x1, x2,", "()"):
        with pytest.raises(ExprError, match="empty component"):
            parse_vector_expr(text)


def test_expr_comparisons_are_zero_one_floats():
    pts = np.array([[0.25, 0.75], [0.75, 0.25], [0.25, 0.25]])
    diff = parse_expr("(x1 < 0.5) - (x2 < 0.5)")(pts)
    assert diff.dtype == float
    assert list(diff) == [1.0, -1.0, 0.0]
    assert list(parse_expr("-(x1 < 0.5)")(pts)) == [-1.0, -0.0, -1.0]
    assert list(parse_expr("2 * (x1 < 0.5 or x2 < 0.5)")(pts)) == [2.0, 2.0, 2.0]


def test_expr_division_and_log_are_quiet():
    pts = np.array([[0.0], [1.0]])
    with np.errstate(all="raise"):
        assert list(parse_expr("1/x1")(pts)) == [np.inf, 1.0]
        assert list(parse_expr("log(x1)")(pts)) == [-np.inf, 0.0]


def test_vector_expr_components():
    v = parse_vector_expr("cos(x1), sin(x1), 0")
    pts = np.array([[0.0], [np.pi / 2]])
    out = v(pts)
    assert out.shape == (2, 3)
    assert np.allclose(out[0], [1, 0, 0])
    assert np.allclose(out[1], [0, 1, 0], atol=1e-15)
    # parenthesized commas do not split components
    v2 = parse_vector_expr("min(x1, 0), max(x1, 0)")
    assert v2.ncomp == 2
    assert parse_vector_expr("(x1, (x1))").ncomp == 2


MINIMAL = """
mode = solve

[domain]
kind = box
extents = 0 1 ; 0 1
resolution = 9 9

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = x1
"""


def test_minimal_solve_spec_defaults():
    spec = parse_problem(MINIMAL)
    assert spec.mode == "solve"
    assert spec.resolution == (9, 9)
    assert spec.domain.mask is None
    assert spec.weight.label == "gaussian(1.0)"
    assert spec.boundary.ncomp == 1
    assert spec.solver.max_iters == 50000
    assert spec.outputs["field"] == "solution.field"
    assert spec.outputs["summary"] == "summary.txt"


def test_sphere_output_names_are_pairs():
    text = """
mode = sphere

[domain]
extents = 0 1
resolution = 9

[boundary]
values = x1, 1

[output]
field = map.dump
history = steps
"""
    assert parse_problem(text).outputs == {
        "field_a": "map_a.dump", "field_b": "map_b.dump",
        "history_a": "steps_a", "history_b": "steps_b", "summary": "summary.txt",
    }


def test_misspelled_section_names_nearest():
    text = MINIMAL.replace("[weight]", "[wieght]")
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    msgs = [str(d) for d in err.value.diagnostics]
    assert any("wieght" in m and "weight" in m for m in msgs)
    assert any(m.startswith("line ") for m in msgs)


def test_misspelled_key_reports_line_and_suggestion():
    text = MINIMAL.replace("alpha = 1.0", "alpah = 1.0")
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    diag = next(d for d in err.value.diagnostics if "alpah" in d.message)
    assert "alpha" in diag.message
    assert diag.line == text.splitlines().index("alpah = 1.0") + 1


def test_bad_expression_position():
    text = MINIMAL.replace("values = x1", "values = x1 + + *")
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    assert any("boundary expression" in d.message for d in err.value.diagnostics)


def test_deeply_nested_expression_is_reported_on_its_line():
    line = "values = " + " + ".join(["x1"] * 1000)
    text = MINIMAL.replace("values = x1", line)
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert diag.line == _diag_line(text, line)
    assert "bad boundary expression" in diag.message
    assert "expression nested too deeply" in diag.message


def test_unknown_mode_and_missing_keys():
    with pytest.raises(SpecError, match="unknown mode"):
        parse_problem("mode = wiggle")
    with pytest.raises(SpecError) as err:
        parse_problem("mode = solve")
    msgs = " ".join(d.message for d in err.value.diagnostics)
    assert "resolution" in msgs and "weight" in msgs and "boundary" in msgs


HALFSPACE = """
mode = halfspace

[weight]
kind = gaussian
alpha = 1.0

[halfspace]
radii = 2 4 8
spacing = 0.25
window = 0 1 ; 0 1
function = exp(-(x1^2 + x2^2))
"""


def test_halfspace_spec():
    spec = parse_problem(HALFSPACE)
    assert spec.radii == (2.0, 4.0, 8.0)
    assert spec.spacing == 0.25
    assert spec.window == ((0.0, 1.0), (0.0, 1.0))
    assert spec.halfspace_fn.ncomp == 1


def test_sphere_spec_rejects_weight_section():
    text = """
mode = sphere

[domain]
kind = box
extents = 0 1
resolution = 11

[weight]
kind = gaussian
alpha = 1.0

[boundary]
values = cos(x1), sin(x1), 0
"""
    with pytest.raises(SpecError, match="chart weight"):
        parse_problem(text)


def test_masked_domain_and_tensor():
    text = """
mode = solve

[domain]
kind = masked_box
extents = -1 1 ; -1 1
resolution = 9 9
mask = x1^2 + x2^2 <= 1

[weight]
kind = sphere_chart
beta = 2.0

[boundary]
values = x1 * x2

[tensor]
diagonal = 1 ; 1 + x1^2

[solver]
tol_pg = 1e-9
max_iters = 1234
box_bound = 2.5
"""
    spec = parse_problem(text)
    assert spec.domain.mask is not None
    assert spec.tensor is not None
    assert spec.solver.tol_pg == 1e-9
    assert spec.solver.max_iters == 1234
    assert np.array_equal(spec.box_bound, [2.5])


def _diag_line(text, needle):
    return text.splitlines().index(needle) + 1


def test_solver_diagnostic_names_the_failing_key_line():
    text = MINIMAL + "\n[solver]\nmax_iters = 100\nbox_bound = 2\ntol_pg = -1\n"
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert "tol_pg" in diag.message
    assert diag.line == _diag_line(text, "tol_pg = -1")

    text = MINIMAL + "\n[solver]\ntol_pg = -1\nbox_bound = 2\nmax_iters = 0\n"
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    lines = sorted(d.line for d in err.value.diagnostics)
    assert lines == [_diag_line(text, "tol_pg = -1"), _diag_line(text, "max_iters = 0")]


def test_removed_step_rule_keys_are_unknown():
    text = MINIMAL + "\n[solver]\nstep_rule = fixed\n"
    with pytest.raises(SpecError, match="unknown key \\[solver\\] 'step_rule'"):
        parse_problem(text)


ORACLE = MINIMAL.replace("mode = solve", "mode = oracle")
GRADCHECK = MINIMAL.replace("mode = solve", "mode = gradcheck").replace(
    "[boundary]\nvalues = x1\n", "")


@pytest.mark.parametrize(
    "text, line, message",
    [
        (ORACLE + "\n[source]\n", "damping = abc", "bad damping 'abc'"),
        (GRADCHECK + "\n[gradcheck]\n", "components = two", "bad component count 'two'"),
        (GRADCHECK + "\n[gradcheck]\n", "components = 0", "components must be >= 1"),
        (GRADCHECK + "\n[gradcheck]\n", "step = tiny", "bad gradcheck step 'tiny'"),
        (ORACLE + "\n[source]\n", "damping = 2", "damping must lie in (0, 1]"),
        (HALFSPACE.replace("spacing = 0.25\n", ""), "spacing = 0", "spacing must be positive"),
    ],
    ids=["damping", "components", "components_zero", "step", "damping_range",
         "spacing_zero"],
)
def test_numeric_keys_report_spec_errors(text, line, message):
    text = text + line + "\n"
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert message in diag.message
    assert diag.line == _diag_line(text, line)


def test_duplicate_key_is_refused_on_its_own_line():
    text = MINIMAL.replace("resolution = 9 9", "resolution = 9 9\nresolution = 17 17")
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    first = _diag_line(text, "resolution = 9 9")
    assert diag.line == _diag_line(text, "resolution = 17 17")
    assert diag.message == f"duplicate key [domain] 'resolution'; first set on line {first}"


def test_bad_value_is_reported_on_its_own_line():
    text = MINIMAL.replace("kind = box", "kind = half_ball").replace(
        "extents = 0 1 ; 0 1", "radius = abc"
    )
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert diag.line == _diag_line(text, "radius = abc")
    assert "bad radius 'abc'" in diag.message


def test_missing_key_is_reported_at_its_section_header():
    text = MINIMAL.replace("extents = 0 1 ; 0 1\n", "").replace("kind = box\n", "")
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert diag.message == "box domain needs extents"
    assert diag.line == _diag_line(text, "[domain]")


_PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
_README_RUNS = {
    path: mode
    for mode, path in re.findall(
        r"^quasimin (\w+) +--spec (problems/\S+\.cfg)",
        (_PROBLEMS.parent / "README.md").read_text(),
        flags=re.M,
    )
}


@pytest.mark.parametrize("path", sorted(p.name for p in _PROBLEMS.glob("*.cfg")))
def test_shipped_examples_parse_in_their_readme_mode(path):
    spec = parse_problem((_PROBLEMS / path).read_text())
    assert spec.mode == _README_RUNS[f"problems/{path}"]


# the [domain] and [weight] kinds share one table, and so their wording
@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("kind = gaussian", "kind = nope", "kind = nope",
         "bad weight kind 'nope': expected one of gaussian, sphere_chart, constant"),
        ("kind = box", "kind = disk", "kind = disk",
         "bad domain kind 'disk': expected one of box, masked_box, half_ball"),
        ("alpha = 1.0", "alpha = -1", "kind = gaussian", "gaussian weight requires alpha > 0"),
        ("kind = gaussian\nalpha = 1.0", "kind = sphere_chart\nbeta = 0", "kind = sphere_chart",
         "sphere_chart weight requires beta > 0"),
        ("alpha = 1.0\n", "", "kind = gaussian", "gaussian weight needs alpha"),
        ("kind = gaussian\nalpha = 1.0", "kind = sphere_chart", "kind = sphere_chart",
         "sphere_chart weight needs beta"),
        ("kind = box\nextents = 0 1 ; 0 1", "kind = half_ball\nradius = 0", "kind = half_ball",
         "half_ball requires radius > 0"),
        ("kind = box\nextents = 0 1 ; 0 1", "kind = half_ball", "kind = half_ball",
         "half_ball domain needs radius"),
        ("kind = box\nextents = 0 1 ; 0 1", "kind = masked_box", "kind = masked_box",
         "masked_box domain needs extents and mask"),
        ("extents = 0 1 ; 0 1", "extents = 1 0 ; 0 1", "kind = box",
         "degenerate extent (1.0, 0.0)"),
    ],
    ids=["unknown_weight", "unknown_domain", "alpha_negative", "beta_zero", "no_alpha",
         "no_beta", "radius_zero", "no_radius", "no_extents_mask", "degenerate"],
)
def test_a_kind_refuses_on_one_line(old, new, line, message):
    text = MINIMAL.replace(old, new)
    with pytest.raises(SpecError) as err:
        parse_problem(text)
    (diag,) = err.value.diagnostics
    assert diag.message == message
    assert diag.line == _diag_line(text, line)


@pytest.mark.parametrize("keys, label, shift", [
    ("", "constant(0.0)", 0.0), ("value = 3\n", "constant(3.0)", 3.0),
    ("value = 3\nshift = 0.25\n", "constant(3.0)", 3.25)])
def test_constant_value_is_the_shift(keys, label, shift):
    spec = parse_problem(MINIMAL.replace("kind = gaussian\nalpha = 1.0\n",
                                         f"kind = constant\n{keys}"))
    assert spec.weight.label == label
    assert spec.weight.shift == shift
    assert spec.weight.f_total(np.zeros((2, 1))).tolist() == [shift, shift]


def test_half_ball_spec_takes_its_rank_from_the_resolution():
    text = MINIMAL.replace("kind = box\nextents = 0 1 ; 0 1\nresolution = 9 9",
                           "kind = half_ball\nradius = 2\nresolution = 9 9 5")
    spec = parse_problem(text)
    assert spec.domain.extents == ((-2.0, 2.0), (-2.0, 2.0), (0.0, 2.0))
    assert spec.domain.membership(np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -1.0]])).tolist() == [
        True, False]
