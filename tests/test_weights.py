import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasimin import (
    constant,
    custom,
    gaussian,
    sphere_chart,
    validate_weight,
)

finite_coords = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


def test_gaussian_closed_form():
    w = gaussian(1.0)
    U = np.array([1.0, 0.0])
    f, fp, g = w.f_total(U), w.fprime(U), w.g_value(U)
    assert f == -1.0
    assert np.allclose(fp, [-2.0, 0.0])
    assert g == 2.0


def test_sphere_chart_closed_form():
    w = sphere_chart(2.0)
    U = np.array([1.0, 0.0])
    f, fp, g = w.f_total(U), w.fprime(U), w.g_value(U)
    assert f == pytest.approx(0.0, abs=1e-15)  # -2 log 1
    assert g == pytest.approx(2.0)
    assert np.allclose(fp, [-2.0, 0.0])


@pytest.mark.parametrize("ncomp", range(1, 8))
def test_named_weights_sum_squares_as_np_sum_does(ncomp):
    # |U|^2 summed column by column has the bits of np.sum below 8 columns
    U = 3.0 * np.random.default_rng(ncomp).standard_normal((5, 4, ncomp))
    sq = np.sum(U * U, axis=-1)
    assert np.array_equal(gaussian(1.7).f_base(U), -1.7 * sq)
    assert np.array_equal(gaussian(1.7).g_value(U), np.full(sq.shape, 3.4))
    w = sphere_chart(2.0)
    assert np.array_equal(w.f_base(U), -2.0 * np.log(0.5 * (1.0 + sq)))
    assert np.array_equal(w.g_value(U), 4.0 / (1.0 + sq))


def test_constant_weight():
    w = constant(0.0)
    U = np.array([3.0, -4.0])
    f, fp, g = w.f_total(U), w.fprime(U), w.g_value(U)
    assert f == 0.0 and g == 0.0
    assert np.all(fp == 0.0)


def test_fprime_zero_at_origin():
    for w in (gaussian(2.0), sphere_chart(1.5), constant(1.0)):
        assert np.all(w.fprime(np.zeros(3)) == 0.0)


@given(
    st.lists(finite_coords, min_size=1, max_size=4),
    st.sampled_from(["gaussian", "sphere_chart"]),
)
@settings(max_examples=200, deadline=None)
def test_structural_identity_exact(coords, kind):
    # f'(U) + U g(U) = 0 holds exactly, by construction
    w = gaussian(0.7) if kind == "gaussian" else sphere_chart(2.0)
    U = np.array(coords)
    fp, g = w.fprime(U), w.g_value(U)
    assert np.all(fp + U * g == 0.0)


@given(finite_coords, st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_shift_changes_only_f(u, delta):
    w = gaussian(1.0)
    ws = w.shifted(delta)
    U = np.array([u])
    f0, fp0, g0 = w.f_total(U), w.fprime(U), w.g_value(U)
    f1, fp1, g1 = ws.f_total(U), ws.fprime(U), ws.g_value(U)
    assert f1 == pytest.approx(f0 + delta, rel=0, abs=1e-12 * (1 + abs(f0) + abs(delta)))
    assert np.array_equal(fp0, fp1)
    assert g0 == g1


def test_named_gradients_at_many_points():
    rng = np.random.default_rng(2024)
    U = rng.uniform(-5, 5, size=(10**6, 2))
    for w, closed in (
        (gaussian(1.3), lambda U: -2 * 1.3 * U),
        (sphere_chart(2.0), lambda U: -4 * U / (1 + np.sum(U * U, axis=-1))[:, None]),
    ):
        fp = w.fprime(U)
        ref = closed(U)
        scale = np.maximum(np.abs(ref), 1e-30)
        assert (np.abs(fp - ref) / scale).max() <= 1e-12


def test_validate_weight_reports():
    rep = validate_weight(gaussian(1.0), [2.0, 2.0], samples=11)
    assert rep.min_g == 2.0 and rep.ok

    rep0 = validate_weight(constant(0.0), [1.0], samples=5)
    assert rep0.min_g == 0.0 and not rep0.ok

    rep_s = validate_weight(sphere_chart(2.0), [1.0, 1.0], samples=41)
    assert rep_s.min_g == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep_s.ok


def test_custom_weight_uses_supplied_g():
    w = custom(
        f=lambda U: -np.sum(U**4, axis=-1) / 2.0,
        g=lambda U: 2.0 * np.sum(U * U, axis=-1),
        label="quartic",
    )
    U = np.array([0.5, -1.5])
    fp, g = w.fprime(U), w.g_value(U)
    assert g == pytest.approx(2 * (0.25 + 2.25))
    assert np.array_equal(fp, -U * g)
