import numpy as np
import pytest

from quasimin import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    DomainSpec,
    Field,
    build_grid,
    restrict,
    sample_boundary,
)
from quasimin.grids import BoundaryData, Grid, _classify


def test_box_5x5_counts():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (5, 5))
    assert g.num_interior == 9
    assert g.num_boundary == 16
    assert g.num_nodes == 25


def test_field_and_boundary_data_leave_the_callers_array_writable():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (5, 5))
    vals = np.zeros(g.dims + (1,))
    bvals = np.zeros(g.num_boundary)
    f, bd = Field(g, vals), BoundaryData(g, bvals)
    vals[1, 1, 0] = bvals[0] = 1.0
    assert f.values[1, 1, 0] == 0.0 and bd.values[0, 0] == 0.0
    assert not f.values.flags.writeable and not bd.values.flags.writeable


def test_interval_3_nodes():
    g = build_grid(DomainSpec.box([(0, 1)]), (3,))
    assert g.num_interior == 1
    assert g.num_boundary == 2


def test_half_ball_classification():
    g = build_grid(DomainSpec.half_ball(1.0, 2), (5, 3))
    # only (0, 0.5) is in-disk, off the hull, and away from exterior nodes
    assert g.num_interior == 1
    assert g.node_class[2, 1] == INTERIOR
    # corner of the bounding box lies outside the disk
    assert g.node_class[0, 2] == EXTERIOR
    # in-domain node next to an exterior one is boundary
    assert g.node_class[1, 1] == BOUNDARY


def test_half_ball_is_a_box_with_a_predicate():
    dom = DomainSpec.half_ball(2.0, 2)
    assert dom.extents == ((-2.0, 2.0), (0.0, 2.0))
    # a relative 1e-12 on |x|^2 and an absolute 1e-12 R below x_n = 0
    pts = np.array([[0.0, 2.0 * (1 + 4e-13)], [0.0, 2.0 * (1 + 1e-12)],
                    [1.0, -1e-12], [1.0, -3e-12]])
    assert dom.membership(pts).tolist() == [True, False, True, False]
    assert DomainSpec.box([(0, 1)]).mask is None


def test_classes_partition_and_determinism():
    dom = DomainSpec.masked_box(
        [(-1, 1), (-1, 1)], lambda p: np.sum(p * p, axis=-1) <= 1.0 + 1e-12
    )
    g1 = build_grid(dom, (17, 17))
    g2 = build_grid(dom, (17, 17))
    assert np.array_equal(g1.node_class, g2.node_class)
    counts = [(g1.node_class == c).sum() for c in (INTERIOR, BOUNDARY, EXTERIOR)]
    assert sum(counts) == g1.num_nodes


def test_interior_neighbors_never_exterior():
    dom = DomainSpec.half_ball(1.0, 2)
    g = build_grid(dom, (9, 5))
    cls = g.node_class
    for idx in np.argwhere(g.interior_mask):
        for ax in range(2):
            for sgn in (-1, 1):
                nb = idx.copy()
                nb[ax] += sgn
                assert cls[tuple(nb)] != EXTERIOR


def _classify_per_node(in_dom):
    """The staircase rule, node by node."""
    cls = np.full(in_dom.shape, EXTERIOR, dtype=np.int8)
    for idx in np.ndindex(*in_dom.shape):
        if not in_dom[idx]:
            continue
        on_hull = any(i in (0, d - 1) for i, d in zip(idx, in_dom.shape))
        near_ext = any(
            not in_dom[idx[:ax] + (idx[ax] + s,) + idx[ax + 1:]]
            for ax in range(in_dom.ndim) for s in (-1, 1)
            if 0 <= idx[ax] + s < in_dom.shape[ax]
        )
        cls[idx] = BOUNDARY if on_hull or near_ext else INTERIOR
    return cls


@pytest.mark.parametrize(
    "shape",
    [(3,), (9,), (3, 3), (5, 8), (3, 7), (3, 3, 3), (4, 5, 6), (3, 6, 4)],
)
@pytest.mark.parametrize("density", [0.5, 0.85, 1.0])
def test_classify_matches_the_per_node_rule(shape, density):
    rng = np.random.default_rng([*shape, int(100 * density)])
    for _ in range(20):
        in_dom = rng.random(shape) < density
        assert np.array_equal(_classify(in_dom), _classify_per_node(in_dom))


def test_build_grid_errors():
    with pytest.raises(ValueError):
        DomainSpec.box([(0, 0)])
    with pytest.raises(ValueError, match="resolution"):
        build_grid(DomainSpec.box([(0, 1)]), (2,))
    tiny = DomainSpec.masked_box([(0, 1)], lambda p: p[..., 0] < -1)
    with pytest.raises(ValueError, match="interior"):
        build_grid(tiny, (5,))


@pytest.mark.parametrize("spacing, origin, message", [
    ((0.5, 0.0), (0.0, 0.0), "spacing must be finite and positive"),
    ((0.5, -0.5), (0.0, 0.0), "spacing must be finite and positive"),
    ((np.nan, 0.5), (0.0, 0.0), "spacing must be finite and positive"),
    ((np.inf, 0.5), (0.0, 0.0), "spacing must be finite and positive"),
    ((0.5, 0.5), (np.nan, 0.0), "origin must be finite"),
    ((0.5, 0.5), (0.0, -np.inf), "origin must be finite"),
], ids=["zero", "negative", "nan", "inf", "nan_origin", "inf_origin"])
def test_grid_refuses_spacing_and_origin_that_are_not_finite(spacing, origin, message):
    with pytest.raises(ValueError, match=message):
        Grid((3, 3), spacing, origin, np.zeros((3, 3), np.int8))


def test_sample_boundary_constant_vector():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (5, 5))
    bd = sample_boundary(g, lambda p: np.array([1.0, 0.0]))
    assert bd.values.shape == (16, 2)
    assert np.array_equal(bd.values, np.tile([1.0, 0.0], (16, 1)))


def test_sample_boundary_endpoint_values():
    g = build_grid(DomainSpec.box([(0, 1)]), (3,))
    bd = sample_boundary(g, lambda p: p[:, 0])
    assert sorted(bd.values[:, 0]) == [0.0, 1.0]


def test_sample_boundary_unit_circle_values():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))

    def expr(p):
        # arclength angle along the square's perimeter
        theta = 2 * np.pi * (p[:, 0] + p[:, 1])  # any smooth angle works here
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    bd = sample_boundary(g, expr)
    norms = np.linalg.norm(bd.values, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_sample_boundary_nonfinite_rejected():
    g = build_grid(DomainSpec.box([(0, 1)]), (5,))
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            sample_boundary(g, lambda p: 1.0 / (p[:, 0] - p[:, 0]))


def test_hold_writes_the_data_and_zero_and_keeps_the_interior():
    g = build_grid(DomainSpec.half_ball(1.0, 2), (9, 5))
    bd = sample_boundary(g, lambda p: np.stack([p[:, 0], 1.0 + p[:, 1]], axis=-1))
    vals = np.random.default_rng(3).uniform(-1, 1, g.dims + (2,))
    before = vals.copy()
    assert bd.hold(vals) is vals
    assert np.array_equal(vals[g.boundary_mask], bd.values)
    assert not vals[~g.in_mask].any()
    assert np.array_equal(vals[g.interior_mask], before[g.interior_mask])
    with pytest.raises(ValueError, match="C-contiguous"):
        bd.hold(np.zeros((2,) + g.dims)[:, ::-1].transpose(1, 2, 0))


def test_field_reads_its_component_count_and_refuses_bad_values():
    g = build_grid(DomainSpec.half_ball(1.0, 2), (9, 5))
    for ncomp in (1, 3):
        assert Field(g, np.zeros(g.dims + (ncomp,))).ncomp == ncomp
    # exterior nodes may hold anything; in-domain nodes must be finite
    vals = np.zeros(g.dims + (2,))
    vals[~g.in_mask] = np.nan
    assert (~g.in_mask).any() and Field(g, vals).ncomp == 2
    for bad in (np.zeros(g.dims), np.zeros((9, 4, 1)), np.zeros((5, 9, 1)),
                np.zeros(g.dims + (1, 1))):
        with pytest.raises(ValueError, match="field shape"):
            Field(g, bad)
    vals[tuple(np.argwhere(g.interior_mask)[0])] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Field(g, vals)


def test_restrict_full_box_identity():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    f = Field(g, np.arange(81, dtype=float).reshape(9, 9)[..., None])
    r = restrict(f, [(0, 1), (0, 1)])
    assert np.array_equal(r.values, f.values)
    assert np.array_equal(r.grid.node_class, g.node_class)


def test_restrict_constant_and_values():
    g = build_grid(DomainSpec.box([(0, 1)]), (5,))
    const = Field(g, np.full(5, 3.25)[..., None])
    r = restrict(const, [(0.25, 0.75)])
    assert np.all(r.values == 3.25)

    lin = Field(g, g.axis_coords()[0][..., None])
    r2 = restrict(lin, [(0, 0.5)])
    assert np.allclose(r2.values[:, 0], [0.0, 0.25, 0.5])


def test_restrict_composes():
    g = build_grid(DomainSpec.box([(0, 1), (0, 1)]), (9, 9))
    rng = np.random.default_rng(3)
    f = Field(g, rng.standard_normal((9, 9))[..., None])
    outer = restrict(f, [(0, 0.75), (0.25, 1.0)])
    inner_direct = restrict(f, [(0.25, 0.5), (0.5, 0.75)])
    inner_nested = restrict(outer, [(0.25, 0.5), (0.5, 0.75)])
    assert np.array_equal(inner_direct.values, inner_nested.values)
    assert inner_direct.grid.dims == inner_nested.grid.dims


def test_restrict_misaligned_window():
    g = build_grid(DomainSpec.box([(0, 1)]), (5,))
    f = Field(g, np.zeros(g.dims + (1,)))
    with pytest.raises(ValueError, match="aligned"):
        restrict(f, [(0.1, 0.6)])


def test_restrict_window_outside_grid():
    g = build_grid(DomainSpec.box([(0, 1)]), (5,))
    f = Field(g, np.zeros(g.dims + (1,)))
    with pytest.raises(ValueError, match="outside"):
        restrict(f, [(0.5, 1.25)])
