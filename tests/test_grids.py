"""Cell-centered grid construction and its guard rails."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hardyheat.errors import ConfigError
from hardyheat.grids import build_grid


def test_interval_grid_basics():
    g = build_grid((-1.0, 1.0), 0.01)
    assert g.dim == 1
    assert g.n == 200
    assert g.h == 0.01
    assert g.cell_volume == 0.01
    assert g.bounds == ((-1.0, 1.0),)
    assert_allclose(g.nodes[0], -0.995)
    assert_allclose(g.nodes[-1], 0.995)
    assert_allclose(np.diff(g.nodes), 0.01)


@pytest.mark.parametrize("h", [0.01, 0.005, 0.0025, 0.05, 1.0 / 12.0])
def test_mirror_axis_nodes_are_exact_mirror_images(h):
    # a + (i + 0.5) h misses the mirror image by an ulp on each of these but
    # 1/12; the grid moves such nodes by at most an ulp to make them exact
    g = build_grid((-1.0, 1.0), h)
    assert g.mirror_axes == (0,)
    assert np.array_equal(g.nodes[::-1], -g.nodes)
    naive = -1.0 + (np.arange(g.n) + 0.5) * h
    assert np.all(np.abs(g.nodes - naive) <= np.spacing(1.0))



@pytest.mark.parametrize("h", [0.05, 1.0 / 12.0])
def test_box_mirror_axes(h):
    box = build_grid([(-1.0, 1.0), (-0.5, 1.0)], h)
    assert box.mirror_axes == (0,)
    xs, ys = (box.nodes[:, k].reshape(box.shape) for k in range(2))
    assert np.array_equal(xs[::-1], -xs)
    # an axis without a mirror keeps the sum a + (i + 0.5) h
    assert np.array_equal(ys[0], -0.5 + (np.arange(box.shape[1]) + 0.5) * h)


def test_no_node_at_origin():
    g = build_grid((-1.0, 1.0), 0.25)
    assert g.radii.min() == pytest.approx(0.125)
    assert np.all(g.radii > 0)


def test_asymmetric_interval():
    g = build_grid((-0.5, 1.5), 0.25)
    assert g.n == 8
    assert g.half_width == 1.5
    assert np.all((g.nodes > -0.5) & (g.nodes < 1.5))


def test_box_grid_basics():
    g = build_grid([(-1.0, 1.0), (-0.5, 0.5)], 0.25)
    assert g.dim == 2
    assert g.n == 8 * 4
    assert g.nodes.shape == (32, 2)
    assert g.cell_volume == pytest.approx(0.0625)
    assert_allclose(g.radii, np.sqrt(np.sum(g.nodes**2, axis=1)))
    assert g.radii.min() >= 0.5 * 0.25


def test_rejects_bad_spacing():
    with pytest.raises(ConfigError):
        build_grid((-1.0, 1.0), 0.3)  # does not tile
    with pytest.raises(ConfigError):
        build_grid((-1.0, 1.0), 0.0)
    with pytest.raises(ConfigError):
        build_grid((-1.0, 1.0), -0.1)
    with pytest.raises(ConfigError):
        build_grid((-1.0, 1.0), float("nan"))


def test_rejects_odd_cell_count():
    # 3 cells would put a node exactly at a position determined by parity;
    # the even-count rule keeps the origin between two nodes
    with pytest.raises(ConfigError):
        build_grid((-0.75, 0.75), 0.5)


def test_rejects_domain_without_origin():
    with pytest.raises(ConfigError):
        build_grid((0.5, 1.5), 0.25)
    with pytest.raises(ConfigError):
        build_grid((-2.0, -1.0), 0.25)


def test_rejects_unbounded_or_empty():
    with pytest.raises(ConfigError):
        build_grid((1.0, -1.0), 0.25)
    with pytest.raises(ConfigError):
        build_grid((-np.inf, 1.0), 0.25)


def test_rejects_three_axes():
    with pytest.raises(ConfigError):
        build_grid([(-1, 1), (-1, 1), (-1, 1)], 0.5)


def test_dense_limits():
    with pytest.raises(ConfigError):
        build_grid((-1.0, 1.0), 2.0 / 5000)  # too many nodes
    for h in (1e-300, 5e-324):  # refused before allocating; 2 / 5e-324 is inf
        with pytest.raises(ConfigError, match="dense-assembly limit"):
            build_grid((-1.0, 1.0), h)
    with pytest.raises(ConfigError):
        build_grid([(-1.0, 1.0), (-1.0, 1.0)], 0.02)  # 100 x 100 nodes
    for h in (1e-300, 5e-324):  # the node count over both axes is inf
        with pytest.raises(ConfigError, match="dense-assembly limit"):
            build_grid([(-1.0, 1.0), (-1.0, 1.0)], h)
    # 20,000 cells on one axis: refused even though the other holds under one
    with pytest.raises(ConfigError, match="dense-assembly limit"):
        build_grid([(-100.0, 100.0), (-1e-4, 1e-4)], 0.01)


def test_one_node_limit_for_every_grid():
    # the limit counts nodes over all axes, whatever their split
    square = build_grid([(-1.0, 1.0), (-1.0, 1.0)], 1 / 32)
    assert square.n == 64 * 64 == 4096
    assert square.nodes.shape == (4096, 2)
    oblong = build_grid([(-1.0, 1.0), (-0.5, 0.5)], 1 / 40)
    assert oblong.n == 80 * 40


def test_planar_grid_past_the_node_limit_is_refused_before_its_nodes_exist(monkeypatch):
    def meshgrid(*args, **kwargs):
        raise AssertionError("a node array was built")

    monkeypatch.setattr(np, "meshgrid", meshgrid)
    with pytest.raises(ConfigError, match="4356 nodes, past the dense-assembly limit"):
        build_grid([(-1.0, 1.0), (-1.0, 1.0)], 1 / 33)  # 66 x 66


def test_rejects_origin_inside_a_cell():
    # asymmetric span whose cells straddle 0 off-center: a node lands too
    # close to the origin and the builder must refuse
    with pytest.raises(ConfigError):
        build_grid((-1.0, 0.5), 0.375)


@given(
    ka=st.integers(1, 30),
    kb=st.integers(1, 30),
    h=st.floats(0.01, 0.5),
)
@settings(max_examples=60, deadline=None)
def test_nodes_stay_inside_and_off_origin(ka, kb, h):
    if (ka + kb) % 2 == 1:
        kb += 1
    a, b = -ka * h, kb * h
    g = build_grid((a, b), h)
    assert g.n == ka + kb
    assert np.all((g.nodes > a) & (g.nodes < b))
    # closest approach to the boundary and the origin is half a cell
    assert np.min(g.nodes - a) == pytest.approx(0.5 * h)
    assert np.min(b - g.nodes) == pytest.approx(0.5 * h)
    assert g.radii.min() >= 0.5 * h * (1.0 - 1e-9)
