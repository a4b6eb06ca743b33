"""Radial scales, sinusoidal coordinate features, and the FC front end."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextloc.geoenc import FCNet, GeoPoint, GridSpec, grid_pe, grid_pe_batch, scale_radii
from nextloc.numcore import ParameterStore, ShapeError, backward, finite_difference_check, tmean, mul

finite_coord = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def test_scale_radii_paper_preset_endpoints_exact():
    radii = scale_radii(GridSpec(0.01, 10.0, 32))
    assert radii[0] == 0.01
    assert radii[-1] == 10.0
    assert len(radii) == 32


def test_scale_radii_two_scales_is_endpoints():
    np.testing.assert_array_equal(scale_radii(GridSpec(1.0, 1000.0, 2)), [1.0, 1000.0])


def test_scale_radii_three_scales_geometric():
    np.testing.assert_allclose(scale_radii(GridSpec(1.0, 100.0, 3)), [1.0, 10.0, 100.0], rtol=1e-12)


def test_scale_radii_strictly_increasing():
    radii = scale_radii(GridSpec(0.01, 10.0, 32))
    assert np.all(np.diff(radii) > 0)


@pytest.mark.parametrize("r_min,r_max,s", [(1.0, 1.0, 4), (2.0, 1.0, 4), (-1.0, 5.0, 4), (1.0, 5.0, 1)])
def test_grid_spec_rejects_bad_parameters(r_min, r_max, s):
    with pytest.raises(ValueError):
        GridSpec(r_min, r_max, s)


def test_grid_spec_radii_are_floats():
    # an integer radius (gowalla-ld's r_min of 1) is written to configs and checkpoints as 1.0
    spec = GridSpec(1, 1000, 32)
    assert asdict(spec) == {"r_min": 1.0, "r_max": 1000.0, "n_scales": 32}
    assert all(type(r) is float for r in (spec.r_min, spec.r_max))


def test_geopoint_rejects_non_finite():
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)


def test_grid_pe_origin_pattern():
    spec = GridSpec(0.5, 8.0, 5)
    out = grid_pe(GeoPoint(0.0, 0.0), spec)
    np.testing.assert_array_equal(out, np.tile([1.0, 0.0, 1.0, 0.0], 5))


def test_grid_pe_length_is_4s():
    assert grid_pe(GeoPoint(1.0, 2.0), GridSpec(0.01, 10.0, 32)).shape == (128,)


def test_grid_pe_first_block_quarter_turn():
    spec = GridSpec(2.0, 16.0, 2)
    out = grid_pe(GeoPoint(2.0 * math.pi / 2.0, 0.0), spec)
    np.testing.assert_allclose(out[:4], [0.0, 1.0, 1.0, 0.0], atol=1e-12)


@given(finite_coord, finite_coord)
@settings(max_examples=60, deadline=None)
def test_grid_pe_bounded_by_one(x, y):
    out = grid_pe(GeoPoint(x, y), GridSpec(0.01, 10.0, 8))
    assert np.max(np.abs(out)) <= 1.0 + 1e-15


@given(finite_coord, finite_coord, st.integers(min_value=0, max_value=7))
@settings(max_examples=40, deadline=None)
def test_grid_pe_periodic_per_scale(x, y, s):
    spec = GridSpec(0.05, 20.0, 8)
    alpha = scale_radii(spec)[s]
    base = grid_pe(GeoPoint(x, y), spec)
    shifted = grid_pe(GeoPoint(x + 2.0 * math.pi * alpha, y), spec)
    np.testing.assert_allclose(shifted[4 * s : 4 * s + 2], base[4 * s : 4 * s + 2], atol=1e-9)
    # the y components of scale s never move
    np.testing.assert_allclose(shifted[4 * s + 2 : 4 * s + 4], base[4 * s + 2 : 4 * s + 4], atol=1e-9)


def test_grid_pe_batch_matches_single():
    spec = GridSpec(0.1, 5.0, 4)
    pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
    batch = grid_pe_batch(pts, spec)
    np.testing.assert_array_equal(batch[0], grid_pe(GeoPoint(1.0, 2.0), spec))
    np.testing.assert_array_equal(batch[1], grid_pe(GeoPoint(-3.0, 0.5), spec))


def test_grid_pe_batch_rejects_bad_shape():
    with pytest.raises(ShapeError):
        grid_pe_batch(np.ones((3, 3)), GridSpec(0.1, 5.0, 4))


# ---------------------------------------------------------------------------
# FC net


def make_net(in_dim=16, out_dim=6, hidden=32, seed=0):
    store = ParameterStore()
    net = FCNet(in_dim, out_dim, store, np.random.default_rng(seed), hidden=hidden)
    return net, store


def test_fcnet_deterministic():
    net, _ = make_net()
    x = np.random.default_rng(1).standard_normal((3, 16))
    np.testing.assert_array_equal(net.forward(x).data, net.forward(x).data)


def test_fcnet_output_dim_default_config():
    store = ParameterStore()
    spec = GridSpec(0.01, 10.0, 32)
    net = FCNet(spec.feature_dim, 128, store, np.random.default_rng(0))
    out = net.forward(grid_pe(GeoPoint(1.0, 2.0), spec)).data
    assert out.shape == (1, 128)
    assert np.all(np.isfinite(out))


def test_fcnet_zero_final_layer_gives_zero_output():
    net, store = make_net()
    store["fcnet.w3"].data[:] = 0.0
    store["fcnet.b3"].data[:] = 0.0
    out = net.forward(np.ones((2, 16))).data
    np.testing.assert_array_equal(out, np.zeros((2, 6)))


def test_fcnet_rejects_dimension_mismatch():
    net, _ = make_net(in_dim=16)
    with pytest.raises(ShapeError):
        net.forward(np.ones((2, 8)))


def test_fcnet_gradients_pass_finite_difference():
    net, store = make_net(in_dim=8, out_dim=4, hidden=12, seed=3)
    x = np.random.default_rng(4).standard_normal((5, 8))

    def build():
        out = net.forward(x)
        return tmean(mul(out, out))

    report = finite_difference_check(build, store)
    assert report.ok(), f"max rel err {report.max_rel_error}"


def test_fcnet_continuity_in_coordinates():
    # embedding change shrinks linearly as the coordinate perturbation does
    spec = GridSpec(0.1, 10.0, 8)
    store = ParameterStore()
    net = FCNet(spec.feature_dim, 16, store, np.random.default_rng(7))
    base = net.forward(grid_pe(GeoPoint(1.0, 2.0), spec)).data
    deltas = [1e-2, 1e-3, 1e-4]
    moves = []
    for d in deltas:
        out = net.forward(grid_pe(GeoPoint(1.0 + d, 2.0), spec)).data
        moves.append(np.linalg.norm(out - base))
    assert moves[0] > moves[1] > moves[2]
    assert moves[1] / moves[0] < 0.2 and moves[2] / moves[1] < 0.2
