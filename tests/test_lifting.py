"""Lifting tests.

The ground truth here is an independent ray-plane intersection written in
plain ego coordinates (no virtual frame): a pixel's ray starts at the
camera center, points along the rotated reference direction, and meets
the plane z = h where the ray's z coordinate says so.  The production
code must agree with that everywhere it is defined.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift.binning import BinSpec
from bevlift.errors import (
    AboveCamera,
    ConfigError,
    HorizonRay,
    NonPositiveDepth,
    ShapeMismatch,
)
from bevlift.geometry import CameraRig, Intrinsics, extrinsics_from_pose, pixel_to_ref_cam
from bevlift.lifting import (
    ContextMap,
    DistributionMap,
    FusedMap,
    WedgeCloud,
    build_wedge,
    build_wedge_depth,
    cell_pixel_centers,
    fuse,
    lift_many_depth,
    lift_many_height,
    lift_pixel_depth,
    lift_pixel_height,
    lift_pixel_height_composed,
)
from strategies import descending_pixel_st, rig_st

INTR_1000 = Intrinsics(1000.0, 1000.0, 768.0, 432.0, 1536, 864)


def plane_intersection_oracle(u, v, h, rig):
    """Ego-frame ray-plane intersection, independent of the virtual frame."""
    origin = rig.extrinsics.camera_center
    direction = rig.extrinsics.rotation.T @ pixel_to_ref_cam(u, v, rig.intrinsics)
    t = (h - origin[2]) / direction[2]
    return origin + t * direction


def level_rig(height=5.0, pitch_deg=0.0):
    extr = extrinsics_from_pose((0.0, 0.0, height), pitch_deg=pitch_deg)
    return CameraRig.build(INTR_1000, extr)


def steep_rig():
    """Pitched down far enough that every image ray descends."""
    return level_rig(height=6.0, pitch_deg=60.0)


class TestScalarLift:
    def test_worked_ground_point(self):
        # level camera 5 m up; pixel half a focal length below center has
        # slope 0.5, so it hits the ground 10 m out
        rig = level_rig()
        np.testing.assert_allclose(
            lift_pixel_height(768.0, 932.0, 0.0, rig), [10.0, 0.0, 0.0], atol=1e-9
        )

    def test_worked_elevated_point(self):
        # same ray, plane at 2.5 m: half the drop, half the distance
        rig = level_rig()
        np.testing.assert_allclose(
            lift_pixel_height(768.0, 932.0, 2.5, rig), [5.0, 0.0, 2.5], atol=1e-9
        )

    @given(rig_st(), st.data(), st.floats(-0.5, 1.8))
    def test_matches_plane_intersection_oracle(self, rig, data, h):
        u, v = data.draw(descending_pixel_st(rig))
        try:
            got = lift_pixel_height(u, v, h, rig)
        except HorizonRay:
            # margin-based row bound is conservative, not exact
            return
        want = plane_intersection_oracle(u, v, h, rig)
        np.testing.assert_allclose(got, want, atol=1e-8)
        assert got[2] == pytest.approx(h, abs=1e-8)

    @given(rig_st(), st.data(), st.floats(-0.5, 1.8))
    def test_composed_form_agrees(self, rig, data, h):
        u, v = data.draw(descending_pixel_st(rig))
        try:
            a = lift_pixel_height(u, v, h, rig)
        except HorizonRay:
            return
        b = lift_pixel_height_composed(u, v, h, rig)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_height_and_depth_paths_meet(self):
        # lift by height, read off the camera depth, lift by depth
        rig = level_rig(pitch_deg=20.0)
        pt = lift_pixel_height(700.0, 600.0, 0.7, rig)
        depth = rig.extrinsics.ego_to_cam(pt)[2]
        np.testing.assert_allclose(
            lift_pixel_depth(700.0, 600.0, depth, rig), pt, atol=1e-9
        )

    def test_depth_lift_worked_case(self):
        rig = level_rig()
        # center pixel straight ahead at depth 10
        np.testing.assert_allclose(
            lift_pixel_depth(768.0, 432.0, 10.0, rig), [10.0, 0.0, 5.0], atol=1e-9
        )

    def test_height_at_camera_rejected(self):
        rig = level_rig()
        with pytest.raises(AboveCamera):
            lift_pixel_height(768.0, 932.0, 5.0, rig)
        with pytest.raises(AboveCamera):
            lift_pixel_height(768.0, 932.0, 6.0, rig)

    def test_ray_above_horizon_rejected(self):
        rig = level_rig()  # level camera: upper image half looks skyward
        with pytest.raises(HorizonRay):
            lift_pixel_height(768.0, 100.0, 0.0, rig)
        with pytest.raises(HorizonRay):
            lift_pixel_height(768.0, 432.0, 0.0, rig)  # exactly at the horizon

    def test_nonpositive_depth_rejected(self):
        rig = level_rig()
        with pytest.raises(NonPositiveDepth):
            lift_pixel_depth(768.0, 432.0, 0.0, rig)
        with pytest.raises(NonPositiveDepth):
            lift_pixel_depth(768.0, 432.0, -2.0, rig)


class TestVectorizedLift:
    @given(rig_st())
    def test_many_height_matches_scalar_loop(self, rig):
        us = np.array([400.0, 760.0, 1100.0])
        vs = np.full(3, 850.0)  # bottom rows always descend for these rigs
        hs = np.array([0.0, 0.4, 1.1])
        got = lift_many_height(us, vs, hs, rig)
        want = np.stack(
            [lift_pixel_height(u, v, h, rig) for u, v, h in zip(us, vs, hs)]
        )
        # batched matmul may round differently than the per-vector path
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    @given(rig_st())
    def test_many_depth_matches_scalar_loop(self, rig):
        us = np.array([100.0, 768.0, 1400.0])
        vs = np.array([50.0, 432.0, 860.0])
        ds = np.array([2.0, 17.5, 96.0])
        got = lift_many_depth(us, vs, ds, rig)
        want = np.stack(
            [lift_pixel_depth(u, v, d, rig) for u, v, d in zip(us, vs, ds)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-9)

    def test_many_height_propagates_errors(self):
        rig = level_rig()
        with pytest.raises(HorizonRay):
            lift_many_height([768.0, 768.0], [932.0, 100.0], [0.0, 0.0], rig)
        with pytest.raises(AboveCamera):
            lift_many_height([768.0], [932.0], [5.0], rig)
        with pytest.raises(NonPositiveDepth):
            lift_many_depth([768.0], [432.0], [0.0], rig)


class TestMaps:
    def test_distribution_rows_must_normalize(self):
        data = np.full((2, 2, 4), 0.3)
        with pytest.raises(ConfigError):
            DistributionMap(2, 2, 4, data)

    def test_distribution_rejects_negative(self):
        data = np.zeros((1, 1, 2))
        data[0, 0] = [1.5, -0.5]
        with pytest.raises(ConfigError):
            DistributionMap(1, 1, 2, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_nonfinite_bin_weights(self, bad):
        data = np.full((1, 2, 2), 0.5)
        data[0, 1] = [bad, 0.5]
        with pytest.raises(ConfigError):
            DistributionMap(2, 1, 2, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_nonfinite_cell_weight(self, bad):
        with pytest.raises(ConfigError):
            DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5),
                            cell_weight=np.array([[1.0, bad]]))

    def test_cell_weight_defaults_to_ones(self):
        dist = DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5))
        np.testing.assert_array_equal(dist.cell_weight, np.ones((1, 2)))

    def test_cell_weight_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5), cell_weight=np.ones(3))

    def test_context_shape_checked(self):
        with pytest.raises(ShapeMismatch):
            ContextMap(2, 2, 3, np.zeros((2, 2, 4)))

    def test_fuse_grid_mismatch(self):
        ctx = ContextMap(2, 2, 1, np.zeros((2, 2, 1)))
        dist = DistributionMap(3, 2, 2, np.full((2, 3, 2), 0.5))
        with pytest.raises(ShapeMismatch):
            fuse(ctx, dist)


def random_fused(rng, width, height, n_bins, channels, zero_weight_frac=0.0):
    ctx = ContextMap(width, height, channels, rng.normal(size=(height, width, channels)))
    raw = rng.random((height, width, n_bins)) + 1e-3
    cw = rng.random((height, width)) + 0.1
    if zero_weight_frac:
        cw[rng.random((height, width)) < zero_weight_frac] = 0.0
    dist = DistributionMap(
        width, height, n_bins, raw / raw.sum(-1, keepdims=True), cell_weight=cw
    )
    return fuse(ctx, dist)


def wedge_loop_oracle(fused, bins, rig, stride):
    """Reference emission: row-major cells, ascending bins, skip rays that
    cannot carry height hypotheses."""
    from bevlift.binning import bin_midpoints

    mids = bin_midpoints(bins)
    positions, features, weights = [], [], []
    skipped = 0
    for r in range(fused.height):
        for c in range(fused.width):
            u, v = (c + 0.5) * stride, (r + 0.5) * stride
            try:
                pts = [lift_pixel_height(u, v, m, rig) for m in mids]
            except HorizonRay:
                skipped += 1
                continue
            positions.extend(pts)
            for b in range(bins.n_bins):
                features.append(fused.context.data[r, c])
                weights.append(fused.dist.data[r, c, b] * fused.dist.cell_weight[r, c])
    return np.asarray(positions), np.asarray(features), np.asarray(weights), skipped


class TestBuildWedge:
    def test_matches_loop_oracle(self):
        rig = steep_rig()
        rng = np.random.default_rng(11)
        fused = random_fused(rng, 6, 4, 5, 3, zero_weight_frac=0.2)
        bins = BinSpec("DID", 5, -0.2, 2.6, 1.2)
        cloud = build_wedge(fused, bins, rig, pixel_stride=16)
        pos, feat, w, skipped = wedge_loop_oracle(fused, bins, rig, 16)
        assert cloud.skipped_cells == skipped == 0
        np.testing.assert_allclose(cloud.positions, pos, atol=1e-9)
        np.testing.assert_array_equal(cloud.features, feat)
        np.testing.assert_allclose(cloud.weights, w, atol=1e-15)

    def test_skips_cells_above_horizon(self):
        # level camera: the whole top of the image is skyward, so a grid
        # there yields no points but a full skip count
        rig = level_rig()
        rng = np.random.default_rng(0)
        fused = random_fused(rng, 4, 2, 3, 2)
        cloud = build_wedge(fused, BinSpec("UD", 3, 0.0, 1.0), rig, pixel_stride=16)
        assert cloud.n_points == 0
        assert cloud.skipped_cells == 8

    def test_partial_skip_matches_oracle(self):
        # pitch 20: horizon crosses the image, some rows lift and some do
        # not
        rig = level_rig(pitch_deg=20.0)
        rng = np.random.default_rng(5)
        fused = random_fused(rng, 3, 54, 4, 2)
        bins = BinSpec("LID", 4, 0.0, 2.0)
        cloud = build_wedge(fused, bins, rig, pixel_stride=16)
        pos, feat, w, skipped = wedge_loop_oracle(fused, bins, rig, 16)
        assert 0 < skipped < 3 * 54
        assert cloud.skipped_cells == skipped
        np.testing.assert_allclose(cloud.positions, pos, atol=1e-9)
        np.testing.assert_allclose(cloud.weights, w, atol=1e-15)

    def test_weight_mass_is_sum_of_cell_weights(self):
        rng = np.random.default_rng(7)
        fused = random_fused(rng, 5, 3, 6, 1, zero_weight_frac=0.3)
        cloud = build_wedge(fused, BinSpec("UD", 6, 0.0, 2.0), steep_rig())
        assert cloud.weights.sum() == pytest.approx(
            fused.dist.cell_weight.sum(), rel=1e-12
        )

    def test_rejects_depth_spec(self, mast_rig):
        rng = np.random.default_rng(1)
        fused = random_fused(rng, 2, 2, 3, 1)
        with pytest.raises(ConfigError):
            build_wedge(fused, BinSpec("DEPTH_UD", 3, 1.0, 10.0), mast_rig)

    def test_rejects_bins_reaching_camera_height(self):
        rig = level_rig(height=5.0, pitch_deg=30.0)
        rng = np.random.default_rng(1)
        fused = random_fused(rng, 2, 2, 3, 1)
        with pytest.raises(AboveCamera):
            build_wedge(fused, BinSpec("UD", 3, 0.0, 6.0), rig)

    def test_rejects_grid_larger_than_image(self, mast_rig):
        rng = np.random.default_rng(1)
        fused = random_fused(rng, 97, 2, 3, 1)  # 97 * 16 > 1536
        with pytest.raises(ShapeMismatch):
            build_wedge(fused, BinSpec("UD", 3, 0.0, 1.0), mast_rig)


class TestBuildWedgeDepth:
    def test_matches_loop_oracle(self, mast_rig):
        rng = np.random.default_rng(2)
        fused = random_fused(rng, 4, 3, 6, 2, zero_weight_frac=0.25)
        bins = BinSpec("DEPTH_UD", 6, 1.0, 31.0)
        cloud = build_wedge_depth(fused, bins, mast_rig, pixel_stride=16)
        from bevlift.binning import bin_midpoints

        mids = bin_midpoints(bins)
        positions, weights = [], []
        for r in range(3):
            for c in range(4):
                u, v = (c + 0.5) * 16, (r + 0.5) * 16
                positions.extend(lift_pixel_depth(u, v, m, mast_rig) for m in mids)
                weights.extend(
                    fused.dist.data[r, c] * fused.dist.cell_weight[r, c]
                )
        assert cloud.n_points == 4 * 3 * 6
        assert cloud.skipped_cells == 0
        np.testing.assert_allclose(cloud.positions, np.asarray(positions), atol=1e-9)
        np.testing.assert_allclose(cloud.weights, np.asarray(weights), atol=1e-15)

    def test_rejects_height_spec(self, mast_rig):
        rng = np.random.default_rng(1)
        fused = random_fused(rng, 2, 2, 3, 1)
        with pytest.raises(ConfigError):
            build_wedge_depth(fused, BinSpec("UD", 3, 1.0, 10.0), mast_rig)


class TestWedgeCloud:
    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(ConfigError):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([bad]))

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(ConfigError):
            WedgeCloud(np.array([[np.inf, 0, 0]]), np.ones((1, 1)), np.ones(1))


def test_cell_pixel_centers_layout():
    uu, vv = cell_pixel_centers(3, 2, 16)
    assert uu.shape == (2, 3)
    np.testing.assert_allclose(uu[0], [8.0, 24.0, 40.0])
    np.testing.assert_allclose(vv[:, 0], [8.0, 24.0])
