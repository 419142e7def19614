"""Lifting tests.

The ground truth here is an independent ray-plane intersection written in
plain ego coordinates (no virtual frame): a pixel's ray starts at the
camera center, points along the rotated reference direction, and meets
the plane z = h where the ray's z coordinate says so.  The production
code must agree with that everywhere it is defined.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift import lifting
from bevlift.bevpool import GridSpec, pool
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
from bevlift.robustness import perturb_rig
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
    return CameraRig(INTR_1000, extr)


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
        with pytest.raises(ConfigError, match="^per-cell bin weights must sum to 1 within 1e-6$"):
            DistributionMap(2, 2, 4, data)

    def test_distribution_rejects_negative(self):
        data = np.zeros((1, 1, 2))
        data[0, 0] = [1.5, -0.5]
        with pytest.raises(ConfigError, match="^distribution weights must be non-negative$"):
            DistributionMap(1, 1, 2, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_nonfinite_bin_weights(self, bad):
        data = np.full((1, 2, 2), 0.5)
        data[0, 1] = [bad, 0.5]
        with pytest.raises(ConfigError, match="^per-cell bin weights must sum to 1 within 1e-6$"):
            DistributionMap(2, 1, 2, data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_distribution_rejects_nonfinite_cell_weight(self, bad):
        with pytest.raises(ConfigError, match="^cell weights must be finite$"):
            DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5),
                            cell_weight=np.array([[1.0, bad]]))

    def test_cell_weight_defaults_to_ones(self):
        dist = DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5))
        np.testing.assert_array_equal(dist.cell_weight, np.ones((1, 2)))

    def test_cell_weight_shape_checked(self):
        with pytest.raises(ShapeMismatch, match="^cell_weight shape does not match the map$"):
            DistributionMap(2, 1, 2, np.full((1, 2, 2), 0.5), cell_weight=np.ones(3))

    def test_distribution_data_shape_checked(self):
        with pytest.raises(ShapeMismatch, match=r"^distribution data shape \(2, 4\) != \(1, 2, 4\)$"):
            DistributionMap(2, 1, 4, np.full((2, 4), 0.25))

    def test_hand_built_map_is_a_table_of_one_row_per_cell(self):
        data = np.random.default_rng(5).dirichlet(np.ones(3), (2, 4))
        dist = DistributionMap(4, 2, 3, data)
        assert dist.table.shape == (8, 3)
        np.testing.assert_array_equal(dist.rows, np.arange(8).reshape(2, 4))
        assert dist.data.tobytes() == data.tobytes() and not dist.data.flags.writeable

    def test_table_map_reads_back_its_rows(self):
        table = np.array([[1.0, 0.0], [0.25, 0.75], [0.5, 0.5]])
        rows = np.array([[2, 0, 0], [1, 2, 1]])
        dist = DistributionMap(3, 2, 2, table, rows=rows)
        assert dist.data.tobytes() == table[rows].tobytes()

    @pytest.mark.parametrize("table, rows, message", [
        (np.full((2, 3), 1 / 3), np.zeros((1, 2), dtype=int), r"table shape \(2, 3\) is not"),
        (np.full((2, 2), 0.5), np.zeros((2, 1), dtype=int), "rows must be integers shaped"),
        (np.full((2, 2), 0.5), np.zeros((1, 2)), "rows must be integers shaped"),
        (np.full((2, 2), 0.5), np.array([[0, 2]]), "rows must index the 2 rows"),
        (np.full((2, 2), 0.5), np.array([[-1, 0]]), "rows must index the 2 rows"),
    ])
    def test_rows_must_index_the_table(self, table, rows, message):
        with pytest.raises(ShapeMismatch, match=message):
            DistributionMap(2, 1, 2, table, rows=rows)

    def test_table_rows_obey_the_bin_rule(self):
        with pytest.raises(ConfigError, match="^per-cell bin weights must sum to 1"):
            DistributionMap(2, 1, 2, np.array([[0.5, 0.5], [0.5, 0.4]]),
                            rows=np.array([[0, 0]]))

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


PLAN_HEIGHT_BINS = BinSpec("DID", 5, -0.2, 2.6, 1.2)
PLAN_DEPTH_BINS = BinSpec("DEPTH_UD", 6, 1.0, 31.0)
PLAN_GRID = GridSpec(0.0, 40.0, -20.0, 20.0, 2.0, 2.0, 3)


def both_wedges(rig, seed, width=12, height=54, stride=16, bins_h=PLAN_HEIGHT_BINS):
    """One frame's height and depth clouds: fresh context and distributions
    drawn from seed, lifted on rig."""
    rng = np.random.default_rng(seed)
    fused_h = random_fused(rng, width, height, bins_h.n_bins, 3, zero_weight_frac=0.2)
    fused_d = fuse(fused_h.context, random_fused(rng, width, height, 6, 3).dist)
    return (build_wedge(fused_h, bins_h, rig, stride),
            build_wedge_depth(fused_d, PLAN_DEPTH_BINS, rig, stride))


def assert_clouds_equal(a, b):
    for name in ("positions", "features", "weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.skipped_cells == b.skipped_cells


class TestLiftPlan:
    def test_frames_on_one_rig_equal_frames_on_fresh_rigs(self):
        # pitch 20: the horizon crosses the image, so the height plan skips
        rig = level_rig(pitch_deg=20.0)
        frames = [both_wedges(rig, seed) for seed in (1, 2)]
        for seed, clouds in zip((1, 2), frames):
            fresh = replace(rig)
            assert fresh._plans == {}
            for cloud, fresh_cloud in zip(clouds, both_wedges(fresh, seed)):
                assert_clouds_equal(cloud, fresh_cloud)
                a, b = pool(cloud, PLAN_GRID), pool(fresh_cloud, PLAN_GRID)
                assert a.data.tobytes() == b.data.tobytes()
                np.testing.assert_array_equal(a.hit_count, b.hit_count)
                assert a.dropped_points == b.dropped_points
        assert frames[0][0].skipped_cells > 0
        # the second frame reused the first frame's geometry and BEV index
        for first, second in zip(*frames):
            assert np.shares_memory(second.positions, first.positions)
            assert second.plan.bev_index is first.plan.bev_index
            assert list(second.plan.bev_index) == [PLAN_GRID]

    def test_perturbed_rig_gets_its_own_positions(self):
        rig = level_rig(pitch_deg=20.0)
        clouds = both_wedges(rig, 3)
        swayed = perturb_rig(rig, 1.0, -0.5)
        swayed_clouds = both_wedges(swayed, 3)
        for cloud, swayed_cloud, fresh_cloud in zip(
                clouds, swayed_clouds, both_wedges(replace(swayed), 3)):
            assert not np.shares_memory(cloud.positions, swayed_cloud.positions)
            assert swayed_cloud.plan.bev_index is not cloud.plan.bev_index
            assert_clouds_equal(swayed_cloud, fresh_cloud)
            if cloud.n_points == swayed_cloud.n_points:
                assert not np.array_equal(cloud.positions, swayed_cloud.positions)
        assert swayed._plans["height"] is not rig._plans["height"]

    @pytest.mark.parametrize("change", [
        {"stride": 8},
        {"bins_h": BinSpec("UD", 4, 0.0, 2.0)},
        {"width": 10},
        {"height": 40},
    ])
    def test_new_stride_bins_or_grid_size_rebuilds_the_plan(self, change):
        rig = level_rig(pitch_deg=20.0)
        old = both_wedges(rig, 4)
        old_plans = dict(rig._plans)
        new = both_wedges(rig, 4, **change)
        assert sorted(rig._plans) == ["depth", "height"]
        rebuilt = ["height", "depth"] if "bins_h" not in change else ["height"]
        for kind in ("height", "depth"):
            assert (rig._plans[kind] is not old_plans[kind]) == (kind in rebuilt)
        for cloud, fresh_cloud in zip(new, both_wedges(replace(rig), 4, **change)):
            assert_clouds_equal(cloud, fresh_cloud)
        assert old[0].n_points != new[0].n_points


def horizon_rig():
    """level_rig(pitch 20) swayed by 3 deg of roll: the horizon crosses the
    image on a slant, so a feature grid of the whole image mixes skipped
    cells with valid ones just below them, at different rows per column."""
    return perturb_rig(level_rig(pitch_deg=20.0), 3.0, -0.5)


HORIZON_STRIDE = 32


def horizon_wedges(rig, seed):
    """Both clouds of one frame over the whole image at HORIZON_STRIDE."""
    return both_wedges(rig, seed, width=INTR_1000.image_w // HORIZON_STRIDE,
                       height=INTR_1000.image_h // HORIZON_STRIDE, stride=HORIZON_STRIDE)


class TestPlanGeometry:
    """The plan's factored rays (origin + f_b * dir_s) against the scalar
    lifts, and the layout of what a plan cloud shares."""

    def test_positions_match_scalar_lifts_next_to_the_horizon(self):
        from bevlift.binning import bin_midpoints

        rig = horizon_rig()
        wedge_h, wedge_d = horizon_wedges(rig, 1)
        width, height = INTR_1000.image_w // HORIZON_STRIDE, INTR_1000.image_h // HORIZON_STRIDE
        valid = rig._plans["height"].valid.reshape(height, width)
        # the first valid cell of every column sits right below a skipped one
        first_rows = valid.argmax(axis=0)
        assert np.all(first_rows > 0) and len(set(first_rows)) > 1
        uu, vv = cell_pixel_centers(width, height, HORIZON_STRIDE)
        for cloud, bins, lift, cells in (
            (wedge_h, PLAN_HEIGHT_BINS, lift_pixel_height, np.flatnonzero(valid)),
            (wedge_d, PLAN_DEPTH_BINS, lift_pixel_depth, np.arange(valid.size)),
        ):
            mids = bin_midpoints(bins)
            expected = [lift(uu.flat[i], vv.flat[i], m, rig) for i in cells for m in mids]
            np.testing.assert_allclose(cloud.positions, expected, rtol=0, atol=1e-9)

    def test_features_repeat_each_source_cell_context(self):
        rig = horizon_rig()
        width, height = INTR_1000.image_w // HORIZON_STRIDE, INTR_1000.image_h // HORIZON_STRIDE
        rng = np.random.default_rng(2)
        fused_h = random_fused(rng, width, height, PLAN_HEIGHT_BINS.n_bins, 3)
        fused_d = fuse(fused_h.context, random_fused(rng, width, height, 6, 3).dist)
        wedge_h = build_wedge(fused_h, PLAN_HEIGHT_BINS, rig, HORIZON_STRIDE)
        wedge_d = build_wedge_depth(fused_d, PLAN_DEPTH_BINS, rig, HORIZON_STRIDE)
        context = fused_h.context.data.reshape(-1, 3)
        valid = rig._plans["height"].valid
        assert wedge_h.skipped_cells == np.count_nonzero(~valid) > 0
        np.testing.assert_array_equal(
            wedge_h.features, np.repeat(context[valid], PLAN_HEIGHT_BINS.n_bins, axis=0))
        np.testing.assert_array_equal(
            wedge_d.features, np.repeat(context, PLAN_DEPTH_BINS.n_bins, axis=0))

    def test_positions_are_one_read_only_view_shared_by_every_frame(self):
        rig = horizon_rig()
        frames = [horizon_wedges(rig, seed) for seed in (3, 4, 5)]
        for kind, clouds in zip(("height", "depth"), zip(*frames)):
            plan = rig._plans[kind]
            for factor in (plan.valid, plan.dirs, plan.steps, plan.origin):
                assert not factor.flags.writeable
            # built on the first read, then kept
            assert "positions" not in vars(plan)
            rays = plan.positions.base
            assert plan.positions is plan.positions
            assert rays.shape == (3, clouds[0].n_points) and rays.flags.c_contiguous
            assert not rays.flags.writeable
            for cloud in clouds:
                assert cloud.positions.shape == (cloud.n_points, 3)
                assert cloud.positions.base is rays
                assert not cloud.positions.flags.writeable
                with pytest.raises(ValueError):
                    cloud.positions[0, 0] = 0.0


    def test_overflowing_depth_bins_are_rejected_without_positions(self, monkeypatch):
        def built(plan):
            pytest.fail("the finite check built the plan's positions")

        monkeypatch.setattr(lifting._LiftPlan, "positions", property(built))
        # A wide lens: the edge columns' directions are longer than 2, so
        # the single finite bin depth of 8.5e307 lifts them past the
        # largest double.
        wide = Intrinsics(200.0, 200.0, 768.0, 432.0, 1536, 864)
        rig = CameraRig(wide, extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=20.0))
        width, height = wide.image_w // HORIZON_STRIDE, wide.image_h // HORIZON_STRIDE
        fused = random_fused(np.random.default_rng(6), width, height, 1, 3)
        with pytest.raises(ConfigError, match="lifted positions must be finite"):
            build_wedge_depth(fused, BinSpec("DEPTH_UD", 1, 1.0, 1.7e308), rig, HORIZON_STRIDE)
        assert "depth" not in rig._plans

    def test_finite_check_agrees_with_the_positions(self):
        # Products and origins around the overflow threshold: some plans
        # are finite, some overflow in a product, some only once the
        # origin is added.
        rng = np.random.default_rng(8)
        outcomes = set()
        for _ in range(400):
            m, n_bins = rng.integers(1, 6, 2)
            dirs = rng.normal(size=(m, 3)) * 10.0 ** rng.uniform(153, 154.3)
            steps = rng.normal(size=n_bins) * 10.0 ** rng.uniform(153, 154.3)
            origin = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(306, 308.2, 3)
            with np.errstate(over="ignore", invalid="ignore"):
                products = [np.multiply.outer(dirs[:, a], steps) for a in range(3)]
                positions = [products[a] + origin[a] for a in range(3)]
            finite = bool(np.all(np.isfinite(positions)))
            try:
                lifting._LiftPlan(None, np.ones(m, dtype=bool), 0, dirs, steps, origin)
            except ConfigError as exc:
                assert not finite and str(exc) == "lifted positions must be finite"
            else:
                assert finite
            outcomes.add("finite" if finite else
                         "origin" if np.all(np.isfinite(products)) else "product")
        assert outcomes == {"finite", "product", "origin"}


class TestWedgeCloud:
    def test_hand_built_cloud_has_one_point_per_source_cell(self):
        features = np.arange(6.0).reshape(3, 2)
        cloud = WedgeCloud(np.zeros((3, 3)), features, np.ones(3))
        assert cloud.points_per_cell == 1
        np.testing.assert_array_equal(cloud.context, features)
        np.testing.assert_array_equal(cloud.features, features)
        # signed zeros and the smallest subnormals read back bit for bit
        tiny = 5e-324
        positions = np.array([[0.0, -0.0, tiny], [-tiny, -0.0, 0.0], [1.5, -tiny, -0.0]])
        cloud = WedgeCloud(positions, features, np.ones(3))
        assert cloud.positions.tobytes() == positions.tobytes()
        assert cloud.points_per_cell == 1 and cloud.skipped_cells == 0

    def test_rejects_context_that_does_not_tile_the_points(self):
        with pytest.raises(ShapeMismatch):
            WedgeCloud(np.zeros((5, 3)), np.ones((2, 1)), np.ones(5))

    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_weights(self, bad):
        with pytest.raises(ConfigError):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([bad]))

    def test_weights_are_table_rows_times_cell_weights(self):
        # three source cells of two points each
        plan = lifting._LiftPlan(None, np.ones(3, dtype=bool), 0, np.zeros((3, 3)), np.ones(2),
                                 np.zeros(3))
        table = np.array([[0.5, 0.5], [1.0, 0.0]])
        cloud = WedgeCloud(plan, np.ones((3, 1)), table, np.array([2.0, 0.0, 3.0]),
                           np.array([1, 0, 0]))
        np.testing.assert_array_equal(cloud.weights, [2.0, 0.0, 0.0, 0.0, 1.5, 1.5])
        assert not cloud.weights.flags.writeable

    def test_dense_unit_weights_read_back_the_table(self):
        # a hand-built cloud, and a wedge of a dense map with unit cell weights
        rng = np.random.default_rng(5)
        raw = rng.random((3, 4, 5))
        dist = DistributionMap(4, 3, 5, raw / raw.sum(-1, keepdims=True))
        plan = lifting._LiftPlan(None, np.ones(12, dtype=bool), 0, rng.normal(size=(12, 3)),
                                 np.arange(1.0, 6.0), np.zeros(3))
        clouds = [WedgeCloud(rng.normal(size=(7, 3)), np.ones((7, 2)), rng.random(7)),
                  WedgeCloud(plan, np.ones((12, 1)), dist.table, dist.cell_weight.reshape(-1),
                             dist.rows.reshape(-1))]
        for cloud in clouds:
            weights = cloud.weights
            assert np.shares_memory(weights, cloud.table)
            assert weights.tobytes() == cloud.table.tobytes()
            assert not weights.flags.writeable and cloud.table.flags.writeable

    def test_consecutive_rows_with_unit_cell_weights_read_back_a_table_slice(self):
        # A dense map built by hand on a level rig: the height plan skips the
        # cells above the horizon, so the source cells read one contiguous
        # range of rows that starts past the first.
        rng = np.random.default_rng(8)
        width, height, stride = INTR_1000.image_w // 64, INTR_1000.image_h // 64, 64
        raw = rng.random((height, width, 5))
        dist = DistributionMap(width, height, 5, raw / raw.sum(-1, keepdims=True))
        ctx = ContextMap(width, height, 2, rng.normal(size=(height, width, 2)))
        cloud = build_wedge(fuse(ctx, dist), BinSpec("UD", 5, 0.0, 2.0), level_rig(), stride)
        rows = cloud.rows
        assert cloud.skipped_cells > 0 and rows[0] > 0
        assert np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size))
        gathered = (cloud.table[rows] * cloud.cell_weight[:, None]).reshape(-1)
        assert np.shares_memory(cloud.weights, cloud.table)
        assert cloud.weights.tobytes() == gathered.tobytes()
        assert not cloud.weights.flags.writeable

    @pytest.mark.parametrize("change", ["cell_weight", "rows"])
    def test_weights_gather_unless_rows_are_the_identity_with_unit_cell_weights(self, change):
        table = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
        cell_weight, rows = np.ones(3), np.arange(3)
        if change == "cell_weight":
            cell_weight[1] = 0.5
        else:
            rows = np.array([2, 1, 0])
        plan = lifting._LiftPlan(None, np.ones(3, dtype=bool), 0, np.zeros((3, 3)), np.ones(2),
                                 np.zeros(3))
        cloud = WedgeCloud(plan, np.ones((3, 1)), table, cell_weight, rows)
        assert not np.shares_memory(cloud.weights, table)
        assert cloud.weights.tobytes() == (table[rows] * cell_weight[:, None]).tobytes()

    def test_rejects_weights_whose_product_overflows(self):
        with pytest.raises(ConfigError, match="^point weights must be finite$"):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([[2.0]]),
                       np.array([1e308]), np.array([0]))

    def test_unused_table_rows_do_not_bound_the_weights(self):
        # 2.0 * 1e308 overflows, but no source cell takes the row of 2.0
        cloud = WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.array([[2.0], [0.5]]),
                           np.array([1e308]), np.array([1]))
        assert cloud.weights.tolist() == [0.5e308]

    @pytest.mark.parametrize("cell_weight", [np.array([-1.0]), np.array([np.inf])])
    def test_rejects_bad_cell_weights(self, cell_weight):
        with pytest.raises(ConfigError, match="^point weights must be"):
            WedgeCloud(np.zeros((1, 3)), np.ones((1, 1)), np.ones((1, 1)), cell_weight,
                       np.array([0]))

    def test_rejects_cell_weights_of_other_source_cells(self):
        with pytest.raises(ShapeMismatch, match="one entry per source cell"):
            WedgeCloud(np.zeros((2, 3)), np.ones((2, 1)), np.ones((1, 1)), np.ones(3),
                       np.array([0, 0]))

    def test_rejects_nonfinite_positions(self):
        with pytest.raises(ConfigError):
            WedgeCloud(np.array([[np.inf, 0, 0]]), np.ones((1, 1)), np.ones(1))


def test_cell_pixel_centers_layout():
    uu, vv = cell_pixel_centers(3, 2, 16)
    assert uu.shape == (2, 3)
    np.testing.assert_allclose(uu[0], [8.0, 24.0, 40.0])
    np.testing.assert_allclose(vv[:, 0], [8.0, 24.0])
