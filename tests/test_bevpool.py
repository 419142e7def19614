"""BEV pooling tests against a scalar accumulation oracle."""
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift.binning import BinSpec
from bevlift import bevpool
from bevlift.bevpool import GridSpec, grid_cell_of, pool
from bevlift.errors import ConfigError, ShapeMismatch, config_object
from bevlift.geometry import CameraRig, Intrinsics, extrinsics_from_pose
from bevlift.lifting import (
    ContextMap,
    DistributionMap,
    WedgeCloud,
    build_wedge,
    build_wedge_depth,
    fuse,
)
from strategies import dense_map, points_cloud
from bevlift.robustness import perturb_rig
from bevlift.scene import (
    NoiseModel,
    predict_depth_distribution,
    predict_height_distribution,
    render,
)

SMALL = GridSpec(0.0, 4.0, -2.0, 2.0, 1.0, 1.0, 2)
INTR = Intrinsics(1000.0, 1000.0, 768.0, 432.0, 1536, 864)


def pool_oracle(cloud, spec):
    """Plain python accumulation, one point at a time, in cloud order."""
    data = np.zeros((spec.n_x, spec.n_y, spec.channels))
    hits = np.zeros((spec.n_x, spec.n_y), dtype=np.int64)
    dropped = 0
    features = cloud.features
    for p in range(cloud.n_points):
        cell = grid_cell_of(cloud.positions[p, 0], cloud.positions[p, 1], spec)
        if cell is None:
            dropped += 1
            continue
        data[cell] += cloud.weights[p] * features[p]
        hits[cell] += 1
    return data, hits, dropped


def assert_pools_like_oracle(cloud, spec):
    grid = pool(cloud, spec)
    data, hits, dropped = pool_oracle(cloud, spec)
    assert grid.data.tobytes() == data.tobytes()
    assert grid.hit_count.tobytes() == hits.tobytes()
    assert grid.dropped_points == dropped
    return grid


def random_cloud(rng, n, channels=2, spread=6.0):
    return points_cloud(
        rng.uniform(-spread / 2, spread, size=(n, 3)),
        rng.normal(size=(n, channels)),
        rng.random(n),
    )


class TestGridSpec:
    def test_cell_counts(self):
        assert SMALL.n_x == 4 and SMALL.n_y == 4
        wide = GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, 4)
        assert wide.n_x == 128 and wide.n_y == 128

    def test_rejects_non_integral_extent(self):
        with pytest.raises(ConfigError):
            GridSpec(0.0, 4.5, 0.0, 4.0, 1.0, 1.0, 1)

    def test_rejects_empty_extent(self):
        with pytest.raises(ConfigError):
            GridSpec(4.0, 4.0, 0.0, 4.0, 1.0, 1.0, 1)

    def test_rejects_resolution_too_fine_to_count_cells(self):
        # (x_max - x_min) / res_x overflows to inf
        with pytest.raises(ConfigError, match="res_x"):
            GridSpec(0.0, 4.0, -2.0, 2.0, 1e-320, 1.0, 1)

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_max", "res_x", "res_y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        doc = {**asdict(SMALL), field: value}
        with pytest.raises(ConfigError):
            config_object(GridSpec, doc)

    def test_json_round_trip(self):
        assert config_object(GridSpec, asdict(SMALL)) == SMALL


class TestGridCellOf:
    def test_frozen_cases(self):
        assert grid_cell_of(0.0, -2.0, SMALL) == (0, 0)
        assert grid_cell_of(3.999, 1.999, SMALL) == (3, 3)
        assert grid_cell_of(1.5, 0.5, SMALL) == (1, 2)

    def test_upper_edges_are_outside(self):
        assert grid_cell_of(4.0, 0.0, SMALL) is None
        assert grid_cell_of(0.0, 2.0, SMALL) is None

    def test_below_lower_edge_is_outside(self):
        assert grid_cell_of(-1e-9, 0.0, SMALL) is None


class TestPool:
    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(17)
        cloud = random_cloud(rng, 400)
        grid = pool(cloud, SMALL)
        data, hits, dropped = pool_oracle(cloud, SMALL)
        np.testing.assert_array_equal(grid.data, data)
        np.testing.assert_array_equal(grid.hit_count, hits)
        assert grid.dropped_points == dropped

    def test_empty_cloud(self):
        cloud = points_cloud(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))
        grid = pool(cloud, SMALL)
        assert grid.data.shape == (4, 4, 2)
        assert grid.dropped_points == 0
        assert np.all(grid.hit_count == 0)

    def test_conserves_weighted_mass(self):
        # with all points inside and unit features, cell sums recover the
        # total weight
        rng = np.random.default_rng(4)
        n = 1000
        cloud = points_cloud(
            np.column_stack([
                rng.uniform(0.0, 3.999, n),
                rng.uniform(-1.999, 1.999, n),
                rng.normal(size=n),
            ]),
            np.ones((n, 2)),
            rng.random(n),
        )
        grid = pool(cloud, SMALL)
        assert grid.dropped_points == 0
        assert grid.data[..., 0].sum() == pytest.approx(cloud.weights.sum(), rel=1e-9)
        assert grid.hit_count.sum() == n

    def test_linear_in_weights(self):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, 300)
        doubled = points_cloud(cloud.positions, cloud.features, cloud.weights * 2.0)
        a = pool(cloud, SMALL)
        b = pool(doubled, SMALL)
        np.testing.assert_allclose(b.data, 2.0 * a.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(b.hit_count, a.hit_count)

    def test_fixed_mode_is_bit_identical_across_runs(self):
        rng = np.random.default_rng(23)
        cloud = random_cloud(rng, 2000)
        runs = [pool(cloud, SMALL) for _ in range(3)]
        assert runs[0].data.tobytes() == runs[1].data.tobytes() == runs[2].data.tobytes()

    def test_channel_mismatch(self):
        cloud = random_cloud(np.random.default_rng(0), 10, channels=3)
        with pytest.raises(ShapeMismatch):
            pool(cloud, SMALL)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_oracle_agreement_property(self, seed, sparse):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, int(rng.integers(0, 120)))
        if sparse:
            cloud = sparsify(rng, cloud)
        assert_pools_like_oracle(cloud, SMALL)

    def test_one_cloud_pools_into_two_grids(self, mast_rig):
        rng = np.random.default_rng(31)
        w, h, n_bins = 24, 13, 8
        raw = rng.random((h, w, n_bins)) + 1e-3
        fused = fuse(
            ContextMap(w, h, 2, rng.normal(size=(h, w, 2))),
            dense_map(w, h, n_bins, raw / raw.sum(-1, keepdims=True)),
        )
        bins = BinSpec("DEPTH_UD", n_bins, 1.0, 60.0)
        rig = replace(mast_rig)
        cloud = build_wedge_depth(fused, bins, rig, 64)
        coarse = GridSpec(0.0, 64.0, -32.0, 32.0, 4.0, 4.0, 2)
        fine = GridSpec(0.0, 40.0, -10.0, 10.0, 0.5, 0.5, 2)
        grids = [pool(cloud, spec) for spec in (coarse, fine, coarse)]
        assert set(cloud.plan.bev_index) == {coarse, fine}
        for spec, grid in zip((coarse, fine, coarse), grids):
            fresh = pool(build_wedge_depth(fused, bins, replace(mast_rig), 64), spec)
            assert grid.data.tobytes() == fresh.data.tobytes()
            np.testing.assert_array_equal(grid.hit_count, fresh.hit_count)
            assert grid.dropped_points == fresh.dropped_points
            data, hits, dropped = pool_oracle(cloud, spec)
            np.testing.assert_array_equal(grid.data, data)
            np.testing.assert_array_equal(grid.hit_count, hits)
            assert grid.dropped_points == dropped
        assert 0 < grids[1].dropped_points < cloud.n_points

    def test_plan_clouds_on_a_swayed_rig_match_the_oracle(self):
        # roll tilts the horizon across the image: the height plan skips a
        # different number of rows per column, the depth plan skips none
        rig = perturb_rig(
            CameraRig(INTR, extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=20.0)),
            3.0, -0.5)
        rng = np.random.default_rng(41)
        w, h, channels = INTR.image_w // 32, INTR.image_h // 32, 3
        context = ContextMap(w, h, channels, rng.normal(size=(h, w, channels)))
        spec = GridSpec(0.0, 64.0, -32.0, 32.0, 2.0, 2.0, channels)
        for build, bins in ((build_wedge, BinSpec("DID", 5, -0.2, 2.6, 1.2)),
                            (build_wedge_depth, BinSpec("DEPTH_UD", 6, 1.0, 61.0))):
            raw = rng.random((h, w, bins.n_bins)) + 1e-3
            data = raw / raw.sum(-1, keepdims=True)
            data[rng.random((h, w)) < 0.2] = 0.0
            cloud = build(fuse(context, dense_map(w, h, bins.n_bins, data)), bins, rig, 32)
            assert cloud.points_per_cell == bins.n_bins
            grid = assert_pools_like_oracle(cloud, spec)
            assert 0 < grid.dropped_points < cloud.n_points
        assert 0 < cloud.n_points and rig._plans["height"].skipped > 0

    def test_hand_built_cloud_pools_like_the_oracle(self):
        rng = np.random.default_rng(43)
        cloud = random_cloud(rng, 500, channels=3)
        assert cloud.points_per_cell == 1
        assert_pools_like_oracle(cloud, replace(SMALL, channels=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hand_built_cloud_rejects_non_finite_positions(self, bad):
        positions = np.zeros((4, 3))
        positions[2, 1] = bad
        with pytest.raises(ConfigError, match="positions must be finite"):
            points_cloud(positions, np.ones((4, 2)), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hand_built_cloud_rejects_non_finite_features(self, bad):
        # a zero weight does not excuse the feature: inf * 0 is nan
        features = np.ones((4, 2))
        features[2, 1] = bad
        with pytest.raises(ConfigError, match="point features must be finite"):
            points_cloud(np.zeros((4, 3)), features, np.array([1.0, 1.0, 0.0, 1.0]))

    @pytest.mark.parametrize("spec", [SMALL, GridSpec(0.0, 4.0, -2.0, 2.0, 0.25, 0.25, 2)])
    def test_drops_far_points_without_warnings(self, spec):
        far = [[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0], [0.5, 1e300, 0.0],
               [0.5, -1e300, 0.0], [1.7e308, -1.7e308, 0.0]]
        cloud = points_cloud(far + [[0.5, 0.5, 0.0]], np.ones((6, 2)), np.full(6, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = pool(cloud, spec)
        assert grid.dropped_points == 5
        assert grid.hit_count.sum() == 1
        assert grid.data.sum() == 1.0


def with_weights(cloud, weights, context=None):
    """cloud's plan with per-point weights: a table of one row per source
    cell."""
    m = cloud.context.shape[0]
    return WedgeCloud(cloud.plan, cloud.context if context is None else context,
                      np.reshape(weights, (m, cloud.points_per_cell)), np.arange(m))


def sparsify(rng, cloud):
    """cloud's weights with about three fifths of its source cells zeroed
    whole, a run of zeros in each of the rest when a cell has more than
    one point, and -0.0 for about half of all the zeros; its context with
    about a tenth of its features -0.0 (the rest keep their signs)."""
    m, k = cloud.context.shape[0], cloud.points_per_cell
    weights = cloud.weights.reshape(m, k).copy()
    weights[rng.random(m) < 0.6] = 0.0
    if k > 1:
        start = rng.integers(0, k, m)
        stop = start + rng.integers(1, k, m)
        bins = np.arange(k)
        weights[(bins >= start[:, None]) & (bins < stop[:, None])] = 0.0
    weights[(weights == 0) & (rng.random(weights.shape) < 0.5)] = -0.0
    context = np.where(rng.random(cloud.context.shape) < 0.1, -0.0, cloud.context)
    return with_weights(cloud, weights, context)


def plan_clouds(rig, rng, channels=3):
    """A height and a depth cloud at stride 32 on rig, every point of
    positive weight."""
    w, h = INTR.image_w // 32, INTR.image_h // 32
    context = ContextMap(w, h, channels, rng.normal(size=(h, w, channels)))
    for build, bins in ((build_wedge, BinSpec("DID", 5, -0.2, 2.6, 1.2)),
                        (build_wedge_depth, BinSpec("DEPTH_UD", 6, 1.0, 61.0))):
        raw = rng.random((h, w, bins.n_bins)) + 1e-3
        dist = dense_map(w, h, bins.n_bins, raw / raw.sum(-1, keepdims=True))
        yield build(fuse(context, dist), bins, rig, 32)


class TestSparseWeights:
    """Pooling skips the points of zero weight; the grids it makes must
    equal the oracle's, which adds every point, byte for byte."""

    PLAN_SPEC = GridSpec(0.0, 64.0, -32.0, 32.0, 2.0, 2.0, 3)
    STATIC = CameraRig(INTR, extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=20.0))

    def test_hand_built_cloud(self):
        rng = np.random.default_rng(53)
        cloud = sparsify(rng, random_cloud(rng, 600, channels=3))
        assert 0 < np.count_nonzero(cloud.weights) < cloud.n_points
        assert np.signbit(cloud.weights[cloud.weights == 0]).any()
        assert_pools_like_oracle(cloud, replace(SMALL, channels=3))

    @pytest.mark.parametrize("sway", [None, (3.0, -0.5)])
    def test_plan_clouds(self, sway):
        rig = self.STATIC if sway is None else perturb_rig(self.STATIC, *sway)
        rng = np.random.default_rng(59)
        for cloud in plan_clouds(rig, rng):
            sparse = sparsify(rng, cloud)
            live = np.count_nonzero(sparse.weights)
            assert 0 < live < sparse.n_points
            grid = assert_pools_like_oracle(sparse, self.PLAN_SPEC)
            assert 0 < grid.dropped_points < sparse.n_points

    def test_dense_cloud_forms_no_weights(self):
        # every point of a plan cloud is live; pool still reads only the
        # factors, so the cached per-point weights are never built
        rng = np.random.default_rng(61)
        for cloud in plan_clouds(perturb_rig(self.STATIC, -2.0, 1.0), rng):
            assert (cloud.table[cloud.rows] != 0).all()
            grid = pool(cloud, self.PLAN_SPEC)
            assert "weights" not in vars(cloud)
            data, hits, dropped = pool_oracle(cloud, self.PLAN_SPEC)
            assert grid.data.tobytes() == data.tobytes()
            assert grid.hit_count.tobytes() == hits.tobytes()
            assert grid.dropped_points == dropped

    @pytest.mark.parametrize("sign", [0.0, -0.0])
    def test_all_zero_cloud(self, sign):
        rng = np.random.default_rng(67)
        for cloud in plan_clouds(self.STATIC, rng):
            dense = pool(cloud, self.PLAN_SPEC)
            zero = with_weights(cloud, np.full(cloud.n_points, sign), -cloud.context)
            grid = assert_pools_like_oracle(zero, self.PLAN_SPEC)
            assert grid.data.tobytes() == bytes(grid.data.nbytes)
            assert grid.hit_count.tobytes() == dense.hit_count.tobytes()
            assert grid.dropped_points == dense.dropped_points > 0


class TestFactoredWeights:
    """A predicted map reaches pool as its table rows and each source
    cell's row index.  Its grids must equal, byte for byte, those of the
    same map built by hand from its dense data."""

    SPEC = GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, 3)

    @staticmethod
    def assert_same_grid(grid, other):
        assert grid.data.tobytes() == other.data.tobytes()
        assert grid.hit_count.tobytes() == other.hit_count.tobytes()
        assert grid.dropped_points == other.dropped_points

    @pytest.mark.parametrize("sway", [None, (1.5, -1.0)])
    @pytest.mark.parametrize("noise", [
        NoiseModel("one_hot_truth"),
        NoiseModel("gaussian_bin_blur", sigma_bins=1.0),
        NoiseModel("gaussian_bin_blur", sigma_bins=3.7),
        NoiseModel("bias", bias_m=0.1),
    ], ids=lambda n: f"{n.kind}-{n.sigma_bins}")
    def test_predicted_map_pools_like_its_dense_data(self, mast_rig, corridor7, noise, sway):
        rig = mast_rig if sway is None else perturb_rig(mast_rig, *sway)
        maps = render(corridor7, rig, 32)
        rng = np.random.default_rng(73)
        shape = (maps.height, maps.width, self.SPEC.channels)
        context = ContextMap(maps.width, maps.height, shape[2], rng.normal(size=shape))
        for predict, build, bins in (
                (predict_height_distribution, build_wedge, BinSpec("DID", 90, -0.2, 3.6, 1.2)),
                (predict_depth_distribution, build_wedge_depth,
                 BinSpec("DEPTH_UD", 206, 1.0, 104.0))):
            dist = predict(maps, bins, noise)
            by_hand = dense_map(dist.width, dist.height, dist.n_bins, dist.data)
            cloud = build(fuse(context, dist), bins, rig, 32)
            hand_cloud = build(fuse(context, by_hand), bins, rig, 32)
            assert cloud.table.shape[0] == bins.n_bins + 1
            assert hand_cloud.table.shape[0] == maps.width * maps.height
            assert cloud.weights.tobytes() == hand_cloud.weights.tobytes()
            grid = pool(cloud, self.SPEC)
            self.assert_same_grid(grid, pool(hand_cloud, self.SPEC))
            assert 0 < grid.dropped_points < cloud.n_points

    def test_products_that_underflow_keep_the_bits(self):
        # 5e-324 times a feature below 0.5 in magnitude rounds to +-0.0:
        # the point is listed as live from its table entry, adds a zero
        # and changes no bit of the sums
        rng = np.random.default_rng(79)
        w, h, n_bins = INTR.image_w // 32, INTR.image_h // 32, 6
        table = np.zeros((4, n_bins))
        table[0, :2] = [5e-324, 1.0]
        table[1, 3:5] = 0.5
        table[2, 5] = 1.0
        dist = DistributionMap(w, h, n_bins, table, rng.integers(0, 4, (h, w)))
        context = ContextMap(w, h, 2, rng.normal(size=(h, w, 2)))
        cloud = build_wedge_depth(fuse(context, dist), BinSpec("DEPTH_UD", n_bins, 1.0, 61.0),
                                  TestSparseWeights.STATIC, 32)
        live = cloud.weights != 0
        products = cloud.weights[:, None] * cloud.features
        assert (live[:, None] & (products == 0)).any()
        assert (cloud.rows == 3).any()
        assert_pools_like_oracle(cloud, replace(TestSparseWeights.PLAN_SPEC, channels=2))


def predicted_like_cloud(rng, rows, sky=0.0, n_bins=6):
    """A depth cloud at stride 32 whose table is shaped like a predicted
    map's: one-hot rows, one blurred row with zeros in its tails and a
    sky row, row n_bins, all sky (+0.0 or -0.0); each source cell takes a
    row drawn from rows."""
    w, h = INTR.image_w // 32, INTR.image_h // 32
    table = np.vstack([np.eye(n_bins), np.full(n_bins, sky)])
    table[1] = 0.0
    table[1, :3] = [0.25, 0.5, 0.25]
    dist = DistributionMap(w, h, n_bins, table, rng.choice(rows, (h, w)))
    context = ContextMap(w, h, 2, rng.normal(size=(h, w, 2)))
    return build_wedge_depth(fuse(context, dist), BinSpec("DEPTH_UD", n_bins, 1.0, 61.0),
                             TestSparseWeights.STATIC, 32)


class TestGatheredPass:
    """The pass over the live points lists their cells with one mask over
    the table's nonzeros and sums by np.bincount: byte for byte the
    scalar oracle."""

    SPEC = replace(TestSparseWeights.PLAN_SPEC, channels=2)

    @staticmethod
    def n_live(cloud):
        return np.count_nonzero(cloud.table[cloud.rows])

    def test_sky_cells_add_nothing(self):
        rng = np.random.default_rng(83)
        cloud = predicted_like_cloud(rng, np.arange(7))
        sky = cloud.rows == 6
        assert self.n_live(cloud) > 0 and sky.any()
        grid = assert_pools_like_oracle(cloud, self.SPEC)
        # whatever the features of the sky cells, the sums keep their bits
        loud = WedgeCloud(cloud.plan, np.where(sky[:, None], 1e300, cloud.context),
                          cloud.table, cloud.rows)
        assert pool(loud, self.SPEC).data.tobytes() == grid.data.tobytes()

    def test_negative_zero_sky_row(self):
        rng = np.random.default_rng(89)
        cloud = predicted_like_cloud(rng, np.arange(7), sky=-0.0)
        assert np.signbit(cloud.table[-1]).all() and self.n_live(cloud) > 0
        grid = assert_pools_like_oracle(cloud, self.SPEC)
        # a -0.0 entry is no weight: the sky cells add nothing
        positive = WedgeCloud(cloud.plan, cloud.context, np.abs(cloud.table), cloud.rows)
        assert pool(positive, self.SPEC).data.tobytes() == grid.data.tobytes()

    @pytest.mark.parametrize("sky", [0.0, -0.0])
    def test_cloud_without_a_live_point(self, sky):
        rng = np.random.default_rng(97)
        cloud = predicted_like_cloud(rng, [6], sky)
        assert self.n_live(cloud) == 0
        grid = assert_pools_like_oracle(cloud, self.SPEC)
        assert grid.data.dtype == np.float64
        assert grid.data.tobytes() == bytes(grid.data.nbytes)
        assert grid.hit_count.sum() + grid.dropped_points == cloud.n_points


def index_of_positions(positions, spec):
    """The BEV index rule written out on materialized (n, 3) positions."""
    n_cells = spec.n_x * spec.n_y
    with np.errstate(over="ignore", invalid="ignore"):
        fx = np.floor((positions[:, 0] - spec.x_min) / spec.res_x)
        fy = np.floor((positions[:, 1] - spec.y_min) / spec.res_y)
        inside = (fx >= 0) & (fx < spec.n_x) & (fy >= 0) & (fy < spec.n_y)
        flat = np.where(inside, fx * spec.n_y + fy, n_cells).astype(np.intp)
    return flat, np.bincount(flat, minlength=n_cells + 1)


def assert_index_like_positions(index, positions, spec):
    """A plan's BEV index holds the values of index_of_positions in the
    narrowest signed integer that holds the overflow bin n_x * n_y, and
    the same counts."""
    flat, counts = index
    expected = index_of_positions(positions, spec)
    n_cells = spec.n_x * spec.n_y
    assert flat.dtype.kind == "i" and np.iinfo(flat.dtype).max >= n_cells
    if flat.dtype.itemsize > 1:
        assert np.iinfo(f"i{flat.dtype.itemsize // 2}").max < n_cells
    assert np.array_equal(flat, expected[0])
    assert counts.tobytes() == expected[1].tobytes()
    return flat


class TestPlanIndex:
    """The BEV index of a plan cloud comes from its factored rays; it must
    equal, value for value, the index of the positions the plan builds."""

    # Points fall outside this grid on every side: behind x_min, beyond
    # x_max, and past both lateral edges.
    CLIPPED = GridSpec(6.0, 30.0, -8.0, 8.0, 0.5, 0.5, 2)

    @pytest.mark.parametrize("chunk", [None, 13])
    def test_plan_index_equals_the_index_of_its_positions(self, monkeypatch, chunk):
        if chunk is not None:  # many passes, and runs of rows that do not fill one
            monkeypatch.setattr(bevpool, "_INDEX_CHUNK", chunk)
        spec = self.CLIPPED
        rng = np.random.default_rng(47)
        base = CameraRig(INTR, extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=20.0))
        rigs = [base] + [perturb_rig(base, *rng.normal(0.0, 1.67, 2)) for _ in range(10)]
        w, h = INTR.image_w // 32, INTR.image_h // 32
        context = ContextMap(w, h, 2, rng.normal(size=(h, w, 2)))
        lo, hi = np.full(2, np.inf), np.full(2, -np.inf)
        for rig in rigs:
            for build, bins in ((build_wedge, BinSpec("DID", 5, -0.2, 2.6, 1.2)),
                                (build_wedge_depth, BinSpec("DEPTH_UD", 6, 1.0, 61.0))):
                raw = rng.random((h, w, bins.n_bins)) + 1e-3
                dist = dense_map(w, h, bins.n_bins, raw / raw.sum(-1, keepdims=True))
                cloud = build(fuse(context, dist), bins, rig, 32)
                grid = pool(cloud, spec)
                flat = assert_index_like_positions(cloud.plan.bev_index[spec],
                                                   cloud.positions, spec)
                assert flat.dtype == np.int16  # 48 x 32 cells
                by_hand = points_cloud(cloud.positions, cloud.features, cloud.weights)
                hand_grid = pool(by_hand, spec)
                assert_index_like_positions(by_hand.plan.bev_index[spec],
                                            cloud.positions, spec)
                assert hand_grid.data.tobytes() == grid.data.tobytes()
                lo = np.minimum(lo, cloud.positions[:, :2].min(axis=0))
                hi = np.maximum(hi, cloud.positions[:, :2].max(axis=0))
        assert lo[0] < spec.x_min and hi[0] > spec.x_max
        assert lo[1] < spec.y_min and hi[1] > spec.y_max

    # Cell counts at the edges of int8 and int16: the overflow bin
    # n_x * n_y must fit, so 128 and 32768 cells take the wider type.
    @pytest.mark.parametrize("spec, dtype", [
        (GridSpec(8.0, 39.75, -4.0, 4.0, 0.25, 8.0, 2), np.int8),        # 127 x 1
        (GridSpec(8.0, 40.0, -8.0, 8.0, 2.0, 2.0, 2), np.int16),         # 16 x 8
        (GridSpec(8.0, 45.75, -27.125, 27.125, 0.25, 0.25, 2), np.int16),  # 151 x 217
        (GridSpec(8.0, 40.0, -8.0, 8.0, 0.125, 0.125, 2), np.int32),     # 256 x 128
    ], ids=["127_cells", "128_cells", "32767_cells", "32768_cells"])
    def test_index_dtype_holds_the_overflow_bin(self, spec, dtype):
        rng = np.random.default_rng(53)
        base = CameraRig(INTR, extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=20.0))
        _, depth = plan_clouds(base, rng, channels=2)
        cloud = sparsify(rng, depth)
        grid = pool(cloud, spec)
        positions = cloud.positions
        flat = assert_index_like_positions(cloud.plan.bev_index[spec], positions, spec)
        assert flat.dtype == dtype
        by_hand = pool(points_cloud(positions, cloud.features, cloud.weights), spec)
        assert grid.data.tobytes() == by_hand.data.tobytes()
        assert grid.hit_count.tobytes() == by_hand.hit_count.tobytes()
        assert grid.dropped_points == by_hand.dropped_points > 0
        assert positions[:, 0].min() < spec.x_min and positions[:, 0].max() > spec.x_max
        assert positions[:, 1].min() < spec.y_min and positions[:, 1].max() > spec.y_max
