"""BEV pooling tests against a scalar accumulation oracle."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift.bevpool import GridSpec, grid_cell_of, pool
from bevlift.errors import ConfigError, ShapeMismatch
from bevlift.lifting import WedgeCloud

SMALL = GridSpec(0.0, 4.0, -2.0, 2.0, 1.0, 1.0, 2)


def pool_oracle(cloud, spec):
    """Plain python accumulation, one point at a time, in cloud order."""
    data = np.zeros((spec.n_x, spec.n_y, spec.channels))
    hits = np.zeros((spec.n_x, spec.n_y), dtype=np.int64)
    dropped = 0
    for p in range(cloud.n_points):
        cell = grid_cell_of(cloud.positions[p, 0], cloud.positions[p, 1], spec)
        if cell is None:
            dropped += 1
            continue
        data[cell] += cloud.weights[p] * cloud.features[p]
        hits[cell] += 1
    return data, hits, dropped


def random_cloud(rng, n, channels=2, spread=6.0):
    return WedgeCloud(
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

    @pytest.mark.parametrize("field", ["x_min", "x_max", "y_max", "res_x", "res_y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        doc = {**SMALL.to_json_dict(), field: value}
        with pytest.raises(ConfigError):
            GridSpec.from_json_dict(doc)

    def test_json_round_trip(self):
        assert GridSpec.from_json_dict(SMALL.to_json_dict()) == SMALL


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
        cloud = WedgeCloud(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))
        grid = pool(cloud, SMALL)
        assert grid.data.shape == (4, 4, 2)
        assert grid.dropped_points == 0
        assert np.all(grid.hit_count == 0)

    def test_conserves_weighted_mass(self):
        # with all points inside and unit features, cell sums recover the
        # total weight
        rng = np.random.default_rng(4)
        n = 1000
        cloud = WedgeCloud(
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
        doubled = WedgeCloud(cloud.positions, cloud.features, cloud.weights * 2.0)
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

    @given(st.integers(0, 2**32 - 1))
    def test_oracle_agreement_property(self, seed):
        rng = np.random.default_rng(seed)
        cloud = random_cloud(rng, int(rng.integers(0, 120)))
        grid = pool(cloud, SMALL)
        data, hits, dropped = pool_oracle(cloud, SMALL)
        np.testing.assert_array_equal(grid.data, data)
        np.testing.assert_array_equal(grid.hit_count, hits)
        assert grid.dropped_points == dropped
