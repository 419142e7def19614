"""Bin edge and index tests.

Each strategy gets an independently computed frozen edge set (worked out
from the closed forms by hand, noted inline) plus a searchsorted oracle:
for any in-range value, the analytic index must match the index found by
scanning the edge array.
"""
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift.binning import (
    BinSpec,
    bin_edges,
    bin_midpoints,
    value_to_bin,
)
from bevlift.errors import ConfigError, OutOfRange
from strategies import height_binspec_st


def searchsorted_index(value: float, spec: BinSpec) -> int:
    """Reference inverse: locate the half-open interval containing value
    by scanning the edges; the top edge belongs to the last bin."""
    edges = bin_edges(spec)
    idx = int(np.searchsorted(edges, value, side="right")) - 1
    return min(max(idx, 0), spec.n_bins - 1)


class TestSpecValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            BinSpec("QD", 4, 0.0, 1.0)

    def test_empty_range(self):
        with pytest.raises(ConfigError):
            BinSpec("UD", 4, 1.0, 1.0)

    @pytest.mark.parametrize("field", ["range_min", "range_max", "alpha"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        doc = {"strategy": "DID", "n_bins": 4, "range_min": 0.0, "range_max": 1.0,
               "alpha": 1.2, field: bad}
        with pytest.raises(ConfigError, match=field):
            BinSpec.from_json_dict(doc)

    @pytest.mark.parametrize("strategy, n_bins, lo, hi", [
        # the span overflows
        *((s, 6, -1.7e308, 1.7e308) for s in ("UD", "SID", "LID", "DID", "DEPTH_UD")),
        # every edge is finite, but the last two sum past the largest double
        ("DEPTH_UD", 6, 1.0, 1.7e308),
        # the LID base width overflows, and with it the index of range_max
        ("LID", 1, -1e308, 3.6),
        # both ends bin right, but 8 * (value - range_min) overflows inside
        # the range: 3e307 would bin last, where its edges give bin 4
        ("LID", 6, 0.0, 5e307),
    ])
    def test_rejects_bounds_that_overflow_the_bin_arithmetic(self, strategy, n_bins, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=f"overflows the {strategy} bin arithmetic"):
                BinSpec(strategy, n_bins, lo, hi, 1.2 if strategy == "DID" else None)

    @pytest.mark.parametrize("strategy", ["UD", "SID", "DID", "DEPTH_UD"])
    def test_a_single_huge_bin_is_sound(self, strategy):
        # Its one midpoint, 8.5e307, is finite, and both ends map to bin 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = BinSpec(strategy, 1, 1.0, 1.7e308, 1.2 if strategy == "DID" else None)
            assert value_to_bin([1.0, 1.7e308], spec).tolist() == [0, 0]

    @pytest.mark.parametrize("strategy", ["UD", "SID", "LID", "DID", "DEPTH_UD"])
    def test_a_huge_bin_count_loads_without_building_its_edges(self, strategy):
        # The load checks read the end edges only: 2**29 bins would take
        # 4 GiB of edges and as much again of midpoints.
        tracemalloc.start()
        try:
            BinSpec(strategy, 2**29, 0.0, 1.0, 1.2 if strategy == "DID" else None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_did_needs_alpha(self):
        with pytest.raises(ConfigError):
            BinSpec("DID", 4, 0.0, 1.0)
        with pytest.raises(ConfigError):
            BinSpec("DID", 4, 0.0, 1.0, alpha=0.0)

    def test_json_round_trip(self):
        spec = BinSpec("DID", 90, -0.2, 3.6, 1.2)
        assert BinSpec.from_json_dict(asdict(spec)) == spec
        plain = BinSpec("UD", 10, 0.0, 5.0)
        assert BinSpec.from_json_dict(asdict(plain)) == plain

    def test_malformed_doc(self):
        with pytest.raises(ConfigError):
            BinSpec.from_json_dict({"strategy": "UD", "n_bins": "many"})

    @pytest.mark.parametrize("strategy", ["UD", "SID", "LID", "DID", "DEPTH_UD"])
    def test_kind_rule(self, strategy):
        spec = BinSpec(strategy, 4, 1.0, 9.0, 1.2 if strategy == "DID" else None)
        right, wrong = ("depth", "height") if strategy == "DEPTH_UD" else ("height", "depth")
        spec.check_kind(right, "some_bins")
        with pytest.raises(ConfigError) as err:
            spec.check_kind(wrong, "some_bins")
        wanted = "the DEPTH_UD strategy" if wrong == "depth" else "a height strategy"
        assert str(err.value) == f"some_bins must use {wanted}, not {strategy}"


class TestFrozenEdges:
    def test_ud_edges(self):
        # [0, 8) in 4 bins: plain quarters
        np.testing.assert_allclose(
            bin_edges(BinSpec("UD", 4, 0.0, 8.0)), [0.0, 2.0, 4.0, 6.0, 8.0]
        )

    def test_did_alpha2_edges(self):
        # edge(i) = (i/4)^2: 0, 1/16, 4/16, 9/16, 1
        np.testing.assert_allclose(
            bin_edges(BinSpec("DID", 4, 0.0, 1.0, alpha=2.0)),
            [0.0, 1.0 / 16.0, 0.25, 9.0 / 16.0, 1.0],
            atol=1e-15,
        )

    def test_lid_edges(self):
        # widths proportional to 1,2,3,4 over span 10: base = 1, partial
        # sums 0,1,3,6,10
        np.testing.assert_allclose(
            bin_edges(BinSpec("LID", 4, 0.0, 10.0)), [0.0, 1.0, 3.0, 6.0, 10.0]
        )

    def test_sid_edges(self):
        # range [1, 8]: shift = 0, edges exp(log(8) * i/3) = 1, 2, 4, 8
        np.testing.assert_allclose(
            bin_edges(BinSpec("SID", 3, 1.0, 8.0)), [1.0, 2.0, 4.0, 8.0], atol=1e-12
        )

    def test_sid_shifted_edges(self):
        # range [-1, 6]: shift = 2, shifted range [1, 8] as above, minus 2
        np.testing.assert_allclose(
            bin_edges(BinSpec("SID", 3, -1.0, 6.0)), [-1.0, 0.0, 2.0, 6.0], atol=1e-12
        )

    def test_depth_ud_matches_ud_arithmetic(self):
        a = bin_edges(BinSpec("UD", 206, 1.0, 104.0))
        b = bin_edges(BinSpec("DEPTH_UD", 206, 1.0, 104.0))
        assert np.array_equal(a, b)

    def test_endpoint_edges_are_exact(self):
        spec = BinSpec("SID", 7, -0.3, 3.3)
        edges = bin_edges(spec)
        assert edges[0] == -0.3 and edges[-1] == 3.3

    @given(height_binspec_st())
    def test_edges_strictly_increasing(self, spec):
        edges = bin_edges(spec)
        assert edges.shape == (spec.n_bins + 1,)
        assert np.all(np.diff(edges) > 0)


class TestFrozenIndices:
    def test_did_experiment_case(self):
        # 90 bins over [-1, 1], alpha 2: t = 0.25 for value -0.5, index
        # floor(90 * 0.5) = 45
        spec = BinSpec("DID", 90, -1.0, 1.0, alpha=2.0)
        assert value_to_bin(-0.5, spec) == 45

    def test_ud_simple_cases(self):
        spec = BinSpec("UD", 4, 0.0, 8.0)
        assert value_to_bin(0.0, spec) == 0
        assert value_to_bin(1.999, spec) == 0
        assert value_to_bin(2.0, spec) == 1
        assert value_to_bin(8.0, spec) == 3  # top edge joins the last bin

    def test_lid_quadratic_inverse(self):
        spec = BinSpec("LID", 4, 0.0, 10.0)
        assert value_to_bin(0.5, spec) == 0
        assert value_to_bin(2.9, spec) == 1
        assert value_to_bin(3.0, spec) == 2
        assert value_to_bin(9.999, spec) == 3

    def test_out_of_range(self):
        spec = BinSpec("UD", 4, 0.0, 8.0)
        with pytest.raises(OutOfRange):
            value_to_bin(-1e-9, spec)
        with pytest.raises(OutOfRange):
            value_to_bin(8.0 + 1e-9, spec)
        with pytest.raises(OutOfRange):
            value_to_bin(np.nan, spec)

    @pytest.mark.parametrize("value", [0.0, np.float64(0.0), np.array([2.0, 0.0, -3.5])])
    def test_out_of_range_message_prints_the_float(self, value):
        with pytest.raises(OutOfRange) as err:
            value_to_bin(value, BinSpec("DEPTH_UD", 30, 1.0, 121.0))
        assert str(err.value) == "value 0.0 outside bin range [1.0, 121.0]"

    def test_array_input_with_one_offender(self):
        spec = BinSpec("UD", 4, 0.0, 8.0)
        with pytest.raises(OutOfRange):
            value_to_bin(np.array([1.0, 9.0]), spec)
        idx = value_to_bin(np.array([0.5, 7.5]), spec)
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, [0, 3])


class TestAnalyticInverseMatchesEdgeScan:
    @given(height_binspec_st(), st.floats(0.0, 1.0))
    def test_index_agrees_with_searchsorted(self, spec, frac):
        value = spec.range_min + frac * spec.span
        got = value_to_bin(value, spec)
        want = searchsorted_index(value, spec)
        # floating noise can push a value sitting exactly on an edge to
        # either side; accept the neighbour only when that happens
        if got != want:
            edges = bin_edges(spec)
            boundary = edges[max(got, want)]
            assert abs(value - boundary) <= 1e-9 * max(1.0, abs(boundary))
        else:
            assert got == want

    @given(height_binspec_st())
    def test_every_midpoint_maps_to_its_own_bin(self, spec):
        mids = bin_midpoints(spec)
        np.testing.assert_array_equal(
            value_to_bin(mids, spec), np.arange(spec.n_bins)
        )


class TestDidFamily:
    def test_alpha_one_is_uniform(self):
        did = BinSpec("DID", 90, -1.0, 3.6, alpha=1.0)
        ud = BinSpec("UD", 90, -1.0, 3.6)
        assert np.max(np.abs(bin_edges(did) - bin_edges(ud))) <= 1e-12
        values = np.linspace(-1.0, 3.6, 1001)
        np.testing.assert_array_equal(value_to_bin(values, did), value_to_bin(values, ud))

    def test_larger_alpha_packs_bins_toward_range_min(self):
        widths = []
        for alpha in (1.0, 1.5, 2.0):
            edges = bin_edges(BinSpec("DID", 16, 0.0, 4.0, alpha=alpha))
            widths.append(edges[1] - edges[0])
        assert widths[0] > widths[1] > widths[2]


class TestRepresentatives:
    def test_midpoint_values(self):
        spec = BinSpec("UD", 4, 0.0, 8.0)
        np.testing.assert_allclose(bin_midpoints(spec), [1.0, 3.0, 5.0, 7.0])

    @given(height_binspec_st())
    def test_round_trip_value_index_value(self, spec):
        # the representative of a value's bin stays inside that bin
        edges = bin_edges(spec)
        for frac in (0.1, 0.5, 0.9):
            value = spec.range_min + frac * spec.span
            idx = value_to_bin(value, spec)
            rep = bin_midpoints(spec)[idx]
            assert edges[idx] <= rep <= edges[idx + 1]
