"""Serialization tests: CSV fields and byte stability, the tensor
container, and the column tables of the pipeline artifacts."""
import math
import tracemalloc

import numpy as np
import pytest

from bevlift.bevpool import GridSpec, pool
from bevlift.errors import PipelineError
from bevlift.io import (
    CSV_CHUNK_ROWS,
    TENSOR_MAGIC,
    bev_table,
    error_report_table,
    histogram_table,
    maps_table,
    overlap_report_dict,
    read_csv,
    read_json,
    read_tensor,
    table_rows,
    wedge_table,
    write_csv,
    write_json,
    write_table,
    write_tensor,
)
from bevlift.robustness import ErrorReport, OverlapReport
from bevlift.scene import HIT_GROUND, HIT_SKY, PixelMaps, histogram
from strategies import points_cloud


def csv_fields(tmp_path, *columns):
    """The fields write_csv writes for table_rows(columns), row by row."""
    path = tmp_path / "fields.csv"
    write_csv(path, [f"c{k}" for k in range(len(columns))], table_rows(columns))
    return read_csv(path)[2]


class TestFmt:
    """CSV fields: str of the Python scalars table_rows yields."""

    def test_floats_use_repr(self, tmp_path):
        rows = csv_fields(tmp_path, [0.1, 1.0 / 3.0, 104.0], [np.float64(2.5)] * 3)
        assert rows == [["0.1", "2.5"], ["0.3333333333333333", "2.5"], ["104.0", "2.5"]]

    def test_repr_round_trips_float64(self, tmp_path):
        values = [0.1, 1.0 / 3.0, 1e-17, 5862908691396908e-16, np.pi]
        rows = csv_fields(tmp_path, values, np.array(values))
        for (listed, arrayed), x in zip(rows, values):
            assert listed == arrayed == repr(x)
            assert float(listed) == x

    def test_ints_and_strings(self, tmp_path):
        assert csv_fields(tmp_path, [7], [np.int64(-3)], np.array([-3]), ["height"]) == [
            ["7", "-3", "-3", "height"]
        ]

    def test_float32_column_writes_repr_of_float(self, tmp_path):
        col = np.array([0.1, 1.0 / 3.0, 2.5, -7.0], dtype=np.float32)
        assert [row[0] for row in csv_fields(tmp_path, col)] == [repr(float(x)) for x in col]
        assert csv_fields(tmp_path, col)[0] == ["0.10000000149011612"]

    def test_table_rows_yield_python_scalars(self):
        rows = list(table_rows([np.array([1.5]), np.array([2], dtype=np.int32), ["a"]]))
        assert rows == [(1.5, 2, "a")]
        assert [type(v) for v in rows[0]] == [float, int, str]


class TestCsv:
    def test_round_trip_with_meta(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            ["a", "b"],
            [(1, 0.5), (2, 1.0 / 3.0)],
            meta={"config_hash": "abc123", "seed": 7},
        )
        meta, header, rows = read_csv(path)
        assert meta == {"config_hash": "abc123", "seed": "7"}
        assert header == ["a", "b"]
        assert [float(r[1]) for r in rows] == [0.5, 1.0 / 3.0]

    def test_no_meta_no_comment_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a"], [(1,)])
        assert path.read_text() == "a\n1\n"

    def test_writes_are_byte_stable(self, tmp_path):
        rows = [(i, i * 0.1) for i in range(50)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["i", "v"], rows, meta={"seed": 0})
        write_csv(b, ["i", "v"], rows, meta={"seed": 0})
        assert a.read_bytes() == b.read_bytes()

    def test_table_longer_than_a_chunk_round_trips(self, tmp_path):
        n = 2 * CSV_CHUNK_ROWS + 3
        values = np.random.default_rng(0).standard_normal(n)
        path = tmp_path / "t.csv"
        write_csv(path, ["i", "v"], table_rows([np.arange(n), values]), meta={"seed": 0})
        _, header, rows = read_csv(path)
        assert header == ["i", "v"]
        assert [int(r[0]) for r in rows] == list(range(n))
        assert np.array_equal([float(r[1]) for r in rows], values)

    def test_table_is_streamed(self, tmp_path):
        # 60000 rows of 4 floats take about 22 MiB when held whole as
        # Python floats and lines of text; streamed a chunk at a time they
        # peak below 2 MiB.
        columns = np.random.default_rng(1).standard_normal((4, 60000))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], table_rows(columns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(PipelineError):
            read_csv(path)


class TestJson:
    def test_sorted_keys_and_newline(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")
        assert read_json(path) == {"a": 2, "b": 1}


class TestTensor:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.btf"
        arr = np.random.default_rng(0).normal(size=(3, 4, 2)).astype(np.float32)
        write_tensor(path, arr)
        back = read_tensor(path)
        assert back.shape == (3, 4, 2)
        np.testing.assert_array_equal(back, arr.astype(np.float64))

    def test_float64_payload_is_cast(self, tmp_path):
        path = tmp_path / "t.btf"
        arr = np.array([[0.1, 0.2]])
        write_tensor(path, arr)
        np.testing.assert_allclose(read_tensor(path), arr, atol=1e-7)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.btf"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        raw = path.read_bytes()
        assert raw[:4] == TENSOR_MAGIC
        assert np.frombuffer(raw, "<u4", 1, 4)[0] == 2
        np.testing.assert_array_equal(np.frombuffer(raw, "<u4", 2, 8), [2, 3])
        assert len(raw) == 4 + 4 + 8 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.btf"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(PipelineError):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.btf"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(PipelineError):
            read_tensor(path)

    def test_bin_table_holds_only_its_float32_payload(self, tmp_path):
        # 100000 rows of an int column past float32's exact range and seven
        # float64 ones: a 3.2 MB payload.  A float64 copy of the table, or
        # a bytes copy of the payload, would each add 3.2 to 6.4 MB.
        n = 100_000
        columns = [np.arange(n) * 977 + 2**25, *np.random.default_rng(2).standard_normal((7, n))]
        tracemalloc.start()
        try:
            path = write_table(tmp_path, "t", "bin", list("abcdefgh"), columns, {"seed": 0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * 8 * 4
        # each value rounds to float32 as it does through float64
        expected = np.column_stack(columns).astype(np.float64).astype("<f4")
        assert path.read_bytes()[4 + 4 + 8:] == expected.tobytes()


class TestRowGenerators:
    """The rows table_rows yields from each artifact table's columns."""

    def test_wedge_rows(self):
        cloud = points_cloud(
            np.array([[1.0, 2.0, 3.0]]), np.array([[0.5, -0.5]]), np.array([0.25])
        )
        header, columns = wedge_table(cloud)
        assert header == ["x", "y", "z", "weight", "f0", "f1"]
        assert list(table_rows(columns)) == [(1.0, 2.0, 3.0, 0.25, 0.5, -0.5)]

    def test_bev_rows_row_major_with_centers(self):
        spec = GridSpec(0.0, 2.0, 0.0, 2.0, 1.0, 1.0, 1)
        cloud = points_cloud(
            np.array([[0.5, 1.5, 0.0]]), np.array([[2.0]]), np.array([1.0])
        )
        grid = pool(cloud, spec)
        header, columns = bev_table(grid)
        rows = list(table_rows(columns))
        assert header == ["ix", "iy", "cx", "cy", "hits", "c0"]
        assert [r[:2] for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert rows[1] == (0, 1, 0.5, 1.5, 1, 2.0)
        assert [type(v) for v in rows[1]] == [int, int, float, float, int, float]

    def test_bev_centers_match_per_cell_arithmetic(self):
        spec = GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, 1)
        cloud = points_cloud(np.zeros((0, 3)), np.zeros((0, 1)), np.zeros(0))
        rows = list(table_rows(bev_table(pool(cloud, spec))[1]))
        expected = [
            (ix, iy, spec.x_min + (ix + 0.5) * spec.res_x, spec.y_min + (iy + 0.5) * spec.res_y)
            for ix in range(spec.n_x) for iy in range(spec.n_y)
        ]
        assert [r[:4] for r in rows] == expected

    def test_maps_rows(self, tmp_path):
        maps = PixelMaps(
            2,
            1,
            np.array([[5.0, np.nan]]),
            np.array([[0.0, np.nan]]),
            np.array([[HIT_GROUND, HIT_SKY]]),
            sample_stride=16,
        )
        header, columns = maps_table(maps)
        rows = list(table_rows(columns))
        assert header == ["u", "v", "depth", "height", "hit_kind"]
        assert rows[0] == (8.0, 8.0, 5.0, 0.0, 0)
        assert rows[1][0] == 24.0 and rows[1][4] == -1
        assert math.isnan(rows[1][2]) and math.isnan(rows[1][3])
        assert csv_fields(tmp_path, *columns)[1] == ["24.0", "8.0", "nan", "nan", "-1"]

    def test_histogram_rows(self):
        header, columns = histogram_table(histogram([0.1, 0.9], 0.5))
        rows = list(table_rows(columns))
        assert header == ["bin_left", "bin_right", "count"]
        assert rows[0] == (0.0, 0.5, 1)
        assert rows[1] == (0.5, 1.0, 1)

    def test_error_report_rows(self):
        report = ErrorReport(
            trials=np.array([0, 0]),
            objects=np.array([1, 1]),
            parameterizations=np.array(["height", "depth"]),
            errors_m=np.array([0.1, 0.2]),
            true_distances_m=np.array([20.0, 20.0]),
            n_pixels=np.array([5, 5]),
        )
        header, columns = error_report_table(report)
        assert all(c is getattr(report, name) for c, name in zip(columns, (
            "trials", "objects", "parameterizations", "errors_m", "true_distances_m",
            "n_pixels",
        )))
        np.testing.assert_array_equal(report.errors_for("depth"), [0.2])
        rows = list(table_rows(columns))
        assert header[:3] == ["trial", "object", "parameterization"]
        assert rows[0] == (0, 1, "height", 0.1, 20.0, 5)

    def test_overlap_report_dict(self):
        report = OverlapReport(
            overlap_depth=0.5,
            overlap_height=0.9,
            n_points=100,
            sample_stride=8,
            rolls_deg=np.array([0.1, -0.2]),
            pitches_deg=np.array([0.3, 0.4]),
            trial_overlap_depth=np.array([0.5, 0.5]),
            trial_overlap_height=np.array([0.9, 0.9]),
        )
        doc = overlap_report_dict(report)
        assert doc["height_wins"] == 2
        assert doc["n_trials"] == 2
        assert doc["sample_stride"] == 8
        assert doc["bins"] == {"v_px": 16.0, "depth_m": 2.0, "height_m": 0.1}
        assert len(doc["trials"]) == 2
        assert doc["trials"][1]["roll_deg"] == pytest.approx(-0.2)
