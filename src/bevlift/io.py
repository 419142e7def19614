"""Artifact serialization: CSV with a provenance comment, canonical JSON,
and a small binary tensor container.

A table is a header plus one equal-length 1-D column per header entry;
the *_table functions build them from pipeline results without a
per-row loop, and write_table writes one in any of the three formats.
Every CSV starts with one comment line carrying the run's config hash
and seed so artifacts stay traceable without a sidecar file.
A CSV field is str of the Python scalar the column holds (table_rows),
which for a float is its repr: it round-trips float64 exactly and keeps
files byte-stable across runs.  The tensor container is magic + dims +
float32 little-endian payload; see write_tensor.
"""
from __future__ import annotations

import json
from itertools import islice
from pathlib import Path

import numpy as np

from .bevpool import BevGrid
from .errors import ConfigError, PipelineError
from .lifting import WedgeCloud
from .robustness import DEPTH_BIN_M, HEIGHT_BIN_M, V_BIN_PX, ErrorReport, OverlapReport
from .scene import Histogram, PixelMaps

TENSOR_MAGIC = b"BTF1"

# Rows converted to Python scalars, and formatted, at a time: a table is
# streamed to its file, never held whole as Python objects or text.
CSV_CHUNK_ROWS = 4096


def write_csv(path, header, rows, meta: dict | None = None) -> None:
    """Write rows of Python scalars (see table_rows) to CSV, preceded by
    a '# key=value ...' comment when meta is given.  Each field is str of
    its value; values must not contain commas or newlines."""
    rows = iter(rows)
    with open(path, "w") as handle:
        if meta:
            handle.write("# " + " ".join(f"{k}={meta[k]}" for k in meta) + "\n")
        handle.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            handle.write("".join(",".join(map(str, row)) + "\n" for row in chunk))


def read_csv(path):
    """Inverse of write_csv: (meta dict, header list, rows of strings)."""
    text = Path(path).read_text().splitlines()
    meta: dict[str, str] = {}
    if text and text[0].startswith("# "):
        for part in text[0][2:].split():
            key, _, value = part.partition("=")
            meta[key] = value
        text = text[1:]
    if not text:
        raise PipelineError(f"{path}: no header line")
    header = text[0].split(",")
    rows = [line.split(",") for line in text[1:] if line]
    return meta, header, rows


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def write_tensor(path, array: np.ndarray) -> None:
    """Binary tensor: b'BTF1', uint32 ndim, uint32 per-dim sizes, then the
    float32 payload, all little-endian, C order."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(TENSOR_MAGIC)
        fh.write(np.uint32(arr.ndim).astype("<u4").tobytes())
        fh.write(np.asarray(arr.shape, dtype="<u4").tobytes())
        fh.write(arr.data)


def read_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != TENSOR_MAGIC:
        raise PipelineError(f"{path}: bad tensor magic {raw[:4]!r}")
    ndim = int(np.frombuffer(raw, dtype="<u4", count=1, offset=4)[0])
    shape = np.frombuffer(raw, dtype="<u4", count=ndim, offset=8)
    payload = np.frombuffer(raw, dtype="<f4", offset=8 + 4 * ndim)
    expected = int(np.prod(shape)) if ndim else payload.size
    if payload.size != expected:
        raise PipelineError(f"{path}: payload holds {payload.size} values, shape wants {expected}")
    return payload.reshape(tuple(int(s) for s in shape)).astype(np.float64)


def write_table(out: Path, stem: str, fmt: str, header, columns, meta: dict) -> Path:
    """Write a table in the format fmt and return its path: csv as
    out/stem.csv with the meta comment line; json as out/stem.json, one
    object of meta, header and rows; bin as a float32 (rows, columns)
    matrix out/stem.btf plus out/stem.meta.json of meta and header."""
    if fmt not in ("csv", "json", "bin"):
        raise ConfigError(f"unknown format {fmt!r}")
    target = out / f"{stem}.{'btf' if fmt == 'bin' else fmt}"
    if fmt == "csv":
        write_csv(target, header, table_rows(columns), meta)
        return target
    if fmt == "json":
        matrix = np.column_stack(columns).astype(np.float64, copy=False)
        write_json(target, {"meta": meta, "header": list(header), "rows": matrix.tolist()})
        return target
    # Filled a column at a time, with no float64 copy of the table: its
    # ints are exact in float64, so each cast rounds as one through it.
    matrix = np.empty((len(columns[0]), len(columns)), dtype="<f4")
    for j, column in enumerate(columns):
        matrix[:, j] = column
    write_tensor(target, matrix)
    write_json(out / f"{stem}.meta.json", {"meta": meta, "header": list(header)})
    return target


def table_rows(columns):
    """Rows of Python scalars from a table's equal-length 1-D columns,
    the rows write_csv takes, converted CSV_CHUNK_ROWS rows at a time."""
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    for start in range(0, n_rows, CSV_CHUNK_ROWS):
        yield from zip(*(c[start:start + CSV_CHUNK_ROWS].tolist() for c in columns))


def wedge_table(cloud: WedgeCloud):
    header = ["x", "y", "z", "weight"] + [f"f{c}" for c in range(cloud.channels)]
    return header, [*cloud.positions.T, cloud.weights, *cloud.features.T]


def bev_table(grid: BevGrid):
    """One row per cell in row-major order, with cell centers attached."""
    spec = grid.spec
    header = ["ix", "iy", "cx", "cy", "hits"] + [f"c{c}" for c in range(spec.channels)]
    ix, iy = np.divmod(np.arange(spec.n_x * spec.n_y), spec.n_y)
    cx = spec.x_min + (ix + 0.5) * spec.res_x
    cy = spec.y_min + (iy + 0.5) * spec.res_y
    data = grid.data.reshape(-1, spec.channels)
    return header, [ix, iy, cx, cy, grid.hit_count.ravel(), *data.T]


def maps_table(maps: PixelMaps):
    header = ["u", "v", "depth", "height", "hit_kind"]
    uu, vv = maps.pixel_grid()
    return header, [
        a.ravel() for a in (uu, vv, maps.depth, maps.height_above_ground, maps.hit_kind)
    ]


def histogram_table(hist: Histogram):
    return ["bin_left", "bin_right", "count"], [hist.edges[:-1], hist.edges[1:], hist.counts]


def error_report_table(report: ErrorReport):
    header = ["trial", "object", "parameterization", "error_m", "true_distance_m", "n_pixels"]
    return header, [
        report.trials,
        report.objects,
        report.parameterizations,
        report.errors_m,
        report.true_distances_m,
        report.n_pixels,
    ]


def law_check_table(columns):
    header = ["u", "v", "h", "delta_h", "d_true", "predicted_m", "simulated_m", "abs_diff_m"]
    return header, list(columns)


def overlap_report_dict(report: OverlapReport) -> dict:
    return {
        "overlap_depth": report.overlap_depth,
        "overlap_height": report.overlap_height,
        "height_wins": report.height_wins,
        "n_trials": int(report.trial_overlap_depth.size),
        "n_points": report.n_points,
        "sample_stride": report.sample_stride,
        "bins": {
            "v_px": V_BIN_PX,
            "depth_m": DEPTH_BIN_M,
            "height_m": HEIGHT_BIN_M,
        },
        "trials": [
            {
                "roll_deg": float(report.rolls_deg[k]),
                "pitch_deg": float(report.pitches_deg[k]),
                "overlap_depth": float(report.trial_overlap_depth[k]),
                "overlap_height": float(report.trial_overlap_height[k]),
            }
            for k in range(report.trial_overlap_depth.size)
        ],
    }
