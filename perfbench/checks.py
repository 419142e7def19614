"""Output checks of the benchmark items.

Every check returns a list of problems (empty when the output is right).
No check calls the code an item times: counts come from camera geometry,
tables are parsed here rather than by bevlift.io, and the reference grid
is rebuilt from the vectorised per-pixel lifts plus np.bincount.  Float
comparisons allow for reassociation: a pooled cell may differ from the
reference by 1e-9 of the absolute mass summed into it.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from bevlift.binning import bin_midpoints
from bevlift.geometry import pixel_to_ref_cam
from bevlift.lifting import lift_many_depth, lift_many_height

HORIZON_EPS = 1e-6  # a feature cell carries height bins only above this y_ref
REL_TOL = 1e-9
LAW_TOL_M = 1e-9
TENSOR_MAGIC = b"BTF1"


# ---- frames ---------------------------------------------------------------

def cell_rays(rig, stride: int):
    """Pixel centres of the feature grid and the virtual-frame y of each
    cell's depth-1 reference point, cells row-major."""
    width = rig.intrinsics.image_w // stride
    height = rig.intrinsics.image_h // stride
    us = np.tile((np.arange(width) + 0.5) * stride, height)
    vs = np.repeat((np.arange(height) + 0.5) * stride, width)
    y_ref = pixel_to_ref_cam(us, vs, rig.intrinsics) @ rig.t_cam_virt[1]
    return us, vs, y_ref


def check_frame(frame, rig, stride: int, height_bins, depth_bins) -> list[str]:
    """Point counts follow from the geometry, and pooling loses no point."""
    _, _, y_ref = cell_rays(rig, stride)
    descending = int(np.count_nonzero(y_ref > HORIZON_EPS))
    problems = []
    expected = {
        "height": descending * height_bins.n_bins,
        "depth": y_ref.size * depth_bins.n_bins,
    }
    for kind, cloud, grid in (("height", frame.wedge_h, frame.bev_h),
                              ("depth", frame.wedge_d, frame.bev_d)):
        if cloud.n_points != expected[kind]:
            problems.append(f"{kind}: {cloud.n_points} points, geometry gives {expected[kind]}")
        pooled = int(grid.hit_count.sum()) + int(grid.dropped_points)
        if pooled != cloud.n_points:
            problems.append(f"{kind}: hits + dropped = {pooled} != {cloud.n_points} points")
    if frame.wedge_h.skipped_cells != y_ref.size - descending:
        problems.append(f"height: {frame.wedge_h.skipped_cells} skipped cells, "
                        f"geometry gives {y_ref.size - descending}")
    return problems


def reference_pool(kind: str, rig, stride: int, bins, dist, context, spec,
                   chunk_cells: int = 256):
    """(data, hit_count, dropped, abs_mass, ambiguous, n_edge) of one
    lift+pool, rebuilt from lift_many_* and np.bincount a few cells at a
    time, so the reference adds little to the run's peak memory.

    ambiguous marks cells next to one of the n_edge points that lie within
    rounding of a cell edge; such a point may land on either side after
    reassociation.
    """
    us, vs, y_ref = cell_rays(rig, stride)
    mids = bin_midpoints(bins)
    n_bins = mids.size
    weights = dist.data.reshape(-1, n_bins) * dist.cell_weight.reshape(-1)[:, None]
    features = context.data.reshape(-1, context.channels)
    lift = lift_many_height if kind == "height" else lift_many_depth
    cells = np.flatnonzero(y_ref > HORIZON_EPS) if kind == "height" else np.arange(us.size)

    n_cells = spec.n_x * spec.n_y
    data = np.zeros((n_cells, spec.channels))
    abs_mass = np.zeros((n_cells, spec.channels))
    hits = np.zeros(n_cells, dtype=np.int64)
    ambiguous = np.zeros((spec.n_x, spec.n_y), dtype=bool)
    dropped = n_edge = 0
    for lo in range(0, cells.size, chunk_cells):
        part = cells[lo:lo + chunk_cells]
        points = lift(np.repeat(us[part], n_bins), np.repeat(vs[part], n_bins),
                      np.tile(mids, part.size), rig)
        fx = (points[:, 0] - spec.x_min) / spec.res_x
        fy = (points[:, 1] - spec.y_min) / spec.res_y
        ix, iy = np.floor(fx).astype(np.int64), np.floor(fy).astype(np.int64)
        inside = (ix >= 0) & (ix < spec.n_x) & (iy >= 0) & (iy < spec.n_y)
        dropped += int(np.count_nonzero(~inside))
        flat = (ix * spec.n_y + iy)[inside]
        hits += np.bincount(flat, minlength=n_cells)
        contrib = (np.repeat(features[part], n_bins, axis=0)
                   * weights[part].reshape(-1, 1))[inside]
        for c in range(spec.channels):
            data[:, c] += np.bincount(flat, contrib[:, c], n_cells)
            abs_mass[:, c] += np.bincount(flat, np.abs(contrib[:, c]), n_cells)

        edge = (np.abs(fx - np.round(fx)) < 1e-9 * np.maximum(1.0, np.abs(fx))) | (
            np.abs(fy - np.round(fy)) < 1e-9 * np.maximum(1.0, np.abs(fy)))
        n_edge += int(np.count_nonzero(edge))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                jx, jy = ix[edge] + dx, iy[edge] + dy
                ok = (jx >= 0) & (jx < spec.n_x) & (jy >= 0) & (jy < spec.n_y)
                ambiguous[jx[ok], jy[ok]] = True
    grid = (spec.n_x, spec.n_y)
    return (data.reshape(*grid, spec.channels), hits.reshape(grid), dropped,
            abs_mass.reshape(*grid, spec.channels), ambiguous, n_edge)


def check_against_reference(frame, rig, stride, height_bins, depth_bins, spec) -> list[str]:
    """Pooled grids equal the bincount reference: hit counts exactly, data
    within 1e-9 of each cell's absolute mass."""
    problems = []
    for kind, bins, dist, grid in (
        ("height", height_bins, frame.dist_h, frame.bev_h),
        ("depth", depth_bins, frame.dist_d, frame.bev_d),
    ):
        data, hits, dropped, abs_mass, ambiguous, n_edge = reference_pool(
            kind, rig, stride, bins, dist, frame.context, spec)
        clear = ~ambiguous
        if not np.array_equal(grid.hit_count[clear], hits[clear]):
            problems.append(f"{kind}: hit counts differ from the reference")
        if abs(grid.dropped_points - dropped) > n_edge:
            problems.append(f"{kind}: {grid.dropped_points} dropped, reference {dropped}")
        err = np.abs(grid.data - data)[clear]
        limit = (REL_TOL * abs_mass + 1e-300)[clear]
        if not np.all(err <= limit):
            worst = float(np.max(err - limit))
            problems.append(f"{kind}: pooled data off the reference by {worst:.3e} beyond 1e-9")
    return problems


# ---- tables ---------------------------------------------------------------

def read_csv_table(path) -> np.ndarray:
    """float64 matrix of a numeric CSV with a header line and an optional
    '# ' comment line before it."""
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n", 1)
    if lines[0].startswith(b"# "):
        raw = lines[1]
    header_line, body = raw.split(b"\n", 1)
    n_cols = header_line.count(b",") + 1
    n_rows = body.count(b"\n")
    values = np.fromstring(body.replace(b"\n", b",").decode(), dtype=np.float64, sep=",")
    if values.size != n_rows * n_cols:
        raise ValueError(f"{path}: {values.size} values for {n_rows} rows of {n_cols}")
    return values.reshape(n_rows, n_cols)


def read_tensor(path) -> np.ndarray:
    """float32 payload of a BTF1 tensor file, shaped by its header."""
    raw = Path(path).read_bytes()
    if raw[:4] != TENSOR_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    ndim = int(np.frombuffer(raw, "<u4", 1, 4)[0])
    shape = tuple(int(s) for s in np.frombuffer(raw, "<u4", ndim, 8))
    payload = np.frombuffer(raw, "<f4", offset=8 + 4 * ndim)
    if payload.size != math.prod(shape):
        raise ValueError(f"{path}: {payload.size} values for shape {shape}")
    return payload.reshape(shape)


def dir_digest(directory) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir()) if p.is_file()
    }


# ---- lift artifacts ---------------------------------------------------------

WEDGE_STEMS = ("wedge_height", "wedge_depth")
BEV_STEMS = ("bev_height", "bev_depth")


def expected_rows(out_dir, n_cells: int) -> dict[str, int]:
    summary = json.loads((Path(out_dir) / "lift_summary.json").read_text())
    return {
        "wedge_height": summary["height"]["n_points"],
        "wedge_depth": summary["depth"]["n_points"],
        "bev_height": n_cells,
        "bev_depth": n_cells,
    }


def load_lift_tables(out_dir, fmt: str) -> dict[str, np.ndarray]:
    out_dir = Path(out_dir)
    tables = {}
    for stem in WEDGE_STEMS + BEV_STEMS:
        if fmt == "csv":
            tables[stem] = read_csv_table(out_dir / f"{stem}.csv")
        elif fmt == "bin":
            tables[stem] = read_tensor(out_dir / f"{stem}.btf")
        else:
            doc = json.loads((out_dir / f"{stem}.json").read_text())
            tables[stem] = np.asarray(doc["rows"], dtype=np.float64).reshape(
                len(doc["rows"]), len(doc["header"]))
    return tables


def float32_digests(tables: dict) -> dict:
    """Shape and digest of each table rounded to float32."""
    return {
        stem: (table.shape, hashlib.sha256(
            np.ascontiguousarray(table, dtype=np.float32).tobytes()).hexdigest())
        for stem, table in tables.items()
    }


def check_lift(code: int, out_dir, fmt: str, n_cells: int, csv_digests=None,
               same_seed_digest=None):
    """(problems, tables) of one `lift` run.

    Row counts follow lift_summary.json and the grid size.  A bin run is
    compared with the float32 digests of the csv tables of the same seed
    and, when given, with the file digest of an earlier bin run of the
    same seed.
    """
    if code != 0:
        return [f"lift exited {code}"], None
    try:
        rows = expected_rows(out_dir, n_cells)
        tables = load_lift_tables(out_dir, fmt)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable {fmt} output: {exc}"], None
    problems = [
        f"{stem}.{fmt}: {tables[stem].shape[0]} rows, expected {n}"
        for stem, n in rows.items() if tables[stem].shape[0] != n
    ]
    if fmt == "bin" and csv_digests is not None:
        for stem, digest in float32_digests(tables).items():
            if digest != csv_digests[stem]:
                problems.append(f"{stem}: bin table is not the csv table rounded to float32")
    if same_seed_digest is not None and dir_digest(out_dir) != same_seed_digest:
        problems.append(f"{fmt} files differ from an earlier run with the same seed")
    return problems, tables


# ---- robustness -------------------------------------------------------------

def check_robustness(code: int, out_dir, n_trials: int) -> list[str]:
    """Exit 0, the range-error law holds to 1e-9 m, every error is finite."""
    if code != 0:
        return [f"robustness exited {code}"]
    out_dir = Path(out_dir)
    try:
        summary = json.loads((out_dir / "robustness_summary.json").read_text())
        problems = []
        if not summary["law_max_abs_diff_m"] <= LAW_TOL_M:
            problems.append(f"law_max_abs_diff_m {summary['law_max_abs_diff_m']} > {LAW_TOL_M}")
        if summary["n_trials"] != n_trials:
            problems.append(f"{summary['n_trials']} trials, config asked {n_trials}")
        for stem in ("errors_clean", "errors_disturbed"):
            lines = (out_dir / f"{stem}.csv").read_text().splitlines()
            header = lines[1].split(",")
            col = header.index("error_m")
            errors = [float(line.split(",")[col]) for line in lines[2:] if line]
            if not errors:
                problems.append(f"{stem}: no rows")
            elif not all(math.isfinite(e) for e in errors):
                problems.append(f"{stem}: non-finite error")
        for key in ("overlap_depth", "overlap_height"):
            if not math.isfinite(summary[key]):
                problems.append(f"{key} is not finite")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable robustness output: {exc}"]
    return problems
