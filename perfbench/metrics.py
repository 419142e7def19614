"""Arithmetic of the reported metrics: percentiles, span counters and the
per-layer table of a traced run."""
from __future__ import annotations

import math
from pathlib import Path

from spans import BOOKKEEPING, Span, self_time_by_name


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) by linear interpolation between the two
    closest ranks, the same rule as numpy's default."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_samples(n: int, q: float) -> int:
    """Samples that lie beyond the q-th percentile of n samples."""
    return n - math.ceil(n * q / 100.0)


# ---- counters: run after a traced call returns, inside a bookkeeping span

def _count_render(rec, maps, args, kwargs):
    rec.count("scene.render.rays", maps.width * maps.height)


def _count_predict(rec, dist, args, kwargs):
    rec.count("scene.predict.cells", dist.width * dist.height)


def _count_wedge(kind):
    def counter(rec, cloud, args, kwargs):
        rec.count(f"lifting.points.{kind}", cloud.n_points)
        rec.count("lifting.skipped_cells", cloud.skipped_cells)
    return counter


def _count_lift_many(rec, points, args, kwargs):
    rec.count("lifting.lift_many.points", points.shape[0])


def _count_pool(rec, grid, args, kwargs):
    cloud = args[0]
    rec.count("bevpool.pool.points_in", cloud.n_points)
    rec.count("bevpool.pool.dropped", grid.dropped_points)
    rec.count("bevpool.pool.bytes_computed", (
        cloud.positions.nbytes + cloud.features.nbytes + cloud.weights.nbytes
        + grid.data.nbytes + grid.hit_count.nbytes
    ))


def _count_perturb(rec, rig, args, kwargs):
    rec.count("robustness.trials", 1)


def _count_write(writer, rows_of):
    def counter(rec, result, args, kwargs):
        path = Path(args[0])
        rec.count(f"io.{writer}.bytes_written", path.stat().st_size)
        rec.count(f"io.{writer}.rows_written", rows_of(path, args))
    return counter


def _csv_rows(path, args):
    rows, meta = args[2], (args[3] if len(args) > 3 else None)
    if hasattr(rows, "__len__"):
        return len(rows)
    # A generator was drained by the writer: count the lines it wrote.
    with open(path, "rb") as handle:
        lines = handle.read().count(b"\n")
    return lines - 1 - (1 if meta else 0)


def _json_rows(path, args):
    doc = args[1]
    return len(doc["rows"]) if isinstance(doc, dict) and "rows" in doc else 0


def _tensor_rows(path, args):
    return args[1].shape[0] if args[1].ndim else 1


COUNTERS = {
    "scene.render": _count_render,
    "scene.predict": _count_predict,
    "lifting.build_wedge": _count_wedge("height"),
    "lifting.build_wedge_depth": _count_wedge("depth"),
    "lifting.lift_many": _count_lift_many,
    "bevpool.pool": _count_pool,
    "robustness.perturb_rig": _count_perturb,
    "io.write_csv": _count_write("write_csv", _csv_rows),
    "io.write_json": _count_write("write_json", _json_rows),
    "io.write_tensor": _count_write("write_tensor", _tensor_rows),
}

SELF_TIME_SPANS = (
    "scene.render", "scene.predict",
    "lifting.build_wedge", "lifting.build_wedge_depth", "lifting.lift_many",
    "bevpool.pool",
    "robustness.localization_error", "robustness.scatter_overlap",
    "robustness.perturb_rig",
    "io.write_csv", "io.write_json",
    "cli.load_config", "cli.cmd", "cli.main",
)
COUNT_NAMES = (
    "scene.render.rays", "scene.predict.cells",
    "lifting.points.height", "lifting.points.depth", "lifting.skipped_cells",
    "lifting.lift_many.points",
    "bevpool.pool.points_in", "bevpool.pool.dropped", "bevpool.pool.bytes_computed",
    "robustness.trials",
)
WRITERS = ("write_csv", "write_json", "write_tensor")
# Writers with metrics of their own.  Only lift_artifacts, which is not in
# BENCHMARK.json, writes tensors; their time and bytes still count in the
# io totals.
PER_WRITER = ("write_csv", "write_json")
ITEM_SPAN = "bench.item"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: dict, traced_ips: float,
                  untraced_ips: float) -> dict[str, float]:
    """Per-layer table of a traced run, every value per traced item.

    Layer self times plus bench.glue.self_s and trace.bookkeeping.self_s
    add up to bench.item.wall_s; trace.accounted_frac shows that they do.
    """
    n_items = len({s.item for s in spans if s.name == ITEM_SPAN})
    if n_items == 0:
        raise ValueError("a traced run needs at least one traced item")
    own = self_time_by_name(spans)
    wall = sum(s.end - s.start for s in spans if s.name == ITEM_SPAN)
    out: dict[str, float] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.self_s"] = own.get(name, 0.0) / n_items
    out["bench.glue.self_s"] = own.get(ITEM_SPAN, 0.0) / n_items
    out["trace.bookkeeping.self_s"] = own.get(BOOKKEEPING, 0.0) / n_items
    out["bench.item.wall_s"] = wall / n_items
    out["trace.accounted_frac"] = _ratio(sum(own.values()), wall)
    for name in COUNT_NAMES:
        out[name] = counts.get(name, 0.0) / n_items

    out["lifting.point_ratio_depth_over_height"] = _ratio(
        counts.get("lifting.points.depth", 0.0), counts.get("lifting.points.height", 0.0))
    points_in = counts.get("bevpool.pool.points_in", 0.0)
    out["bevpool.pool.kept_frac"] = _ratio(
        points_in - counts.get("bevpool.pool.dropped", 0.0), points_in)
    out["bevpool.pool.gbps_computed"] = _ratio(
        counts.get("bevpool.pool.bytes_computed", 0.0), own.get("bevpool.pool", 0.0)) / 1e9

    total_bytes = total_rows = total_time = 0.0
    for writer in WRITERS:
        nbytes = counts.get(f"io.{writer}.bytes_written", 0.0)
        rows = counts.get(f"io.{writer}.rows_written", 0.0)
        seconds = own.get(f"io.{writer}", 0.0)
        if writer in PER_WRITER:
            out[f"io.{writer}.bytes_written"] = nbytes / n_items
            out[f"io.{writer}.rows_written"] = rows / n_items
            out[f"io.{writer}.mb_per_s"] = _ratio(nbytes, seconds) / 1e6
        total_bytes += nbytes
        total_rows += rows
        total_time += seconds
    out["io.bytes_written"] = total_bytes / n_items
    out["io.rows_written"] = total_rows / n_items
    out["io.mb_per_s"] = _ratio(total_bytes, total_time) / 1e6
    out["trace.overhead_frac"] = 1.0 - _ratio(traced_ips, untraced_ips)
    return out
