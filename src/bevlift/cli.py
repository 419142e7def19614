"""Command line front end.

Subcommands
    render      cast the scene into per-pixel depth/height/kind maps
    lift        run both lift paths end to end and pool them onto the grid
    robustness  disturbance studies: scatter overlap, localization error,
                and the analytic range-error law check
    bench       workload comparison of the two lift paths

Every run resolves one JSON experiment config, hashes it, and stamps the
hash plus the effective seed into every artifact (CSV comment line, JSON
field, or .meta.json sidecar next to binary tensors).  Exit codes: 0 on
success, 2 for configuration problems, 3 for pipeline failures; errors
are emitted to stderr as a one-line JSON record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as artio
from .bevpool import GridSpec, pool
from .binning import BinSpec
from .errors import ConfigError, PipelineError
from .geometry import CameraRig, rig_from_json_dict
from .lifting import (
    ContextMap,
    DistributionMap,
    build_wedge,
    build_wedge_depth,
    default_depth_spec,
    default_height_spec,
    fuse,
)
from .rng import substream
from .robustness import (
    DEPTH_BIN_M,
    HEIGHT_BIN_M,
    DisturbanceSpec,
    localization_error,
    scatter_overlap,
    simulate_range_bias,
    height_error_law,
)
from .scene import (
    NoiseModel,
    Scene,
    generate_scene,
    histogram,
    predict_depth_distribution,
    predict_height_distribution,
    render,
)

# Substream index for synthetic context features, distinct from scene use.
_CTX_STREAM = 101

_DEFAULT_GRID = {
    "x_min": 0.0, "x_max": 102.4, "y_min": -51.2, "y_max": 51.2,
    "res_x": 0.8, "res_y": 0.8,
}


@dataclass
class ExperimentConfig:
    rig: CameraRig
    scene: Scene | None
    height_bins: BinSpec
    depth_bins: BinSpec
    noise: NoiseModel
    disturbance: DisturbanceSpec
    bev_grid: GridSpec
    sample_stride: int = 16
    context_channels: int = 4
    bench_repeats: int = 3


# Every top-level key load_config reads; any other key is rejected.
_CONFIG_KEYS = frozenset({
    "rig", "scene", "seed", "sample_stride", "context_channels", "bench_repeats",
    "height_bins", "depth_bins", "noise", "disturbance", "bev_grid",
})


def _load_doc(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return doc


def _resolve_node(node, base: Path) -> dict:
    """A sub-config is either an inline object or a path to a JSON file,
    resolved relative to the experiment config."""
    if isinstance(node, str):
        return _load_doc(base / node if not Path(node).is_absolute() else node)
    if isinstance(node, dict):
        return node
    raise ConfigError(f"expected object or path, got {type(node).__name__}")


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path, seed_override: int | None = None):
    """Resolve an experiment config file.

    Returns (config, hash, seed).  The hash covers the fully resolved
    document (file references inlined) so renaming sub-config files does
    not change it but editing their contents does.  The effective seed is
    --seed when given, else the config's top-level "seed", else 0; it
    drives scene generation and synthetic context unless a sub-config
    pins its own seed.
    """
    path = Path(path)
    doc = _load_doc(path)
    base = path.parent
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if "rig" not in doc:
        raise ConfigError("config needs a 'rig' entry")
    resolved = dict(doc)
    resolved["rig"] = _resolve_node(doc["rig"], base)
    if doc.get("scene") is not None:
        resolved["scene"] = _resolve_node(doc["scene"], base)
    digest = config_hash(resolved)
    seed = seed_override if seed_override is not None else int(doc.get("seed", 0))

    rig = rig_from_json_dict(resolved["rig"])
    scene = None
    snode = resolved.get("scene")
    if snode is not None:
        if "boxes" in snode:
            scene = Scene.from_json_dict(snode)
        else:
            try:
                template = str(snode["template"])
                n_boxes = int(snode["n_boxes"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"scene spec needs template and n_boxes: {exc}") from exc
            extent = snode.get("extent")
            scene = generate_scene(
                template, n_boxes, int(snode.get("seed", seed)),
                tuple(extent) if extent is not None else None,
            )

    try:
        stride = int(doc.get("sample_stride", 16))
        channels = int(doc.get("context_channels", 4))
        repeats = int(doc.get("bench_repeats", 3))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scalar option: {exc}") from exc
    if stride < 1 or channels < 1 or repeats < 1:
        raise ConfigError("sample_stride, context_channels, bench_repeats must be >= 1")

    height_bins = (
        BinSpec.from_json_dict(doc["height_bins"])
        if "height_bins" in doc else default_height_spec()
    )
    depth_bins = (
        BinSpec.from_json_dict(doc["depth_bins"])
        if "depth_bins" in doc else default_depth_spec()
    )
    noise = (
        NoiseModel.from_json_dict(doc["noise"])
        if "noise" in doc else NoiseModel("one_hot_truth")
    )
    dist_doc = doc.get("disturbance", {})
    if "seed" not in dist_doc:
        dist_doc = {**dist_doc, "seed": seed}
    disturbance = DisturbanceSpec.from_json_dict(dist_doc)
    grid = GridSpec.from_json_dict({
        **_DEFAULT_GRID, "channels": channels, **doc.get("bev_grid", {}),
    })
    if grid.channels != channels:
        raise ConfigError("bev_grid channels must match context_channels")

    cfg = ExperimentConfig(
        rig=rig, scene=scene, height_bins=height_bins, depth_bins=depth_bins,
        noise=noise, disturbance=disturbance, bev_grid=grid,
        sample_stride=stride, context_channels=channels,
        bench_repeats=repeats,
    )
    return cfg, digest, seed


def _require_scene(cfg: ExperimentConfig) -> Scene:
    if cfg.scene is None:
        raise ConfigError("this subcommand needs a 'scene' entry in the config")
    return cfg.scene


def _write_table(out: Path, stem: str, fmt: str, header, rows, meta: dict) -> Path:
    """Write a numeric table in the requested format.

    csv keeps the meta comment line; json wraps meta, header, and rows in
    one object; bin stores a float32 matrix plus a .meta.json sidecar.
    """
    rows = [tuple(row) for row in rows]
    if fmt == "csv":
        target = out / f"{stem}.csv"
        artio.write_csv(target, header, rows, meta)
    elif fmt == "json":
        target = out / f"{stem}.json"
        artio.write_json(target, {
            "meta": meta, "header": list(header),
            "rows": [[float(v) if isinstance(v, (int, float, np.floating, np.integer))
                      else v for v in row] for row in rows],
        })
    elif fmt == "bin":
        target = out / f"{stem}.btf"
        matrix = np.asarray([[float(v) for v in row] for row in rows], dtype=np.float64)
        artio.write_tensor(target, matrix)
        artio.write_json(out / f"{stem}.meta.json", {"meta": meta, "header": list(header)})
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    return target


def _context_map(cfg: ExperimentConfig, maps, seed: int) -> ContextMap:
    rng = substream(seed, _CTX_STREAM)
    data = rng.standard_normal((maps.height, maps.width, cfg.context_channels))
    return ContextMap(maps.width, maps.height, cfg.context_channels, data)


def cmd_render(cfg: ExperimentConfig, args, meta: dict) -> dict:
    scene = _require_scene(cfg)
    maps = render(scene, cfg.rig, cfg.sample_stride)
    out = Path(args.out)
    header, rows = artio.maps_rows(maps)
    _write_table(out, "maps", args.format, header, rows, meta)

    finite = maps.non_sky
    summary = {
        **meta,
        "n_boxes": len(scene.boxes),
        "grid": [maps.width, maps.height],
        "sample_stride": cfg.sample_stride,
        "fraction_sky": float(np.mean(~finite)),
        "fraction_ground": float(np.mean(maps.hit_kind == 0)),
        "fraction_object": float(np.mean(maps.hit_kind > 0)),
    }
    if finite.any():
        for key, arr, width, stem in (
            ("depth", maps.depth, DEPTH_BIN_M, "depth_hist"),
            ("height", maps.height_above_ground, HEIGHT_BIN_M, "height_hist"),
        ):
            vals = arr[finite]
            summary[f"{key}_min"] = float(vals.min())
            summary[f"{key}_max"] = float(vals.max())
            hh, hr = artio.histogram_rows(histogram(vals, width))
            artio.write_csv(out / f"{stem}.csv", hh, hr, meta)
    artio.write_json(out / "render_summary.json", summary)
    return summary


def _lift_once(cfg: ExperimentConfig, maps, ctx: ContextMap):
    dist_h = predict_height_distribution(maps, cfg.height_bins, cfg.noise)
    dist_d = predict_depth_distribution(maps, cfg.depth_bins, cfg.noise)
    wedge_h = build_wedge(fuse(ctx, dist_h), cfg.height_bins, cfg.rig, cfg.sample_stride)
    wedge_d = build_wedge_depth(fuse(ctx, dist_d), cfg.depth_bins, cfg.rig, cfg.sample_stride)
    return wedge_h, wedge_d


def cmd_lift(cfg: ExperimentConfig, args, meta: dict) -> dict:
    scene = _require_scene(cfg)
    maps = render(scene, cfg.rig, cfg.sample_stride)
    ctx = _context_map(cfg, maps, meta["seed"])
    wedge_h, wedge_d = _lift_once(cfg, maps, ctx)
    bev_h = pool(wedge_h, cfg.bev_grid)
    bev_d = pool(wedge_d, cfg.bev_grid)

    out = Path(args.out)
    for stem, cloud in (("wedge_height", wedge_h), ("wedge_depth", wedge_d)):
        header, rows = artio.wedge_rows(cloud)
        _write_table(out, stem, args.format, header, rows, meta)
    for stem, grid in (("bev_height", bev_h), ("bev_depth", bev_d)):
        header, rows = artio.bev_rows(grid)
        _write_table(out, stem, args.format, header, rows, meta)

    summary = {
        **meta,
        "height": {
            "n_points": int(wedge_h.positions.shape[0]),
            "skipped_cells": wedge_h.skipped_cells,
            "dropped_points": bev_h.dropped_points,
            "occupied_cells": int(np.count_nonzero(bev_h.hit_count)),
            "total_mass": float(wedge_h.weights.sum()),
        },
        "depth": {
            "n_points": int(wedge_d.positions.shape[0]),
            "skipped_cells": wedge_d.skipped_cells,
            "dropped_points": bev_d.dropped_points,
            "occupied_cells": int(np.count_nonzero(bev_d.hit_count)),
            "total_mass": float(wedge_d.weights.sum()),
        },
    }
    artio.write_json(out / "lift_summary.json", summary)
    return summary


# Probe grid of the law check: image columns x heights x biases.
_LAW_FRACTIONS = (0.3, 0.5, 0.8)
_LAW_HEIGHTS = (0.0, 0.5, 1.2)
_LAW_BIASES = (0.05, 0.1, 0.25)


def _law_rows(rig: CameraRig):
    intr = rig.intrinsics
    H = rig.ground_height_H
    rows = []
    v = 0.85 * intr.image_h  # low row: every probe ray points below the horizon
    for fu in _LAW_FRACTIONS:
        u = fu * intr.image_w
        for h in _LAW_HEIGHTS:
            for dh in _LAW_BIASES:
                d_true, simulated = simulate_range_bias(rig, u, v, h, dh)
                predicted = height_error_law(d_true, dh, H, h)
                rows.append((u, v, h, dh, d_true, predicted, simulated,
                             abs(predicted - simulated)))
    return rows


def cmd_robustness(cfg: ExperimentConfig, args, meta: dict) -> dict:
    scene = _require_scene(cfg)
    out = Path(args.out)
    overlap = scatter_overlap(scene, cfg.rig, cfg.disturbance)
    artio.write_json(out / "overlap.json", {**meta, **artio.overlap_report_dict(overlap)})

    clean = localization_error(
        scene, cfg.rig, cfg.height_bins, cfg.depth_bins, cfg.noise,
        None, cfg.sample_stride,
    )
    disturbed = localization_error(
        scene, cfg.rig, cfg.height_bins, cfg.depth_bins, cfg.noise,
        cfg.disturbance, cfg.sample_stride,
    )
    for stem, report in (("errors_clean", clean), ("errors_disturbed", disturbed)):
        header, rows = artio.error_report_rows(report)
        artio.write_csv(out / f"{stem}.csv", header, rows, meta)

    law_header = ["u", "v", "h", "delta_h", "d_true", "predicted_m",
                  "simulated_m", "abs_diff_m"]
    law = _law_rows(cfg.rig)
    artio.write_csv(out / "law_check.csv", law_header, law, meta)

    summary = {
        **meta,
        "overlap_depth": overlap.overlap_depth,
        "overlap_height": overlap.overlap_height,
        "height_wins": overlap.height_wins,
        "n_trials": cfg.disturbance.n_trials,
        "clean": clean.summary(),
        "disturbed": disturbed.summary(),
        "law_max_abs_diff_m": max(row[-1] for row in law),
    }
    artio.write_json(out / "robustness_summary.json", summary)
    return summary


def _time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cmd_bench(cfg: ExperimentConfig, args, meta: dict) -> dict:
    """Compare the two lift paths on synthetic inputs of operating size.

    The workload is the full pixel cell grid of the rig at the configured
    stride with random normalized distributions, so the comparison
    isolates bin-count economics from scene content.
    """
    intr = cfg.rig.intrinsics
    width = intr.image_w // cfg.sample_stride
    height = intr.image_h // cfg.sample_stride
    rng = substream(meta["seed"], _CTX_STREAM)
    ctx = ContextMap(
        width, height, cfg.context_channels,
        rng.standard_normal((height, width, cfg.context_channels)),
    )

    def random_dist(n_bins: int) -> DistributionMap:
        raw = np.abs(rng.standard_normal((height, width, n_bins))) + 1e-9
        return DistributionMap(width, height, n_bins, raw / raw.sum(axis=2, keepdims=True))

    dist_h = random_dist(cfg.height_bins.n_bins)
    dist_d = random_dist(cfg.depth_bins.n_bins)

    report: dict = {
        **meta,
        "grid": [width, height],
        "repeats": cfg.bench_repeats,
        "numpy": np.__version__,
    }
    for name, dist, bins, builder in (
        ("height", dist_h, cfg.height_bins, build_wedge),
        ("depth", dist_d, cfg.depth_bins, build_wedge_depth),
    ):
        fused = fuse(ctx, dist)
        cloud = builder(fused, bins, cfg.rig, cfg.sample_stride)
        t_lift = _time_best(
            lambda: builder(fused, bins, cfg.rig, cfg.sample_stride), cfg.bench_repeats
        )
        t_pool = _time_best(lambda: pool(cloud, cfg.bev_grid), cfg.bench_repeats)
        report[name] = {
            "n_bins": bins.n_bins,
            "n_points": int(cloud.positions.shape[0]),
            "lift_seconds": t_lift,
            "pool_seconds": t_pool,
        }
    report["point_ratio_depth_over_height"] = (
        report["depth"]["n_points"] / report["height"]["n_points"]
    )
    artio.write_json(Path(args.out) / "bench.json", report)
    return report


_COMMANDS = {
    "render": cmd_render,
    "lift": cmd_lift,
    "robustness": cmd_robustness,
    "bench": cmd_bench,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bevlift",
        description="height-lift geometry engine and analysis runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0] if fn.__doc__ else None)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", choices=("csv", "json", "bin"), default="csv",
                       help="encoding of the large table artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, digest, seed = load_config(args.config, args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        meta = {"config_hash": digest, "seed": seed}
        _COMMANDS[args.command](cfg, args, meta)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
