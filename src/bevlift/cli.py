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
success, 2 for configuration problems, 3 for pipeline failures and for
running out of memory; errors are emitted to stderr as a one-line JSON
record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import io as artio
from .bevpool import GridSpec, pool
from .binning import BinSpec
from .errors import (
    ConfigError,
    PipelineError,
    config_int,
    config_object,
    config_seed,
    read_config_file,
)
from .geometry import CameraRig, rig_from_json_dict
from .lifting import (
    ContextMap,
    DistributionMap,
    build_wedge,
    build_wedge_depth,
    fuse,
)
from .rng import substream
from .robustness import (
    DEPTH_BIN_M,
    HEIGHT_BIN_M,
    DisturbanceSpec,
    law_check,
    localization_error,
    scatter_overlap,
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

# Defaults of the optional config objects, each read by the same reader as
# a given object.  An absent or null object takes its default; a given
# bev_grid also takes the default of every key it leaves out.
_DEFAULT_GRID = {
    "x_min": 0.0, "x_max": 102.4, "y_min": -51.2, "y_max": 51.2,
    "res_x": 0.8, "res_y": 0.8,
}
_DEFAULT_HEIGHT_BIN_SPEC = {
    "strategy": "DID", "n_bins": 90, "range_min": -0.2, "range_max": 3.6, "alpha": 1.2,
}
_DEFAULT_DEPTH_BIN_SPEC = {
    "strategy": "DEPTH_UD", "n_bins": 206, "range_min": 1.0, "range_max": 104.0,
}
_DEFAULT_NOISE = {"kind": "one_hot_truth"}


@dataclass
class ExperimentConfig:
    rig: CameraRig
    scene: Scene | None
    height_bins: BinSpec
    depth_bins: BinSpec
    noise: NoiseModel
    disturbance: DisturbanceSpec
    bev_grid: GridSpec
    sample_stride: int
    context_channels: int
    bench_repeats: int


def config_hash(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _experiment(
    rig, scene=None, seed=0, sample_stride=16, context_channels=4, bench_repeats=3,
    height_bins=None, depth_bins=None, noise=None, disturbance=None, bev_grid=None,
):
    """(config, seed) of a resolved config document; the parameters are its
    keys.  An optional object that is absent or null takes its default."""
    seed = config_seed("seed", seed)
    rig = rig_from_json_dict(rig, "rig")
    for name, value in (("sample_stride", sample_stride),
                        ("context_channels", context_channels),
                        ("bench_repeats", bench_repeats)):
        if config_int(name, value) < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if sample_stride > min(rig.intrinsics.image_w, rig.intrinsics.image_h):
        raise ConfigError(f"sample_stride {sample_stride} leaves no pixel cell in the image")
    if isinstance(scene, dict) and "boxes" in scene:
        scene = Scene.from_json_dict(scene, "scene")
    elif scene is not None:
        scene = config_object(generate_scene, scene, "scene", seed=seed)
    grid = GridSpec.from_json_dict(
        {} if bev_grid is None else bev_grid, "bev_grid",
        **_DEFAULT_GRID, channels=context_channels,
    )
    if grid.channels != context_channels:
        raise ConfigError("bev_grid.channels must match context_channels")
    height_bins = BinSpec.from_json_dict(
        _DEFAULT_HEIGHT_BIN_SPEC if height_bins is None else height_bins, "height_bins"
    )
    height_bins.check_kind("height", "height_bins")
    depth_bins = BinSpec.from_json_dict(
        _DEFAULT_DEPTH_BIN_SPEC if depth_bins is None else depth_bins, "depth_bins"
    )
    depth_bins.check_kind("depth", "depth_bins")
    cfg = ExperimentConfig(
        rig=rig,
        scene=scene,
        height_bins=height_bins,
        depth_bins=depth_bins,
        noise=NoiseModel.from_json_dict(_DEFAULT_NOISE if noise is None else noise, "noise"),
        disturbance=DisturbanceSpec.from_json_dict(
            {} if disturbance is None else disturbance, "disturbance", seed=seed
        ),
        bev_grid=grid,
        sample_stride=sample_stride,
        context_channels=context_channels,
        bench_repeats=bench_repeats,
    )
    return cfg, seed


def load_config(path, seed_override: int | None = None):
    """Resolve an experiment config file.

    Returns (config, hash, seed).  `rig` and `scene` may be paths to JSON
    files, resolved relative to the config file.  The hash covers the
    fully resolved document (file references inlined) so renaming
    sub-config files does not change it but editing their contents does.
    The effective seed is --seed when given, else the config's top-level
    "seed", else 0; it drives scene generation and synthetic context unless
    a sub-config pins its own seed.  Every object of the document is read
    by errors.config_object, so an unknown key, a missing field or a bad
    value is a ConfigError naming its path.
    """
    path = Path(path)
    doc = read_config_file(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    doc = {
        key: read_config_file(path.parent / node)
        if key in ("rig", "scene") and isinstance(node, str) else node
        for key, node in doc.items()
    }
    override = {} if seed_override is None else {"seed": seed_override}
    cfg, seed = config_object(_experiment, {**doc, **override})
    return cfg, config_hash(doc), seed


def _require_scene(cfg: ExperimentConfig) -> Scene:
    if cfg.scene is None:
        raise ConfigError("this subcommand needs a 'scene' entry in the config")
    return cfg.scene


def _context_map(cfg: ExperimentConfig, maps, seed: int) -> ContextMap:
    rng = substream(seed, _CTX_STREAM)
    data = rng.standard_normal((maps.height, maps.width, cfg.context_channels))
    return ContextMap(maps.width, maps.height, cfg.context_channels, data)


def cmd_render(cfg: ExperimentConfig, args, meta: dict) -> dict:
    scene = _require_scene(cfg)
    maps = render(scene, cfg.rig, cfg.sample_stride)
    out = Path(args.out)
    artio.write_table(out, "maps", args.format, *artio.maps_table(maps), meta)

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
            hist = artio.histogram_table(histogram(vals, width))
            artio.write_table(out, stem, "csv", *hist, meta)
    artio.write_json(out / "render_summary.json", summary)
    return summary


def cmd_lift(cfg: ExperimentConfig, args, meta: dict) -> dict:
    scene = _require_scene(cfg)
    maps = render(scene, cfg.rig, cfg.sample_stride)
    ctx = _context_map(cfg, maps, meta["seed"])
    dist_h = predict_height_distribution(maps, cfg.height_bins, cfg.noise)
    dist_d = predict_depth_distribution(maps, cfg.depth_bins, cfg.noise)
    wedge_h = build_wedge(fuse(ctx, dist_h), cfg.height_bins, cfg.rig, cfg.sample_stride)
    wedge_d = build_wedge_depth(fuse(ctx, dist_d), cfg.depth_bins, cfg.rig, cfg.sample_stride)
    bev_h = pool(wedge_h, cfg.bev_grid)
    bev_d = pool(wedge_d, cfg.bev_grid)

    out = Path(args.out)
    for stem, table in (
        ("wedge_height", artio.wedge_table(wedge_h)),
        ("wedge_depth", artio.wedge_table(wedge_d)),
        ("bev_height", artio.bev_table(bev_h)),
        ("bev_depth", artio.bev_table(bev_d)),
    ):
        artio.write_table(out, stem, args.format, *table, meta)

    summary = dict(meta)
    for key, wedge, bev in (("height", wedge_h, bev_h), ("depth", wedge_d, bev_d)):
        summary[key] = {
            "n_points": wedge.n_points,
            "skipped_cells": wedge.skipped_cells,
            "dropped_points": bev.dropped_points,
            "occupied_cells": int(np.count_nonzero(bev.hit_count)),
            "total_mass": float(wedge.weights.sum()),
        }
    artio.write_json(out / "lift_summary.json", summary)
    return summary


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
        artio.write_table(out, stem, "csv", *artio.error_report_table(report), meta)

    law = law_check(cfg.rig)
    artio.write_table(out, "law_check", "csv", *artio.law_check_table(law), meta)

    summary = {
        **meta,
        "overlap_depth": overlap.overlap_depth,
        "overlap_height": overlap.overlap_height,
        "height_wins": overlap.height_wins,
        "n_trials": cfg.disturbance.n_trials,
        "clean": clean.summary(),
        "disturbed": disturbed.summary(),
        "law_max_abs_diff_m": float(law[-1].max()),
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
    isolates bin-count economics from scene content.  plan_seconds is the
    lift and pool of a frame on a copy of the rig that holds no lift plan,
    so it includes building the plan and its BEV index; lift_seconds and
    pool_seconds are the per-frame times once the plan exists.  Each
    repeat lifts a fresh cloud and pools it, so pool_seconds includes
    forming the cloud's per-point weights, as a new frame does.
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
        t_plan = _time_best(
            lambda: pool(builder(fused, bins, replace(cfg.rig), cfg.sample_stride), cfg.bev_grid),
            cfg.bench_repeats,
        )
        # Builds the plan and its BEV index, so the repeats below are per frame.
        pool(builder(fused, bins, cfg.rig, cfg.sample_stride), cfg.bev_grid)
        t_lift = t_pool = float("inf")
        for _ in range(cfg.bench_repeats):
            start = time.perf_counter()
            cloud = builder(fused, bins, cfg.rig, cfg.sample_stride)
            lifted = time.perf_counter()
            pool(cloud, cfg.bev_grid)
            t_lift = min(t_lift, lifted - start)
            t_pool = min(t_pool, time.perf_counter() - lifted)
        report[name] = {
            "n_bins": bins.n_bins,
            "n_points": cloud.n_points,
            "plan_seconds": t_plan,
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
        if name in ("render", "lift"):
            p.add_argument("--format", choices=("csv", "json", "bin"), default="csv",
                           help="encoding of the large table artifacts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, digest, seed = load_config(args.config, args.seed)
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out} is not a usable directory: {exc.strerror}") from exc
        meta = {"config_hash": digest, "seed": seed}
        _COMMANDS[args.command](cfg, args, meta)
    except (ConfigError, PipelineError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; report the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
