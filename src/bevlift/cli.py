"""Command line front end.

Subcommands
    render      cast the scene into per-pixel depth/height/kind maps
    lift        run both lift paths end to end and pool them onto the grid
    robustness  disturbance studies: scatter overlap, localization error,
                and the analytic range-error law check
    bench       time both lift paths on the frame lift builds

Every config needs a scene, so a config without one exits 2 at load; lift
and bench make a frame one way (_lift).

Every run resolves one JSON experiment config, hashes it, and stamps the
hash plus the effective seed into every artifact (CSV comment line, JSON
field, or .meta.json sidecar next to binary tensors).  Exit codes: 0 on
success, 2 for configuration problems, 3 for pipeline failures, for
running out of memory and for an artifact that cannot be written; errors
are emitted to stderr as a one-line JSON record.
"""
from __future__ import annotations

import argparse
import functools
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
    EmptyInput,
    PipelineError,
    config_int,
    config_object,
    config_size,
    read_config_file,
)
from .geometry import CameraRig, rig_from_json_dict
from .lifting import (
    ContextMap,
    WedgeCloud,
    _plan,
    build_wedge,
    build_wedge_depth,
    fuse,
)
from .rng import substream
from .robustness import (
    DEPTH_BIN_M,
    HEIGHT_BIN_M,
    DisturbanceSpec,
    disturbance_trials,
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
    scene: Scene
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
    rig, scene, seed=0, sample_stride=16, context_channels=4, bench_repeats=3,
    height_bins=None, depth_bins=None, noise=None, disturbance=None, bev_grid=None,
):
    """(config, seed) of a resolved config document; the parameters are its
    keys.  An optional object that is absent or null takes its default."""
    config_int("seed", seed, lo=0)
    rig = rig_from_json_dict(rig, "rig")
    for name, value in (("sample_stride", sample_stride),
                        ("context_channels", context_channels),
                        ("bench_repeats", bench_repeats)):
        config_int(name, value, lo=1)
    if bench_repeats > np.iinfo(np.intp).max:
        raise ConfigError(f"bench_repeats must fit np.intp, got {bench_repeats}")
    if sample_stride > min(rig.intrinsics.image_w, rig.intrinsics.image_h):
        raise ConfigError(f"sample_stride {sample_stride} leaves no pixel cell in the image")
    if isinstance(scene, dict) and "boxes" in scene:
        scene = Scene.from_json_dict(scene, "scene")
    else:
        scene = config_object(generate_scene, scene, "scene", seed=seed)
    grid = config_object(GridSpec, {} if bev_grid is None else bev_grid, "bev_grid",
                         **_DEFAULT_GRID, channels=context_channels)
    if grid.channels != context_channels:
        raise ConfigError("bev_grid.channels must match context_channels")
    height_bins = config_object(
        BinSpec, _DEFAULT_HEIGHT_BIN_SPEC if height_bins is None else height_bins, "height_bins"
    )
    height_bins.check_kind("height", "height_bins")
    depth_bins = config_object(
        BinSpec, _DEFAULT_DEPTH_BIN_SPEC if depth_bins is None else depth_bins, "depth_bins"
    )
    depth_bins.check_kind("depth", "depth_bins")
    cells = (rig.intrinsics.image_w // sample_stride) * (rig.intrinsics.image_h // sample_stride)
    for name, bins in (("height_bins", height_bins), ("depth_bins", depth_bins)):
        # a cloud's float64 features
        config_size(f"{name}.n_bins x context_channels x feature cells at sample_stride",
                    bins.n_bins, context_channels, cells)
    cfg = ExperimentConfig(
        rig=rig,
        scene=scene,
        height_bins=height_bins,
        depth_bins=depth_bins,
        noise=config_object(NoiseModel, _DEFAULT_NOISE if noise is None else noise, "noise"),
        disturbance=config_object(
            DisturbanceSpec, {} if disturbance is None else disturbance, "disturbance", seed=seed
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


def _context_map(cfg: ExperimentConfig, maps, seed: int) -> ContextMap:
    rng = substream(seed, _CTX_STREAM)
    data = rng.standard_normal((maps.height, maps.width, cfg.context_channels))
    return ContextMap(maps.width, maps.height, cfg.context_channels, data)


def _paths(cfg: ExperimentConfig) -> tuple:
    """The two hypothesis paths of a frame under cfg, height first: (name,
    bins, distribution predictor, lift)."""
    return (
        ("height", cfg.height_bins, predict_height_distribution, build_wedge),
        ("depth", cfg.depth_bins, predict_depth_distribution, build_wedge_depth),
    )


def _build_lift_plans(cfg: ExperimentConfig) -> None:
    """Build the rig's height and depth lift plans on the config's feature
    grid.  A plan depends on the config alone, so lifted positions that
    are not finite exit 2 before any frame is rendered; the frames then
    reuse the plans."""
    width = cfg.rig.intrinsics.image_w // cfg.sample_stride
    height = cfg.rig.intrinsics.image_h // cfg.sample_stride
    for kind, bins, _, _ in _paths(cfg):
        _plan(kind, bins, cfg.rig, width, height, cfg.sample_stride)


def _lift(cfg: ExperimentConfig, path, maps, ctx: ContextMap, rig: CameraRig) -> WedgeCloud:
    """One path of _paths on a rendered frame: predict its distribution
    under the config's bins and noise, fuse it with ctx and lift it."""
    _, bins, predict, build = path
    return build(fuse(ctx, predict(maps, bins, cfg.noise)), bins, rig, cfg.sample_stride)


def cmd_render(cfg: ExperimentConfig, args, meta: dict) -> dict:
    maps = render(cfg.scene, cfg.rig, cfg.sample_stride)
    out = Path(args.out)
    artio.write_table(out, "maps", args.format, *artio.maps_table(maps), meta)

    finite = maps.non_sky
    summary = {
        **meta,
        "n_boxes": len(cfg.scene.boxes),
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
    _build_lift_plans(cfg)
    maps = render(cfg.scene, cfg.rig, cfg.sample_stride)
    ctx = _context_map(cfg, maps, meta["seed"])
    wedges = {path[0]: _lift(cfg, path, maps, ctx, cfg.rig) for path in _paths(cfg)}
    bevs = {name: pool(wedge, cfg.bev_grid) for name, wedge in wedges.items()}

    out = Path(args.out)
    summary = dict(meta)
    for (name, wedge), bev in zip(wedges.items(), bevs.values()):
        header, columns = artio.wedge_table(wedge)
        artio.write_table(out, f"wedge_{name}", args.format, header, columns, meta)
        total_mass = float(columns[header.index("weight")].sum())
        del columns  # so that no two wedges' per-point columns are alive at once
        artio.write_table(out, f"bev_{name}", args.format, *artio.bev_table(bev), meta)
        summary[name] = {
            "n_points": wedge.n_points,
            "skipped_cells": wedge.skipped_cells,
            "dropped_points": bev.dropped_points,
            "occupied_cells": int(np.count_nonzero(bev.hit_count)),
            "total_mass": total_mass,
        }
    artio.write_json(out / "lift_summary.json", summary)
    return summary


def cmd_robustness(cfg: ExperimentConfig, args, meta: dict) -> dict:
    out = Path(args.out)
    trials = disturbance_trials(cfg.rig, cfg.disturbance)
    overlap = scatter_overlap(cfg.scene, cfg.rig, trials)
    artio.write_json(out / "overlap.json", {**meta, **artio.overlap_report_dict(overlap)})

    clean = localization_error(
        cfg.scene, cfg.rig, cfg.height_bins, cfg.depth_bins, cfg.noise,
        None, cfg.sample_stride,
    )
    disturbed = localization_error(
        cfg.scene, cfg.rig, cfg.height_bins, cfg.depth_bins, cfg.noise,
        trials, cfg.sample_stride,
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


def _time_best(fn, repeats: int):
    """(least seconds of repeats calls of fn, the last call's result)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def cmd_bench(cfg: ExperimentConfig, args, meta: dict) -> dict:
    """Time both lift paths on the frame lift builds.

    render_seconds times the render both paths share.  Per path,
    lift_seconds times predict, fuse and lift and pool_seconds the pool,
    once the rig's lift plan exists; plan_seconds times all four on a copy
    of the rig without one, so building the plan and its BEV index
    included.  Each repeat lifts a fresh cloud of each path in turn and
    pools it, as a new frame does; every time is the best of bench_repeats.
    """
    _build_lift_plans(cfg)
    t_render, maps = _time_best(
        lambda: render(cfg.scene, cfg.rig, cfg.sample_stride), cfg.bench_repeats
    )
    ctx = _context_map(cfg, maps, meta["seed"])

    report: dict = {
        **meta,
        "grid": [maps.width, maps.height],
        "repeats": cfg.bench_repeats,
        "numpy": np.__version__,
        "render_seconds": t_render,
    }
    paths = _paths(cfg)
    for path in paths:
        t_plan, _ = _time_best(
            lambda: pool(_lift(cfg, path, maps, ctx, replace(cfg.rig)), cfg.bev_grid),
            cfg.bench_repeats,
        )
        # Builds the plan's BEV index, so the repeats below are per frame.
        cloud = _lift(cfg, path, maps, ctx, cfg.rig)
        pool(cloud, cfg.bev_grid)
        report[path[0]] = {
            "n_bins": path[1].n_bins,
            "n_points": cloud.n_points,
            "plan_seconds": t_plan,
            "lift_seconds": float("inf"),
            "pool_seconds": float("inf"),
        }
    if report["height"]["n_points"] == 0:
        raise EmptyInput(
            "the height path lifts no point on this rig and height_bins, "
            "so bench has no depth over height point ratio"
        )
    # The paths take turns repeat by repeat: the first path timed in a
    # process ran up to 1.6 times slower than the same path timed second.
    for _ in range(cfg.bench_repeats):
        for path in paths:
            times = report[path[0]]
            start = time.perf_counter()
            cloud = _lift(cfg, path, maps, ctx, cfg.rig)
            lifted = time.perf_counter()
            pool(cloud, cfg.bev_grid)
            times["lift_seconds"] = min(times["lift_seconds"], lifted - start)
            times["pool_seconds"] = min(times["pool_seconds"], time.perf_counter() - lifted)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main runs once per
    command, and a caller such as a test or a benchmark runs it many times."""
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
        try:
            _COMMANDS[args.command](cfg, args, meta)
        except OSError as exc:  # the commands touch files only to write artifacts
            raise PipelineError(f"cannot write an artifact: {exc}") from exc
    except (ConfigError, PipelineError, MemoryError) as exc:
        # numpy raises a private MemoryError subclass; report the public name
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
