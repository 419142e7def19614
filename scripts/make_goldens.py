#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden.

Goldens freeze the exact numerical behavior of the committed experiment
configuration: the overlap study, the disturbed localization error
table, and checksums of the lifted clouds and pooled grids.  The test
suite compares fresh runs against these files byte for byte, so run this
only to intentionally re-baseline after a behavior change.
"""
import hashlib
import json
from pathlib import Path

from bevlift.binning import BinSpec
from bevlift.bevpool import GridSpec, pool
from bevlift.geometry import load_rig
from bevlift.io import error_report_rows, write_csv
from bevlift.lifting import ContextMap, build_wedge, build_wedge_depth, fuse
from bevlift.robustness import DisturbanceSpec, localization_error, scatter_overlap
from bevlift.rng import substream
from bevlift.scene import (
    NoiseModel,
    load_scene,
    predict_depth_distribution,
    predict_height_distribution,
    render,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

HEIGHT_BINS = BinSpec("DID", 90, -0.2, 3.6, 1.2)
DEPTH_BINS = BinSpec("DEPTH_UD", 206, 1.0, 104.0)
NOISE = NoiseModel("gaussian_bin_blur", sigma_bins=1.0)
DISTURBANCE = DisturbanceSpec(1.67, 1.67, seed=0, n_trials=100)
ROBUSTNESS_STRIDE = 8
LIFT_STRIDE = 32
LIFT_SEED = 0
LIFT_CHANNELS = 4


def sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def lift_checksums(rig, scene) -> dict:
    """Checksums of both wedge clouds and both pooled grids of the
    committed lift experiment, the content of lift_checksums.json."""
    maps = render(scene, rig, LIFT_STRIDE)
    ctx_rng = substream(LIFT_SEED, 101)
    ctx = ContextMap(
        maps.width, maps.height, LIFT_CHANNELS,
        ctx_rng.standard_normal((maps.height, maps.width, LIFT_CHANNELS)),
    )
    wedge_h = build_wedge(
        fuse(ctx, predict_height_distribution(maps, HEIGHT_BINS, NOISE)),
        HEIGHT_BINS, rig, LIFT_STRIDE,
    )
    wedge_d = build_wedge_depth(
        fuse(ctx, predict_depth_distribution(maps, DEPTH_BINS, NOISE)),
        DEPTH_BINS, rig, LIFT_STRIDE,
    )
    grid = GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, LIFT_CHANNELS)
    bev_h = pool(wedge_h, grid)
    bev_d = pool(wedge_d, grid)
    return {
        "wedge_height_positions": sha(wedge_h.positions),
        "wedge_height_weights": sha(wedge_h.weights),
        "wedge_depth_positions": sha(wedge_d.positions),
        "wedge_depth_weights": sha(wedge_d.weights),
        "bev_height_data": sha(bev_h.data),
        "bev_depth_data": sha(bev_d.data),
        "height_n_points": int(wedge_h.positions.shape[0]),
        "depth_n_points": int(wedge_d.positions.shape[0]),
    }


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    rig = load_rig(ROOT / "configs" / "rig_default.json")
    scene = load_scene(ROOT / "configs" / "scenes" / "corridor_seed7.json")

    overlap = scatter_overlap(scene, rig, DISTURBANCE)
    (GOLDEN / "overlap_seed7.json").write_text(json.dumps({
        "overlap_depth": overlap.overlap_depth,
        "overlap_height": overlap.overlap_height,
        "height_wins": overlap.height_wins,
        "n_points": overlap.n_points,
    }, indent=2, sort_keys=True) + "\n")

    report = localization_error(
        scene, rig, HEIGHT_BINS, DEPTH_BINS, NOISE, DISTURBANCE, ROBUSTNESS_STRIDE
    )
    header, rows = error_report_rows(report)
    write_csv(GOLDEN / "errors_seed7.csv", header, rows)

    (GOLDEN / "lift_checksums.json").write_text(
        json.dumps(lift_checksums(rig, scene), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote goldens under {GOLDEN}")


if __name__ == "__main__":
    main()
