#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden.

Goldens freeze the exact numerical behavior of the committed experiment
configuration: the overlap study, the disturbed localization error
table, and checksums of the lifted clouds and pooled grids.  They also
pin the bytes of every artifact `render` and `lift` write, in each
table format, for a tiny experiment.  The test
suite compares fresh runs against these files byte for byte, so run this
only to intentionally re-baseline after a behavior change.
"""
import hashlib
import json
import tempfile
from pathlib import Path

from bevlift.binning import BinSpec
from bevlift.bevpool import GridSpec, pool
from bevlift.cli import main as cli_main
from bevlift.geometry import load_rig
from bevlift.io import error_report_table, table_rows, write_csv
from bevlift.lifting import ContextMap, build_wedge, build_wedge_depth, fuse
from bevlift.robustness import (
    DisturbanceSpec,
    disturbance_trials,
    localization_error,
    scatter_overlap,
)
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

# The tiny experiment tests/test_cli.py runs (stride 64): every table of
# `render` and `lift` in every format is written in about a second.
TABLE_CONFIG = {
    "rig": str(ROOT / "configs" / "rig_default.json"),
    "scene": {"template": "corridor", "n_boxes": 4, "seed": 3},
    "height_bins": {"strategy": "DID", "n_bins": 12, "range_min": -0.2,
                    "range_max": 3.6, "alpha": 1.2},
    "depth_bins": {"strategy": "DEPTH_UD", "n_bins": 30, "range_min": 1.0,
                   "range_max": 121.0},
    "noise": {"kind": "gaussian_bin_blur", "sigma_bins": 1.0},
    "disturbance": {"sigma_roll_deg": 1.0, "sigma_pitch_deg": 1.0,
                    "seed": 0, "n_trials": 2},
    "sample_stride": 64,
    "context_channels": 2,
    "bev_grid": {"channels": 2},
    "seed": 5,
}
TABLE_COMMANDS = ("render", "lift")
TABLE_FORMATS = ("csv", "json", "bin")


def sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def lift_frame(rig, scene):
    """(wedge_h, wedge_d, bev_h, bev_d) of the committed lift experiment."""
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
    return wedge_h, wedge_d, pool(wedge_h, grid), pool(wedge_d, grid)


def frame_checksums(wedge_h, wedge_d, bev_h, bev_d) -> dict:
    """Checksums of both wedge clouds and both pooled grids of a lift
    frame; of lift_frame's, the content of lift_checksums.json."""
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


def table_digests() -> dict:
    """sha256 of every file `render` and `lift` write for TABLE_CONFIG in
    each table format, meta sidecars included: the content of
    table_digests.json.  The config hash covers the resolved rig, so the
    absolute rig path does not reach the artifacts."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "experiment.json"
        config.write_text(json.dumps(TABLE_CONFIG))
        for command in TABLE_COMMANDS:
            for fmt in TABLE_FORMATS:
                out = Path(tmp) / command / fmt
                args = [command, "--config", str(config), "--out", str(out), "--format", fmt]
                if cli_main(args) != 0:
                    raise RuntimeError(f"{command} --format {fmt} failed")
                for path in sorted(out.iterdir()):
                    digests[f"{command}/{fmt}/{path.name}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    return digests


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    rig = load_rig(ROOT / "configs" / "rig_default.json")
    scene = load_scene(ROOT / "configs" / "scenes" / "corridor_seed7.json")

    trials = disturbance_trials(rig, DISTURBANCE)
    overlap = scatter_overlap(scene, rig, trials)
    (GOLDEN / "overlap_seed7.json").write_text(json.dumps({
        "overlap_depth": overlap.overlap_depth,
        "overlap_height": overlap.overlap_height,
        "height_wins": overlap.height_wins,
        "n_points": overlap.n_points,
    }, indent=2, sort_keys=True) + "\n")

    report = localization_error(
        scene, rig, HEIGHT_BINS, DEPTH_BINS, NOISE, trials, ROBUSTNESS_STRIDE
    )
    header, columns = error_report_table(report)
    write_csv(GOLDEN / "errors_seed7.csv", header, table_rows(columns))

    (GOLDEN / "lift_checksums.json").write_text(
        json.dumps(frame_checksums(*lift_frame(rig, scene)), indent=2, sort_keys=True) + "\n"
    )
    (GOLDEN / "table_digests.json").write_text(
        json.dumps(table_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote goldens under {GOLDEN}")


if __name__ == "__main__":
    main()
