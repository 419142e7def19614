#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden.

Goldens freeze the exact numerical behavior of the committed experiments,
read with the CLI's own config loader: the overlap study and the disturbed
localization error table of configs/experiment_robustness.json, and
checksums of the lifted clouds and pooled grids of the frame `lift` builds
for configs/experiment_lift.json.  They also
pin the bytes of every artifact `render` and `lift` write, in each
table format, for a tiny experiment.  The test
suite compares fresh runs against these files byte for byte, so run this
only to intentionally re-baseline after a behavior change.
"""
import hashlib
import json
import tempfile
from pathlib import Path

from bevlift.bevpool import pool
from bevlift.cli import _context_map, _lift, _paths, load_config
from bevlift.cli import main as cli_main
from bevlift.io import error_report_table, table_rows, write_csv
from bevlift.robustness import disturbance_trials, localization_error, scatter_overlap
from bevlift.scene import render

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ROOT / "configs"

# The tiny experiment tests/test_cli.py runs (stride 64): every table of
# `render` and `lift` in every format is written in about a second.
TABLE_CONFIG = {
    "rig": str(CONFIGS / "rig_default.json"),
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
    """(wedge_h, wedge_d, bev_h, bev_d) of the committed lift experiment,
    configs/experiment_lift.json, on rig and scene: the frame `lift`
    builds, through the CLI's own frame functions."""
    cfg, _, seed = load_config(CONFIGS / "experiment_lift.json")
    maps = render(scene, rig, cfg.sample_stride)
    ctx = _context_map(cfg, maps, seed)
    wedges = [_lift(cfg, path, maps, ctx, rig) for path in _paths(cfg)]
    return (*wedges, *(pool(wedge, cfg.bev_grid) for wedge in wedges))


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
        "height_n_points": wedge_h.n_points,
        "depth_n_points": wedge_d.n_points,
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
    cfg, _, _ = load_config(CONFIGS / "experiment_robustness.json")
    trials = disturbance_trials(cfg.rig, cfg.disturbance)
    overlap = scatter_overlap(cfg.scene, cfg.rig, trials)
    (GOLDEN / "overlap_seed7.json").write_text(json.dumps({
        "overlap_depth": overlap.overlap_depth,
        "overlap_height": overlap.overlap_height,
        "height_wins": overlap.height_wins,
        "n_points": overlap.n_points,
    }, indent=2, sort_keys=True) + "\n")

    report = localization_error(cfg.scene, cfg.rig, cfg.height_bins, cfg.depth_bins,
                                cfg.noise, trials, cfg.sample_stride)
    header, columns = error_report_table(report)
    write_csv(GOLDEN / "errors_seed7.csv", header, table_rows(columns))

    lift_cfg, _, _ = load_config(CONFIGS / "experiment_lift.json")
    checksums = frame_checksums(*lift_frame(lift_cfg.rig, lift_cfg.scene))
    (GOLDEN / "lift_checksums.json").write_text(
        json.dumps(checksums, indent=2, sort_keys=True) + "\n"
    )
    (GOLDEN / "table_digests.json").write_text(
        json.dumps(table_digests(), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote goldens under {GOLDEN}")


if __name__ == "__main__":
    main()
