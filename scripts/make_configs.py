#!/usr/bin/env python3
"""Regenerate the committed configs: rigs, scenes, and experiment files.

The scene JSONs double as golden inputs; regeneration is deterministic,
so running this script must leave a clean checkout unchanged.
"""
import json
from pathlib import Path

from bevlift.geometry import CameraRig, Intrinsics, extrinsics_from_pose, save_rig
from bevlift.scene import generate_scene, save_scene

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Roadside mast: high and steep enough that every corridor object stays
# inside the favorable range of the height parameterization and far
# objects still cover several sample cells.
MAST = dict(position=(0.0, 0.0, 10.0), pitch_deg=25.0)
# Truck-mounted rig used by the error-law experiment.
TRUCK = dict(position=(0.0, 0.0, 3.14), pitch_deg=10.0)

SCENES = (
    ("corridor_seed7", "corridor", 32, 7),
    ("intersection_seed11", "intersection", 28, 11),
    ("corridor_seed13", "corridor", 24, 13),
)

HEIGHT_BINS = {"strategy": "DID", "n_bins": 90, "range_min": -0.2,
               "range_max": 3.6, "alpha": 1.2}
DEPTH_BINS = {"strategy": "DEPTH_UD", "n_bins": 206, "range_min": 1.0,
              "range_max": 104.0}
# Operating bins of the latency comparison; the bench runs scene-free.
BENCH_HEIGHT_BINS = {"strategy": "DID", "n_bins": 90, "range_min": -1.0,
                     "range_max": 1.0, "alpha": 2.0}


def build_rig(name: str, position, pitch_deg: float) -> CameraRig:
    intr = Intrinsics(700.0, 700.0, 768.0, 432.0, 1536, 864)
    extr = extrinsics_from_pose(position, pitch_deg=pitch_deg)
    return CameraRig.build(intr, extr, rig_id=name)


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main() -> None:
    (CONFIGS / "scenes").mkdir(parents=True, exist_ok=True)
    save_rig(build_rig("mast-10m", **MAST), CONFIGS / "rig_default.json")
    save_rig(build_rig("truck-3p14m", **TRUCK), CONFIGS / "rig_truck.json")
    for stem, template, n_boxes, seed in SCENES:
        save_scene(generate_scene(template, n_boxes, seed), CONFIGS / "scenes" / f"{stem}.json")

    common = {
        "rig": "rig_default.json",
        "scene": "scenes/corridor_seed7.json",
        "height_bins": HEIGHT_BINS,
        "depth_bins": DEPTH_BINS,
        "noise": {"kind": "gaussian_bin_blur", "sigma_bins": 1.0},
        "seed": 0,
    }
    write_json(CONFIGS / "experiment_render.json", {**common, "sample_stride": 4})
    write_json(CONFIGS / "experiment_lift.json", {
        **common, "sample_stride": 32, "context_channels": 4,
    })
    write_json(CONFIGS / "experiment_robustness.json", {
        **common,
        "sample_stride": 8,
        "disturbance": {"sigma_roll_deg": 1.67, "sigma_pitch_deg": 1.67,
                        "seed": 0, "n_trials": 100},
    })
    write_json(CONFIGS / "experiment_bench.json", {
        "rig": "rig_default.json",
        "scene": None,
        "height_bins": BENCH_HEIGHT_BINS,
        "depth_bins": DEPTH_BINS,
        "sample_stride": 16,
        "context_channels": 4,
        "bench_repeats": 3,
        "seed": 0,
    })
    print(f"wrote configs under {CONFIGS}")


if __name__ == "__main__":
    main()
