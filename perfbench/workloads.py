"""The benchmark's workloads: inputs drawn from the workload seed, the
timed item, and the item's output check.

Every workload runs as one closed-loop caller: the next item starts when
the previous one has returned.  Inputs are built here from the committed
rig, scene and experiment files; jittered scenes and configs are written
by the benchmark, never drawn through bevlift's scene generator, so a
change to that generator cannot change what is measured.

Why these workloads:
  frames_static     the per-frame render -> predict -> lift -> pool path the
                    paper's point-economy claim is about; the rig never
                    changes, so anything reusable for a fixed rig shows here.
  frames_sway       the same frames with the rig perturbed per frame, so
                    nothing rig-keyed can be reused; the paper's own scenario.
  robustness_study  the disturbance study through the CLI: scene rendering,
                    distribution prediction and per-object lifts, no pooling.
  lift_artifacts    the `lift` command through the CLI, rotating the table
                    format; artifact writing is nearly all of its time.
"""
from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import bevlift.cli as cli
from bevlift.bevpool import pool
from bevlift.geometry import load_rig
from bevlift.lifting import ContextMap, build_wedge, build_wedge_depth, fuse
from bevlift.robustness import perturb_rig
from bevlift.scene import (
    Scene,
    predict_depth_distribution,
    predict_height_distribution,
    render,
)

import checks

FRAME_STRIDE = 16
SWAY_SIGMA_DEG = 1.67
ROBUSTNESS_STRIDE = 8
# Trials per robustness item: enough that the disturbed localization study
# dominates the item, few enough that a run holds over ten items.
ROBUSTNESS_TRIALS = 5
LIFT_FORMATS = ("csv", "bin", "json")
# Box pose jitter applied to the committed scenes, per item.
JITTER_XY_M = 0.5
JITTER_YAW_DEG = 3.0
# Input index of the warm-up item, outside the range timed items use.
WARM_UP = 2**31


def layers() -> SimpleNamespace:
    """The layer entry points the benchmark calls; tracing wraps these."""
    return SimpleNamespace(
        render=render,
        predict_height_distribution=predict_height_distribution,
        predict_depth_distribution=predict_depth_distribution,
        build_wedge=build_wedge,
        build_wedge_depth=build_wedge_depth,
        pool=pool,
        perturb_rig=perturb_rig,
        main=cli.main,
    )


def _item_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _scene_docs(root: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((root / "configs/scenes").glob("*.json"))]


def jitter_scene_doc(doc: dict, rng: np.random.Generator) -> dict:
    """Committed scene with every box moved and turned a little, centres
    kept inside the extent; sizes, and so the height range, unchanged."""
    ext = doc["extent"]
    boxes = []
    for box in doc["boxes"]:
        dx, dy = rng.normal(0.0, JITTER_XY_M, 2)
        boxes.append({
            **box,
            "x": float(np.clip(box["x"] + dx, ext["x_min"], ext["x_max"])),
            "y": float(np.clip(box["y"] + dy, ext["y_min"], ext["y_max"])),
            "theta": box["theta"] + float(np.deg2rad(rng.normal(0.0, JITTER_YAW_DEG))),
        })
    return {**doc, "boxes": boxes}


# ---- frames -----------------------------------------------------------------

@dataclass
class FrameInputs:
    scene: Scene
    context: ContextMap
    angles: tuple[float, float] | None


@dataclass
class Frame:
    rig: object
    context: ContextMap
    dist_h: object
    dist_d: object
    wedge_h: object
    wedge_d: object
    bev_h: object
    bev_d: object


class Frames:
    """Per-frame lift+pool of both hypothesis kinds on one rig."""

    group_size = 1

    def __init__(self, seed: int, root: Path, bench_layers, sway: bool):
        self.seed, self.layers, self.sway = seed, bench_layers, sway
        cfg, _, _ = cli.load_config(root / "configs/experiment_lift.json")
        self.height_bins, self.depth_bins = cfg.height_bins, cfg.depth_bins
        self.noise, self.grid = cfg.noise, cfg.bev_grid
        self.rig = load_rig(root / "configs/rig_default.json")
        self.scene_docs = _scene_docs(root)
        intr = self.rig.intrinsics
        self.shape = (intr.image_h // FRAME_STRIDE, intr.image_w // FRAME_STRIDE, cfg.context_channels)
        self.working_set = 0

    def inputs(self, k: int) -> FrameInputs:
        rng = _item_rng(self.seed, k)
        doc = jitter_scene_doc(self.scene_docs[k % len(self.scene_docs)], rng)
        h, w, c = self.shape
        context = ContextMap(w, h, c, rng.standard_normal(self.shape))
        angles = tuple(rng.normal(0.0, SWAY_SIGMA_DEG, 2)) if self.sway else None
        return FrameInputs(Scene.from_json_dict(doc), context, angles)

    def run(self, inp: FrameInputs) -> Frame:
        L = self.layers
        rig = L.perturb_rig(self.rig, *inp.angles) if self.sway else self.rig
        maps = L.render(inp.scene, rig, FRAME_STRIDE)
        dist_h = L.predict_height_distribution(maps, self.height_bins, self.noise)
        dist_d = L.predict_depth_distribution(maps, self.depth_bins, self.noise)
        wedge_h = L.build_wedge(fuse(inp.context, dist_h), self.height_bins, rig, FRAME_STRIDE)
        wedge_d = L.build_wedge_depth(fuse(inp.context, dist_d), self.depth_bins, rig, FRAME_STRIDE)
        bev_h = L.pool(wedge_h, self.grid)
        bev_d = L.pool(wedge_d, self.grid)
        return Frame(rig, inp.context, dist_h, dist_d, wedge_h, wedge_d, bev_h, bev_d)

    def warm_up(self) -> None:
        self.run(self.inputs(WARM_UP))

    def check(self, k: int, inp: FrameInputs, frame: Frame) -> list[str]:
        problems = checks.check_frame(frame, frame.rig, FRAME_STRIDE,
                                      self.height_bins, self.depth_bins)
        if k == 0:
            problems += checks.check_against_reference(
                frame, frame.rig, FRAME_STRIDE, self.height_bins, self.depth_bins, self.grid)
            self.working_set = _frame_bytes(frame)
        return problems


def _frame_bytes(frame: Frame) -> int:
    """Arrays a frame holds at once: both clouds, both distributions, both
    grids and the per-point contributions pooling forms."""
    total = 0
    for cloud in (frame.wedge_h, frame.wedge_d):
        total += cloud.positions.nbytes + cloud.features.nbytes + cloud.weights.nbytes
    for dist in (frame.dist_h, frame.dist_d):
        total += dist.data.nbytes + dist.cell_weight.nbytes
    for grid in (frame.bev_h, frame.bev_d):
        total += grid.data.nbytes + grid.hit_count.nbytes
    return total + frame.wedge_d.features.nbytes


# ---- CLI workloads ------------------------------------------------------------

class RobustnessStudy:
    """One `robustness` invocation per item on a benchmark-written config."""

    group_size = 1

    def __init__(self, seed: int, root: Path, work: Path, bench_layers):
        self.seed, self.layers, self.work = seed, bench_layers, work
        base = json.loads((root / "configs/experiment_robustness.json").read_text())
        self.base = {key: base[key] for key in ("height_bins", "depth_bins", "noise")}
        self.sigmas = {key: base["disturbance"][key]
                       for key in ("sigma_roll_deg", "sigma_pitch_deg")}
        self.rig_doc = json.loads((root / "configs/rig_default.json").read_text())
        self.scene_docs = _scene_docs(root)
        self.working_set = 0

    def inputs(self, k: int) -> Path:
        rng = _item_rng(self.seed, k)
        scene = jitter_scene_doc(self.scene_docs[k % len(self.scene_docs)], rng)
        doc = {
            **self.base,
            "rig": self.rig_doc,
            "scene": scene,
            "sample_stride": ROBUSTNESS_STRIDE,
            "seed": int(rng.integers(2**31)),
            "disturbance": {**self.sigmas, "n_trials": ROBUSTNESS_TRIALS,
                            "seed": int(rng.integers(2**31))},
        }
        item_dir = self.work / f"item_{k}"
        item_dir.mkdir(parents=True, exist_ok=True)
        path = item_dir / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def run(self, config: Path) -> int:
        return self.layers.main(["robustness", "--config", str(config),
                                 "--out", str(config.parent / "out")])

    def warm_up(self) -> None:
        config = self.inputs(WARM_UP)
        self.run(config)
        shutil.rmtree(config.parent)

    def check(self, k: int, config: Path, code: int) -> list[str]:
        out = config.parent / "out"
        problems = checks.check_robustness(code, out, ROBUSTNESS_TRIALS)
        if not self.working_set and not problems:
            self.working_set = _robustness_bytes(config, out)
        shutil.rmtree(config.parent)
        return problems


def _robustness_bytes(config: Path, out: Path) -> int:
    """Both distribution maps of a stride-8 frame plus the per-object
    tensors of the largest object: positions and the repeated pixel and
    hypothesis coordinates, for every bin of both kinds."""
    doc = json.loads(config.read_text())
    intr = doc["rig"]["intrinsics"]
    cells = (intr["image_w"] // ROBUSTNESS_STRIDE) * (intr["image_h"] // ROBUSTNESS_STRIDE)
    n_bins = doc["height_bins"]["n_bins"] + doc["depth_bins"]["n_bins"]
    lines = (out / "errors_disturbed.csv").read_text().splitlines()
    col = lines[1].split(",").index("n_pixels")
    n_px = max(int(line.split(",")[col]) for line in lines[2:] if line)
    return cells * n_bins * 8 + n_px * n_bins * 6 * 8


class LiftArtifacts:
    """One `lift` invocation per item on the committed lift config; items
    come in cycles of csv, bin, json that share one seed."""

    group_size = len(LIFT_FORMATS)

    def __init__(self, seed: int, root: Path, work: Path, bench_layers):
        self.seed, self.layers, self.work = seed, bench_layers, work
        self.config = root / "configs/experiment_lift.json"
        cfg, _, _ = cli.load_config(self.config)
        self.n_cells = cfg.bev_grid.n_x * cfg.bev_grid.n_y
        self.csv_digests = None
        self.bin_digest = None
        self.working_set = 0

    def _seed(self, cycle: int) -> int:
        return int(_item_rng(self.seed, cycle).integers(2**31))

    def inputs(self, k: int):
        cycle, fmt = divmod(k, len(LIFT_FORMATS))
        return self._seed(cycle), LIFT_FORMATS[fmt], self.work / f"item_{k}"

    def run(self, inp) -> int:
        seed, fmt, out = inp
        return self.layers.main(["lift", "--config", str(self.config), "--seed", str(seed),
                                 "--format", fmt, "--out", str(out)])

    def warm_up(self) -> None:
        """A bin run with the first cycle's seed; its digest is the
        same-seed reference for that cycle's bin item."""
        out = self.work / "warm_up"
        code = self.run((self._seed(0), "bin", out))
        if code == 0:
            self.bin_digest = checks.dir_digest(out)
        shutil.rmtree(out, ignore_errors=True)

    def check(self, k: int, inp, code: int) -> list[str]:
        seed, fmt, out = inp
        first_bin = fmt == "bin" and k < len(LIFT_FORMATS)
        problems, tables = checks.check_lift(
            code, out, fmt, self.n_cells,
            csv_digests=self.csv_digests if fmt == "bin" else None,
            same_seed_digest=self.bin_digest if first_bin else None,
        )
        if first_bin and self.bin_digest is None:
            problems.append("the same-seed warm-up run failed")
        if fmt == "csv":
            self.csv_digests = None if tables is None else checks.float32_digests(tables)
            if tables is not None and not self.working_set:
                self.working_set = _lift_bytes(tables)
        shutil.rmtree(out, ignore_errors=True)
        return problems


def _lift_bytes(tables: dict) -> int:
    """All four tables as float64 plus the same values as the Python row
    tuples the CLI builds before writing (about 32 bytes per value)."""
    values = sum(t.size for t in tables.values())
    return values * (8 + 32)


def make(name: str, seed: int, root: Path, work: Path, bench_layers):
    if name == "frames_static":
        return Frames(seed, root, bench_layers, sway=False)
    if name == "frames_sway":
        return Frames(seed, root, bench_layers, sway=True)
    if name == "robustness_study":
        return RobustnessStudy(seed, root, work, bench_layers)
    if name == "lift_artifacts":
        return LiftArtifacts(seed, root, work, bench_layers)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("frames_static", "frames_sway", "robustness_study", "lift_artifacts")
