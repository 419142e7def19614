"""Synthetic scenes with an analytic ray-casting ground truth.

A Scene is a flat ground plane (z = 0) plus yaw-oriented boxes inside a
rectangular ego-frame extent.  Rendering casts each pixel's ray against
the ground and every box and keeps the nearest hit, producing per-pixel
depth (camera-frame z), height above ground (ego z), and the kind of
surface hit.  Ground is only sensed inside the scene extent, mirroring a
bounded sensing range; rays that miss everything are sky.  Because the
pixel reference point has camera depth 1, the ray parameter of a hit IS
its depth, and heights come directly from ego z - no learned model is
involved anywhere.

Truth-conditioned bin distributions are derived from the rendered maps by
the predict_* functions under a configurable noise model, replacing a
trained categorical head with a controllable synthetic one.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .binning import BinSpec, value_to_bin
from .errors import (
    ConfigError,
    EmptyInput,
    ExtentTooSmall,
    OutOfRange,
    ShapeMismatch,
)
from .geometry import Box3D, CameraRig, pixel_to_ref_cam
from .lifting import DistributionMap
from .rng import substream

HIT_SKY = -1
HIT_GROUND = 0
# Box k of the scene renders as hit kind k + 1.

_RAY_T_MIN = 1e-9

# Footprint priors (l, w, h) in meters per object class.
CLASS_PRIORS = {
    "car": (4.5, 1.9, 1.6),
    "bus": (12.0, 2.5, 3.2),
    "pedestrian": (0.6, 0.6, 1.7),
    "cyclist": (1.8, 0.6, 1.7),
}

TEMPLATES = ("corridor", "intersection")


@dataclass(frozen=True)
class Scene:
    """Boxes on a ground plane, bounded by an (x_min, x_max, y_min, y_max)
    extent; rng_seed records the generator draw that produced it."""

    boxes: tuple[Box3D, ...]
    extent: tuple[float, float, float, float]
    rng_seed: int
    template: str = ""

    def __post_init__(self):
        x_min, x_max, y_min, y_max = self.extent
        if not (x_min < x_max and y_min < y_max):
            raise ConfigError("scene extent must be non-empty")
        for box in self.boxes:
            if box.z < 0:
                raise ConfigError("box centers must not sit below ground")
            if not (x_min <= box.x <= x_max and y_min <= box.y <= y_max):
                raise ConfigError("box center outside the scene extent")

    def to_json_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "template": self.template,
            "extent": {
                "x_min": self.extent[0],
                "x_max": self.extent[1],
                "y_min": self.extent[2],
                "y_max": self.extent[3],
            },
            "boxes": [
                {"x": b.x, "y": b.y, "z": b.z, "l": b.l, "w": b.w, "h": b.h, "theta": b.theta}
                for b in self.boxes
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scene":
        try:
            ext = doc["extent"]
            boxes = tuple(
                Box3D(b["x"], b["y"], b["z"], b["l"], b["w"], b["h"], b["theta"])
                for b in doc["boxes"]
            )
            return cls(
                boxes=boxes,
                extent=(
                    float(ext["x_min"]),
                    float(ext["x_max"]),
                    float(ext["y_min"]),
                    float(ext["y_max"]),
                ),
                rng_seed=int(doc.get("rng_seed", 0)),
                template=str(doc.get("template", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scene document: {exc}") from exc


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scene {path}: {exc}") from exc
    return Scene.from_json_dict(doc)


def save_scene(scene: Scene, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scene.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


_DEFAULT_EXTENTS = {
    "corridor": (0.0, 98.0, -40.0, 40.0),
    "intersection": (0.0, 98.0, -45.0, 45.0),
}
_CLASS_MIX = {
    "corridor": (("car", 0.70), ("bus", 0.15), ("cyclist", 0.10), ("pedestrian", 0.05)),
    "intersection": (("car", 0.50), ("bus", 0.10), ("pedestrian", 0.20), ("cyclist", 0.20)),
}
_MAX_ATTEMPTS_PER_BOX = 200


def generate_scene(
    template: str,
    n_boxes: int,
    seed: int,
    extent: tuple[float, float, float, float] | None = None,
) -> Scene:
    """Draw a deterministic scene layout from a template.

    corridor places traffic along a road strip ahead of the origin;
    intersection adds a crossing strip with lateral headings.  Dimensions
    jitter +-10% around the class priors, boxes rest on the ground
    (z = h / 2), and footprints are kept disjoint by a circumradius check.
    Raises ExtentTooSmall when a box cannot be placed within the retry
    budget.
    """
    if template not in TEMPLATES:
        raise ConfigError(f"unknown template {template!r}; expected one of {TEMPLATES}")
    if n_boxes < 0:
        raise ConfigError("n_boxes must be non-negative")
    extent = extent if extent is not None else _DEFAULT_EXTENTS[template]
    x_min, x_max, y_min, y_max = extent
    rng = substream(seed)
    names = [name for name, _ in _CLASS_MIX[template]]
    probs = np.array([p for _, p in _CLASS_MIX[template]])

    boxes: list[Box3D] = []
    radii: list[float] = []
    for _ in range(n_boxes):
        for attempt in range(_MAX_ATTEMPTS_PER_BOX):
            cls_name = names[int(rng.choice(len(names), p=probs))]
            l0, w0, h0 = CLASS_PRIORS[cls_name]
            l = l0 * rng.uniform(0.9, 1.1)
            w = w0 * rng.uniform(0.9, 1.1)
            h = h0 * rng.uniform(0.9, 1.1)
            if template == "intersection" and rng.uniform() < 0.45:
                # Cross traffic: lateral strip with lateral headings.
                x = rng.uniform(max(x_min + 10.0, 30.0), min(x_max - 4.0, 46.0))
                y = rng.uniform(y_min + 5.0, y_max - 5.0)
                theta = (np.pi / 2.0 if rng.uniform() < 0.5 else -np.pi / 2.0)
            else:
                x = rng.uniform(x_min + 10.0, x_max - 4.0)
                y = rng.uniform(-8.0, 8.0)
                theta = 0.0 if rng.uniform() < 0.5 else np.pi
            theta = theta + rng.normal(0.0, np.deg2rad(5.0))
            radius = 0.5 * float(np.hypot(l, w))
            ok = True
            for other, other_r in zip(boxes, radii):
                if np.hypot(x - other.x, y - other.y) <= radius + other_r + 0.3:
                    ok = False
                    break
            if ok:
                boxes.append(Box3D(x, y, h / 2.0, l, w, h, theta))
                radii.append(radius)
                break
        else:
            raise ExtentTooSmall(
                f"could not place box {len(boxes)} after {_MAX_ATTEMPTS_PER_BOX} attempts"
            )
    return Scene(tuple(boxes), extent, seed, template)


@dataclass
class PixelMaps:
    """Rendered ground truth on a pixel sample grid.

    width/height count sampled cells; depth and height_above_ground are
    NaN for sky; hit_kind is -1 sky, 0 ground, k + 1 for box k.
    sample_stride records the pixel spacing of the grid.
    """

    width: int
    height: int
    depth: np.ndarray
    height_above_ground: np.ndarray
    hit_kind: np.ndarray
    sample_stride: int = 1

    def __post_init__(self):
        shape = (self.height, self.width)
        for name in ("depth", "height_above_ground", "hit_kind"):
            arr = getattr(self, name)
            if np.asarray(arr).shape != shape:
                raise ShapeMismatch(f"{name} must have shape {shape}")
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.height_above_ground = np.asarray(self.height_above_ground, dtype=np.float64)
        self.hit_kind = np.asarray(self.hit_kind, dtype=np.int64)

    @property
    def non_sky(self) -> np.ndarray:
        return self.hit_kind != HIT_SKY

    def pixel_grid(self):
        """Pixel coordinates (u, v) of every sampled cell."""
        us = (np.arange(self.width, dtype=np.float64) + 0.5) * self.sample_stride
        vs = (np.arange(self.height, dtype=np.float64) + 0.5) * self.sample_stride
        return np.meshgrid(us, vs)


def _box_frames(boxes: Sequence[Box3D]):
    centers = np.array([[b.x, b.y, b.z] for b in boxes])
    cos = np.cos([b.theta for b in boxes])
    sin = np.sin([b.theta for b in boxes])
    half = np.array([[b.l, b.w, b.h] for b in boxes]) * 0.5
    return centers, cos, sin, half


def cast_rays(scene: Scene, rig: CameraRig, us, vs):
    """Cast rays through arbitrary pixel coordinates.

    Returns (depth, height, hit_kind) arrays shaped like the input.  The
    ray direction keeps camera z = 1, so the nearest-hit parameter equals
    camera depth directly.
    """
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    shape = us.shape
    ref_cam = pixel_to_ref_cam(us.ravel(), vs.ravel(), rig.intrinsics)
    dirs = ref_cam @ rig.extrinsics.rotation  # camera->ego rotation applied
    origin = rig.camera_center

    best_t = np.full(us.size, np.inf)
    kind = np.full(us.size, HIT_SKY, dtype=np.int64)

    # Ground plane z = 0, sensed only inside the scene extent.
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = -origin[2] / dz
        gx = origin[0] + t_ground * dirs[:, 0]
        gy = origin[1] + t_ground * dirs[:, 1]
    x_min, x_max, y_min, y_max = scene.extent
    ground_ok = (
        (t_ground > _RAY_T_MIN)
        & np.isfinite(t_ground)
        & (gx >= x_min)
        & (gx <= x_max)
        & (gy >= y_min)
        & (gy <= y_max)
    )
    best_t = np.where(ground_ok, t_ground, best_t)
    kind = np.where(ground_ok, HIT_GROUND, kind)

    if scene.boxes:
        centers, cos_t, sin_t, half = _box_frames(scene.boxes)
        for k in range(len(scene.boxes)):
            rel = origin - centers[k]
            # Rotate ray into the box frame (undo the yaw).
            ox = cos_t[k] * rel[0] + sin_t[k] * rel[1]
            oy = -sin_t[k] * rel[0] + cos_t[k] * rel[1]
            oz = rel[2]
            dx = cos_t[k] * dirs[:, 0] + sin_t[k] * dirs[:, 1]
            dy = -sin_t[k] * dirs[:, 0] + cos_t[k] * dirs[:, 1]
            dzb = dirs[:, 2]
            t_near = np.full(us.size, -np.inf)
            t_far = np.full(us.size, np.inf)
            for o, d, half_size in ((ox, dx, half[k, 0]), (oy, dy, half[k, 1]), (oz, dzb, half[k, 2])):
                parallel = np.abs(d) < 1e-12
                with np.errstate(divide="ignore", invalid="ignore"):
                    t1 = (-half_size - o) / d
                    t2 = (half_size - o) / d
                lo = np.minimum(t1, t2)
                hi = np.maximum(t1, t2)
                inside = np.abs(o) <= half_size
                lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
                hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
                t_near = np.maximum(t_near, lo)
                t_far = np.minimum(t_far, hi)
            hit = (t_near <= t_far) & (t_far > _RAY_T_MIN)
            t_hit = np.where(t_near > _RAY_T_MIN, t_near, t_far)
            better = hit & (t_hit < best_t)
            best_t = np.where(better, t_hit, best_t)
            kind = np.where(better, k + 1, kind)

    sky = ~np.isfinite(best_t)
    depth = np.where(sky, np.nan, best_t)
    with np.errstate(invalid="ignore"):  # inf * 0 on discarded sky lanes
        height = np.where(sky, np.nan, origin[2] + best_t * dirs[:, 2])
    return depth.reshape(shape), height.reshape(shape), kind.reshape(shape)


def render(scene: Scene, rig: CameraRig, sample_stride: int = 1) -> PixelMaps:
    """Render the scene on a regular pixel grid at the given stride."""
    if sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")
    width = rig.intrinsics.image_w // sample_stride
    height = rig.intrinsics.image_h // sample_stride
    us = (np.arange(width, dtype=np.float64) + 0.5) * sample_stride
    vs = (np.arange(height, dtype=np.float64) + 0.5) * sample_stride
    uu, vv = np.meshgrid(us, vs)
    depth, hag, kind = cast_rays(scene, rig, uu, vv)
    return PixelMaps(width, height, depth, hag, kind, sample_stride)


@dataclass(frozen=True)
class Histogram:
    """Counts per fixed-width bin; edges has one more entry than counts."""

    edges: np.ndarray
    counts: np.ndarray


def histogram(values, bin_width: float) -> Histogram:
    """Histogram of finite values on bins anchored at multiples of the width."""
    if not bin_width > 0:
        raise ConfigError("bin width must be positive")
    arr = np.asarray(values, dtype=np.float64).ravel()
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise EmptyInput("no finite values to histogram")
    lo = np.floor(arr.min() / bin_width)
    hi = np.floor(arr.max() / bin_width) + 1.0
    edges = np.arange(lo, hi + 1.0) * bin_width
    counts, _ = np.histogram(arr, bins=edges)
    return Histogram(edges, counts)


@dataclass(frozen=True)
class NoiseModel:
    """How truth becomes a categorical prediction.

    one_hot_truth places all mass on the true bin; gaussian_bin_blur
    spreads a discretized Gaussian of sigma_bins (in bin index units)
    around the true bin; bias shifts the truth by bias_m meters before
    binning.  seed is recorded with outputs for provenance.
    """

    kind: str
    sigma_bins: float = 0.0
    bias_m: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("one_hot_truth", "gaussian_bin_blur", "bias"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.sigma_bins) and np.isfinite(self.bias_m)):
            raise ConfigError("sigma_bins and bias_m must be finite")
        if self.sigma_bins < 0:
            raise ConfigError("sigma_bins must be non-negative")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma_bins": self.sigma_bins,
            "bias_m": self.bias_m,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "NoiseModel":
        try:
            return cls(
                kind=str(doc["kind"]),
                sigma_bins=float(doc.get("sigma_bins", 0.0)),
                bias_m=float(doc.get("bias_m", 0.0)),
                seed=int(doc.get("seed", 0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed noise model: {exc}") from exc


def _distribution_from_values(
    values: np.ndarray, valid: np.ndarray, bins: BinSpec, noise: NoiseModel
) -> DistributionMap:
    height, width = values.shape
    n = bins.n_bins
    data = np.full((height * width, n), 1.0 / n)
    cell_weight = np.zeros(height * width)
    flat_valid = valid.ravel()
    vals = values.ravel()[flat_valid]
    if vals.size:
        shifted = vals + noise.bias_m if noise.kind == "bias" else vals
        try:
            true_bins = value_to_bin(shifted, bins)
        except OutOfRange as exc:
            raise OutOfRange(f"rendered values do not fit the bin range: {exc}") from exc
        if noise.kind == "gaussian_bin_blur" and noise.sigma_bins > 0:
            offsets = np.arange(n, dtype=np.float64)
            logits = -((offsets[None, :] - true_bins[:, None]) ** 2) / (
                2.0 * noise.sigma_bins**2
            )
            weights = np.exp(logits)
            weights /= weights.sum(axis=1, keepdims=True)
        else:
            weights = np.zeros((vals.size, n))
            weights[np.arange(vals.size), true_bins] = 1.0
        data[flat_valid] = weights
        cell_weight[flat_valid] = 1.0
    return DistributionMap(
        width, height, n, data.reshape(height, width, n), cell_weight.reshape(height, width)
    )


def predict_height_distribution(
    maps: PixelMaps, bins: BinSpec, noise: NoiseModel
) -> DistributionMap:
    """Truth-conditioned height distribution per sampled pixel.

    Sky pixels get a uniform distribution with cell weight zero.  Raises
    OutOfRange when an observed height (after any bias) leaves the bin
    range, surfacing a bin spec that does not cover the scene.
    """
    return _distribution_from_values(maps.height_above_ground, maps.non_sky, bins, noise)


def predict_depth_distribution(
    maps: PixelMaps, bins: BinSpec, noise: NoiseModel
) -> DistributionMap:
    """Truth-conditioned depth distribution per sampled pixel."""
    return _distribution_from_values(maps.depth, maps.non_sky, bins, noise)
