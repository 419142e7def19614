"""Synthetic scenes with an analytic ray-casting ground truth.

A Scene is a flat ground plane (z = 0) plus yaw-oriented boxes inside a
rectangular ego-frame extent.  Rendering casts each pixel's ray against
the ground and the boxes and keeps the nearest hit, producing per-pixel
depth (camera-frame z), height above ground (ego z), and the kind of
surface hit.  Boxes are tested in one vectorized slab pass over candidate
(box, ray) pairs, the rays inside each box's projected rectangle found by
a range search over the rows (distinct v) and then the columns (distinct
u) of the rays.  On a tie the lower box index wins, and the ground wins
over a box.  Ground is only sensed inside the scene extent, mirroring a
bounded sensing range; rays that miss everything are sky.  Because the pixel reference point has camera depth
1, the ray parameter of a hit IS its depth, and heights come directly
from ego z - no learned model is involved anywhere.

Truth-conditioned bin distributions are derived from the rendered maps by
the predict_* functions under a configurable noise model, replacing a
trained categorical head with a controllable synthetic one.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .binning import BinSpec, value_to_bin
from .errors import (
    ConfigError,
    EmptyInput,
    ExtentTooSmall,
    OutOfRange,
    ShapeMismatch,
    config_float,
    config_floats,
    config_int,
    config_object,
)
from .geometry import Box3D, CameraRig, Intrinsics, _mat3, pixel_to_ref_cam, project_ego
from .lifting import DistributionMap, _check_bin_weights, _ranges, cell_pixel_centers
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


EXTENT_KEYS = ("x_min", "x_max", "y_min", "y_max")


def _extent(x_min, x_max, y_min, y_max):
    """An extent tuple from the keys of its JSON object."""
    return x_min, x_max, y_min, y_max


@dataclass(frozen=True)
class Scene:
    """Boxes on a ground plane, bounded by an (x_min, x_max, y_min, y_max)
    extent; rng_seed records the generator draw that produced it.

    The constructor derives _frames, the read-only (centers, cos, sin,
    half sizes, corners) arrays of every box that each render reads (see
    _box_frames), so a scene computes them once whatever the number of
    poses it is rendered from."""

    boxes: tuple[Box3D, ...]
    extent: tuple[float, float, float, float]
    rng_seed: int = 0
    template: str = ""
    _frames: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.extent, (tuple, list)) or len(self.extent) != 4:
            raise ConfigError(f"extent must hold {', '.join(EXTENT_KEYS)}, got {self.extent!r}")
        extent = tuple(
            config_float(f"extent.{key}", value) for key, value in zip(EXTENT_KEYS, self.extent)
        )
        object.__setattr__(self, "extent", extent)
        config_int("rng_seed", self.rng_seed, lo=0)
        if not isinstance(self.template, str):
            raise ConfigError(f"template must be a string, got {self.template!r}")
        x_min, x_max, y_min, y_max = extent
        if not (x_min < x_max and y_min < y_max):
            raise ConfigError("extent must be non-empty: x_min < x_max and y_min < y_max")
        for i, box in enumerate(self.boxes):
            config_float(f"boxes[{i}].z", box.z, lo=0.0)
            if not (x_min <= box.x <= x_max and y_min <= box.y <= y_max):
                raise ConfigError(f"boxes[{i}] has its center outside the extent")
        # Finite fields can still place a corner so far out that the render
        # arithmetic (projection, slab divisions) overflows; the squared
        # distance of such a corner from the ego origin overflows first.
        frames = _box_frames(self.boxes)
        with np.errstate(over="ignore"):
            reach = np.sum(frames[-1] ** 2, axis=(1, 2))
        far = np.flatnonzero(~np.isfinite(reach))
        if far.size:
            raise ConfigError(
                f"boxes[{far[0]}].corners must have a finite squared distance "
                "from the ego origin"
            )
        object.__setattr__(self, "_frames", frames)

    def to_json_dict(self) -> dict:
        return {
            "rng_seed": self.rng_seed,
            "template": self.template,
            "extent": dict(zip(EXTENT_KEYS, self.extent)),
            "boxes": [
                {"x": b.x, "y": b.y, "z": b.z, "l": b.l, "w": b.w, "h": b.h, "theta": b.theta}
                for b in self.boxes
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "") -> "Scene":
        return config_object(_scene, doc, path)


def _scene(boxes, extent, rng_seed=Scene.rng_seed, template=Scene.template) -> Scene:
    """The scene of a JSON document; the parameters are its keys, with the
    dataclass's own defaults."""
    if not isinstance(boxes, list):
        raise ConfigError(f"boxes must be a JSON array, got {type(boxes).__name__}")
    return Scene(
        tuple(config_object(Box3D, box, f"boxes[{i}]") for i, box in enumerate(boxes)),
        config_object(_extent, extent, "extent"),
        rng_seed,
        template,
    )


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
        raise ConfigError(f"template must be one of {TEMPLATES}, got {template!r}")
    config_int("n_boxes", n_boxes, lo=0)
    config_int("seed", seed, lo=0)
    # An empty scene checks the extent before any box is drawn inside it.
    extent = Scene((), extent if extent is not None else _DEFAULT_EXTENTS[template]).extent
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
        return cell_pixel_centers(self.width, self.height, self.sample_stride)


def _box_frames(boxes: Sequence[Box3D]):
    """(centers, cos, sin, half sizes, corners) of the boxes, read-only:
    (n, 3), (n,), (n,), (n, 3) and the (n, 8, 3) Box3D.corners."""
    centers = np.array([[b.x, b.y, b.z] for b in boxes], dtype=np.float64).reshape(-1, 3)
    cos = np.cos(np.array([b.theta for b in boxes], dtype=np.float64))
    sin = np.sin(np.array([b.theta for b in boxes], dtype=np.float64))
    half = np.array([[b.l, b.w, b.h] for b in boxes], dtype=np.float64).reshape(-1, 3) * 0.5
    frames = (centers, cos, sin, half, _box_corners(centers, cos, sin, half))
    for arr in frames:
        arr.flags.writeable = False
    return frames


# Corner signs of a box in its own frame, in units of the half sizes.
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (1.0, -1.0) for sy in (1.0, -1.0) for sz in (1.0, -1.0)]
)


def _box_corners(centers, cos_t, sin_t, half) -> np.ndarray:
    """Box3D.corners of every box at once, (n_boxes, 8, 3)."""
    local = _CORNER_SIGNS * half[:, None, :]
    x = cos_t[:, None] * local[..., 0] - sin_t[:, None] * local[..., 1]
    y = sin_t[:, None] * local[..., 0] + cos_t[:, None] * local[..., 1]
    return np.stack([x, y, local[..., 2]], axis=-1) + centers[:, None, :]


@dataclass(frozen=True)
class _Rays:
    """Pixel coordinates to cast rays through, indexed for the box range
    search; every array is read-only.

    ref_cam holds each ray's pixel_to_ref_cam reference point.  u_levels
    and v_levels are the distinct u and v coordinates, ascending: the
    columns and rows of the rays.  order lists the rays by (row, column)
    and keys holds, in that order, each ray's row * len(u_levels) +
    column, so the rays of one row between two columns are one range of
    keys.  A render grid's rays are in that order already: order and keys
    are then both arange."""

    ref_cam: np.ndarray
    u_levels: np.ndarray
    v_levels: np.ndarray
    order: np.ndarray
    keys: np.ndarray

    def __post_init__(self):
        for arr in (self.ref_cam, self.u_levels, self.v_levels, self.order, self.keys):
            arr.flags.writeable = False


def _rays(us: np.ndarray, vs: np.ndarray, intrinsics: Intrinsics) -> _Rays:
    """The indexed rays through the pixel coordinates (us, vs), 1-D."""
    u_levels, column = np.unique(us, return_inverse=True)
    v_levels, row = np.unique(vs, return_inverse=True)
    keys = row * u_levels.size + column
    order = np.argsort(keys, kind="stable")
    return _Rays(pixel_to_ref_cam(us, vs, intrinsics), u_levels, v_levels, order, keys[order])


def _grid_rays(intrinsics: Intrinsics, stride: int) -> _Rays:
    """The indexed rays of the render grid at stride, memoized on the
    intrinsics (Intrinsics._grids): every pose of one camera shares them.
    The memo holds one grid, replaced when the stride changes, because a
    grid at stride 1 takes tens of megabytes."""
    rays = intrinsics._grids.get(stride)
    if rays is None:
        width, height = intrinsics.image_w // stride, intrinsics.image_h // stride
        uu, vv = cell_pixel_centers(width, height, stride)
        index = np.arange(uu.size)
        # The grid's columns are the u of its first row, its rows the v of
        # its first column (none when the stride leaves no cell).
        rays = _Rays(pixel_to_ref_cam(uu.ravel(), vv.ravel(), intrinsics),
                     uu[:1].ravel().copy(), vv[:, :1].ravel(), index, index)
        intrinsics._grids.clear()
        intrinsics._grids[stride] = rays
    return rays


def _box_ray_pairs(corners: np.ndarray, rays: _Rays, rig: CameraRig):
    """The (box, ray) index pairs whose ray can hit the box, box-major.

    A ray hits a box only through a point inside it; when every corner of
    the box lies in front of the camera, that point projects inside the
    convex hull of the projected corners, hence inside their bounding
    rectangle.  The rectangle is padded by 1 px against rounding.  A box
    with a corner at or behind the camera plane gets every ray.  A range
    search over the distinct v gives each box its rows (v_lo <= v <= v_hi),
    one over the distinct u its columns (u_lo <= u <= u_hi), and one over
    the keys the rays of each (box, row) run: the pairs a full scan with
    those comparisons keeps, and no other.
    """
    cu, cv, depth, _ = project_ego(corners, rig.intrinsics, rig.extrinsics)
    front = np.all(depth > 0, axis=1)
    u_lo, u_hi = cu.min(axis=1) - 1.0, cu.max(axis=1) + 1.0
    v_lo, v_hi = cv.min(axis=1) - 1.0, cv.max(axis=1) + 1.0
    u_lo[~front] = v_lo[~front] = -np.inf
    u_hi[~front] = v_hi[~front] = np.inf
    row_lo = np.searchsorted(rays.v_levels, v_lo, "left")
    n_rows = np.searchsorted(rays.v_levels, v_hi, "right") - row_lo
    col_lo = np.searchsorted(rays.u_levels, u_lo, "left")
    col_hi = np.searchsorted(rays.u_levels, u_hi, "right")
    run_box = np.repeat(np.arange(len(corners)), n_rows)
    run_key = _ranges(row_lo, n_rows) * rays.u_levels.size
    start = np.searchsorted(rays.keys, run_key + col_lo[run_box], "left")
    counts = np.searchsorted(rays.keys, run_key + col_hi[run_box], "left") - start
    return np.repeat(run_box, counts), rays.order[_ranges(start, counts)]


def _cast(scene: Scene, rig: CameraRig, rays: _Rays):
    """(depth, height, hit_kind) of each ray, 1-D; see cast_rays."""
    dirs = _mat3(rays.ref_cam, rig.extrinsics.rotation)  # camera->ego rotation applied
    origin = rig.camera_center

    # Ground plane z = 0, sensed only inside the scene extent.  best_t
    # starts as the ground's ray parameter; each pass writes in place.
    with np.errstate(divide="ignore", invalid="ignore"):
        best_t = np.divide(-origin[2], dirs[:, 2])
    ground = np.isfinite(best_t)
    ground &= best_t > _RAY_T_MIN
    reach = np.empty_like(best_t)
    x_min, x_max, y_min, y_max = scene.extent
    for axis, lo, hi in ((0, x_min, x_max), (1, y_min, y_max)):
        with np.errstate(invalid="ignore"):
            np.multiply(best_t, dirs[:, axis], out=reach)
        reach += origin[axis]
        ground &= reach >= lo
        ground &= reach <= hi
    kind = np.where(ground, HIT_GROUND, HIT_SKY)
    best_t[~ground] = np.inf

    if scene.boxes:
        centers, cos_t, sin_t, half, corners = scene._frames
        box, ray = _box_ray_pairs(corners, rays, rig)
        # The ray origin per box and each pair's direction in the box frame
        # (undo the yaw), and per box the slab faces relative to the origin.
        rel = origin - centers
        ox, oy = cos_t * rel[:, 0] + sin_t * rel[:, 1], -sin_t * rel[:, 0] + cos_t * rel[:, 1]
        o = np.stack([ox, oy, rel[:, 2]], axis=1)
        face_lo, face_hi, inside = -half - o, half - o, np.abs(o) <= half
        d, c, s = dirs[ray], cos_t[box], sin_t[box]
        pair_dirs = (c * d[:, 0] + s * d[:, 1], -s * d[:, 0] + c * d[:, 1], d[:, 2])
        t_near, t_far = -np.inf, np.inf
        for axis, d_axis in enumerate(pair_dirs):
            parallel = np.abs(d_axis) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                t1, t2 = face_lo[box, axis] / d_axis, face_hi[box, axis] / d_axis
            lo, hi = np.minimum(t1, t2), np.maximum(t1, t2)
            lo = np.where(parallel, np.where(inside[box, axis], -np.inf, np.inf), lo)
            hi = np.where(parallel, np.where(inside[box, axis], np.inf, -np.inf), hi)
            t_near, t_far = np.maximum(t_near, lo), np.minimum(t_far, hi)
        hit = (t_near <= t_far) & (t_far > _RAY_T_MIN)
        t_hit = np.where(t_near > _RAY_T_MIN, t_near, t_far)[hit]
        box, ray = box[hit], ray[hit]
        box_t, first = np.full(len(best_t), np.inf), np.full(len(best_t), len(centers))
        np.minimum.at(box_t, ray, t_hit)
        nearest = t_hit == box_t[ray]
        np.minimum.at(first, ray[nearest], box[nearest])
        better = box_t < best_t
        np.copyto(best_t, box_t, where=better)
        first += 1
        np.copyto(kind, first, where=better)

    sky = ~np.isfinite(best_t)
    with np.errstate(invalid="ignore"):  # inf * 0 on discarded sky lanes
        height = np.multiply(best_t, dirs[:, 2])
    height += origin[2]
    best_t[sky] = height[sky] = np.nan
    # The ground is the plane z = 0, whatever origin + t * dir rounds to.
    height[kind == HIT_GROUND] = 0.0
    return best_t, height, kind


def cast_rays(scene: Scene, rig: CameraRig, us, vs):
    """Cast rays through arbitrary pixel coordinates.

    Returns (depth, height, hit_kind) arrays shaped like the input.  The
    ray direction keeps camera z = 1, so the nearest-hit parameter equals
    camera depth directly.  One slab test runs over all candidate pairs of
    _box_ray_pairs; each ray keeps its nearest box hit, the lowest box
    index on a tie, when strictly nearer than the ground: bit for bit a
    box-by-box loop keeping each hit with t < best over every ray.
    """
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    shape = us.shape
    hits = _cast(scene, rig, _rays(us.ravel(), vs.ravel(), rig.intrinsics))
    return tuple(a.reshape(shape) for a in hits)


def render(scene: Scene, rig: CameraRig, sample_stride: int = 1) -> PixelMaps:
    """Render the scene on a regular pixel grid at the given stride; the
    grid's rays are built once per camera and stride (see _grid_rays)."""
    if sample_stride < 1:
        raise ConfigError("sample_stride must be >= 1")
    width = rig.intrinsics.image_w // sample_stride
    height = rig.intrinsics.image_h // sample_stride
    depth, hag, kind = _cast(scene, rig, _grid_rays(rig.intrinsics, sample_stride))
    shape = (height, width)
    return PixelMaps(width, height, depth.reshape(shape), hag.reshape(shape),
                     kind.reshape(shape), sample_stride)


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


NOISE_KINDS = ("one_hot_truth", "gaussian_bin_blur", "bias")


@dataclass(frozen=True)
class NoiseModel:
    """How truth becomes a categorical prediction.

    one_hot_truth places all mass on the true bin; gaussian_bin_blur
    spreads a discretized Gaussian of sigma_bins (in bin index units)
    around the true bin; bias shifts the truth by bias_m meters before
    binning.  Each field is given exactly for the kind that reads it.
    """

    kind: str
    sigma_bins: float | None = None
    bias_m: float | None = None

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        for name, kind, lo in (("sigma_bins", "gaussian_bin_blur", 0.0), ("bias_m", "bias", None)):
            if self.kind == kind:
                config_floats(self, name, lo=lo)
            elif getattr(self, name) is not None:
                raise ConfigError(f"{name} is read only by the {kind} kind, not by {self.kind}")
        if self.kind == "gaussian_bin_blur" and self.sigma_bins > 0:
            spread = _kernel_spread(self.sigma_bins)
            if not (np.isfinite(spread) and spread > 0):
                raise ConfigError(
                    f"sigma_bins must make 2 * sigma_bins**2 a positive finite number, "
                    f"got {self.sigma_bins!r}"
                )

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "") -> "NoiseModel":
        return config_object(cls, doc, path)


def _kernel_spread(sigma_bins: float) -> np.float64:
    """2 * sigma_bins**2, the Gaussian kernel's divisor: inf where it
    overflows, 0.0 where it underflows."""
    with np.errstate(over="ignore", under="ignore"):
        return 2.0 * np.float64(sigma_bins) ** 2


@functools.lru_cache(maxsize=4)
def _noise_table(bins: BinSpec, noise: NoiseModel) -> np.ndarray:
    """The (n_bins, n_bins) table whose row i is the predicted distribution
    of a cell whose true bin is i: a normalized Gaussian kernel for
    gaussian_bin_blur with sigma_bins > 0, else the identity.  A sigma_bins
    so small that every off-diagonal quotient overflows gives the identity
    too, silently.  It is checked here under DistributionMap's rules, so
    rows gathered from it are valid distributions.  Read-only and memoized
    for the last few (bins, noise) pairs, as _predicted_table is, so the
    studies of one run build each table once.

    The kernel is evaluated once per offset |i - j| and gathered: the
    squared difference of two small whole numbers is exact, so each entry
    has the bits of exp(-((j - i) ** 2) / spread) evaluated pair by pair."""
    n = bins.n_bins
    if noise.kind == "gaussian_bin_blur" and noise.sigma_bins > 0:
        offsets = np.arange(n, dtype=np.float64)
        with np.errstate(over="ignore"):
            kernel = np.exp(-(offsets ** 2) / _kernel_spread(noise.sigma_bins))
        index = np.arange(n)
        table = kernel[np.abs(index[None, :] - index[:, None])]
        table /= table.sum(axis=1, keepdims=True)
    else:
        table = np.eye(n)
    _check_bin_weights(table)
    table.flags.writeable = False
    return table


def _true_bin_map(values: np.ndarray, valid: np.ndarray, bins: BinSpec,
                  noise: NoiseModel) -> np.ndarray:
    """Each pixel's bin after the noise model's bias, 0 where not valid.
    Raises OutOfRange when any valid value leaves the bin range."""
    shifted = values[valid] + noise.bias_m if noise.kind == "bias" else values[valid]
    out = np.zeros(values.shape, dtype=np.int64)
    try:
        out[valid] = value_to_bin(shifted, bins)
    except OutOfRange as exc:
        raise OutOfRange(f"rendered values do not fit the bin range: {exc}") from exc
    return out


@functools.lru_cache(maxsize=4)
def _predicted_table(bins: BinSpec, noise: NoiseModel) -> np.ndarray:
    """The table of every map predicted under bins and noise: the noise
    table's n_bins rows, then the uniform row of a sky cell.  Read-only
    and memoized for the last few (bins, noise) pairs, so the frames of one
    config share one table and none rebuilds it."""
    n = bins.n_bins
    table = np.vstack([_noise_table(bins, noise), np.full(n, 1.0 / n)])
    table.flags.writeable = False
    return table


def _distribution_from_values(
    values: np.ndarray, valid: np.ndarray, bins: BinSpec, noise: NoiseModel
) -> DistributionMap:
    """The noise table's row of each valid cell's true bin, with cell
    weight 1; other cells take a uniform row with cell weight 0.  The map
    holds the shared predicted table (see _predicted_table) and each
    cell's row index, so its bin rule runs over n_bins + 1 rows, not over
    every cell."""
    height, width = values.shape
    n = bins.n_bins
    rows = _true_bin_map(values, valid, bins, noise)
    rows[~valid] = n
    return DistributionMap(width, height, n, _predicted_table(bins, noise),
                           valid.astype(np.float64), rows)


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
