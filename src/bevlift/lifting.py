"""Per-pixel 2D-to-3D lifting through height or depth hypotheses.

The height path works in the camera's ground-aligned virtual frame.  For a
pixel (u, v) the reference point at camera depth 1 is rotated into the
virtual frame; because a point at ego height g has virtual Y coordinate
(ground_height_H - g), scaling the reference point by
(ground_height_H - h) / y_ref lands the pixel ray exactly on the plane of
height h.  Mapping the scaled point back to ego yields the lifted 3D
position.  The depth path simply scales the camera-frame reference point
by the depth and maps it to ego; both paths recover the identical point
when fed the true height respectively true depth of a surface.

build_wedge expands a fused feature map into a point cloud: one point per
(feature cell, bin), ordered cells row-major with bins ascending within a
cell.  Feature cell (row r, col c) looks through the pixel at
((c + 0.5) * stride, (r + 0.5) * stride).  Cells whose ray does not
descend toward the ground (y_ref <= 1e-6) cannot carry height hypotheses;
they are skipped and counted, never fatal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binning import BinSpec, HEIGHT_STRATEGIES, bin_midpoints
from .errors import (
    AboveCamera,
    ConfigError,
    HorizonRay,
    NonPositiveDepth,
    ShapeMismatch,
)
from .geometry import CameraRig, pixel_to_ref_cam

EPS_HORIZON = 1e-6

# Operating defaults for the full-scale rig.
DEFAULT_IMAGE_W = 1536
DEFAULT_IMAGE_H = 864
DEFAULT_PIXEL_STRIDE = 16
DEFAULT_HEIGHT_RANGE = (-1.0, 1.0)
DEFAULT_HEIGHT_BINS = 90
DEFAULT_DEPTH_RANGE = (1.0, 104.0)
DEFAULT_DEPTH_BINS = 206


def default_height_spec(alpha: float = 2.0) -> BinSpec:
    lo, hi = DEFAULT_HEIGHT_RANGE
    return BinSpec("DID", DEFAULT_HEIGHT_BINS, lo, hi, alpha=alpha)


def default_depth_spec() -> BinSpec:
    lo, hi = DEFAULT_DEPTH_RANGE
    return BinSpec("DEPTH_UD", DEFAULT_DEPTH_BINS, lo, hi)


@dataclass
class ContextMap:
    """Dense per-cell feature map, data shaped (height, width, channels)."""

    width: int
    height: int
    channels: int
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.height, self.width, self.channels):
            raise ShapeMismatch(
                f"context data shape {self.data.shape} != "
                f"({self.height}, {self.width}, {self.channels})"
            )
        if not np.all(np.isfinite(self.data)):
            raise ConfigError("context features must be finite")


@dataclass
class DistributionMap:
    """Per-cell categorical weights over bins, shaped (height, width, n_bins).

    cell_weight scales each cell's contribution when points are emitted;
    cells with nothing to say (e.g. sky pixels) carry a uniform
    distribution flagged with cell_weight 0.
    """

    width: int
    height: int
    n_bins: int
    data: np.ndarray
    cell_weight: np.ndarray | None = None

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.shape != (self.height, self.width, self.n_bins):
            raise ShapeMismatch(
                f"distribution data shape {self.data.shape} != "
                f"({self.height}, {self.width}, {self.n_bins})"
            )
        if self.cell_weight is None:
            self.cell_weight = np.ones((self.height, self.width))
        else:
            self.cell_weight = np.asarray(self.cell_weight, dtype=np.float64)
            if self.cell_weight.shape != (self.height, self.width):
                raise ShapeMismatch("cell_weight shape does not match the map")
            if not np.all(np.isfinite(self.cell_weight)):
                raise ConfigError("cell weights must be finite")
        if np.any(self.data < 0) or np.any(self.cell_weight < 0):
            raise ConfigError("distribution weights must be non-negative")
        sums = self.data.sum(axis=-1)
        if not np.all(np.abs(sums - 1.0) <= 1e-6):
            raise ConfigError("per-cell bin weights must sum to 1 within 1e-6")


@dataclass
class FusedMap:
    """Outer product of a context map and a bin distribution, kept factored:
    fused[r, c, bin, ch] = context[r, c, ch] * dist[r, c, bin].  Point
    emission reads the two factors directly and never forms the product.
    """

    context: ContextMap
    dist: DistributionMap

    @property
    def width(self) -> int:
        return self.context.width

    @property
    def height(self) -> int:
        return self.context.height


def fuse(context: ContextMap, dist: DistributionMap) -> FusedMap:
    """Pair a context map with a bin distribution of the same cell grid."""
    if (context.width, context.height) != (dist.width, dist.height):
        raise ShapeMismatch(
            f"context grid {context.width}x{context.height} != "
            f"distribution grid {dist.width}x{dist.height}"
        )
    return FusedMap(context, dist)


@dataclass
class WedgeCloud:
    """Lifted points with per-point features and weights.

    positions are ego-frame xyz, one row per emitted (cell, bin) pair;
    features repeat the cell's context vector; weights carry the bin
    weight scaled by the cell weight.  skipped_cells counts feature cells
    dropped because their ray could not carry height hypotheses.
    """

    positions: np.ndarray
    features: np.ndarray
    weights: np.ndarray
    source_rig_id: str = ""
    skipped_cells: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if self.features.ndim != 2 or self.features.shape[0] != self.positions.shape[0]:
            raise ShapeMismatch("features must be (n_points, channels)")
        if self.weights.shape[0] != self.positions.shape[0]:
            raise ShapeMismatch("weights must have one entry per point")
        if not np.all(np.isfinite(self.positions)):
            raise ConfigError("lifted positions must be finite")
        if not np.all(np.isfinite(self.weights)):
            raise ConfigError("point weights must be finite")
        if np.any(self.weights < 0):
            raise ConfigError("point weights must be non-negative")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def channels(self) -> int:
        return self.features.shape[1]


def _ref_virt(u, v, rig: CameraRig) -> np.ndarray:
    ref_cam = pixel_to_ref_cam(u, v, rig.intrinsics)
    return ref_cam @ rig.t_cam_virt.T


def lift_pixel_height(u: float, v: float, h: float, rig: CameraRig) -> np.ndarray:
    """Lift pixel (u, v) to the ego point of height h along its ray.

    Steps: reference point at camera depth 1, rotate into the virtual
    frame, scale by (ground_height_H - h) / y_ref, map to ego.  Raises
    AboveCamera when h is at or above the camera center and HorizonRay
    when the pixel ray does not descend (y_ref <= 1e-6).
    """
    if h >= rig.ground_height_H:
        raise AboveCamera(
            f"height {h} m is not below the camera at {rig.ground_height_H} m"
        )
    ref_virt = _ref_virt(float(u), float(v), rig)
    y_ref = ref_virt[1]
    if y_ref <= EPS_HORIZON:
        raise HorizonRay(f"pixel ({u}, {v}) looks at or above the horizon")
    scale = (rig.ground_height_H - h) / y_ref
    return rig.t_virt_ego.apply(scale * ref_virt)


def lift_pixel_height_composed(u: float, v: float, h: float, rig: CameraRig) -> np.ndarray:
    """Single-expression form of lift_pixel_height.

    Pre-composes the virtual-to-ego and camera-to-virtual rotations and
    evaluates the whole chain in one shot; numerically it may differ from
    the stepwise version only by floating-point association.
    """
    if h >= rig.ground_height_H:
        raise AboveCamera(
            f"height {h} m is not below the camera at {rig.ground_height_H} m"
        )
    ref_cam = pixel_to_ref_cam(float(u), float(v), rig.intrinsics)
    y_ref = rig.t_cam_virt[1] @ ref_cam
    if y_ref <= EPS_HORIZON:
        raise HorizonRay(f"pixel ({u}, {v}) looks at or above the horizon")
    cam_to_ego = rig.t_virt_ego.rotation @ rig.t_cam_virt
    return ((rig.ground_height_H - h) / y_ref) * (cam_to_ego @ ref_cam) + rig.t_virt_ego.translation


def lift_pixel_depth(u: float, v: float, depth: float, rig: CameraRig) -> np.ndarray:
    """Lift pixel (u, v) to the ego point at the given camera depth."""
    if not depth > 0:
        raise NonPositiveDepth(f"depth must be positive, got {depth}")
    ref_cam = pixel_to_ref_cam(float(u), float(v), rig.intrinsics)
    return rig.extrinsics.cam_to_ego(depth * ref_cam)


def lift_many_height(us, vs, hs, rig: CameraRig) -> np.ndarray:
    """Vectorized height lift; all rays must descend and heights sit below
    the camera (callers mask first)."""
    hs = np.asarray(hs, dtype=np.float64)
    if np.any(hs >= rig.ground_height_H):
        raise AboveCamera("height at or above the camera center")
    ref_virt = _ref_virt(np.asarray(us, dtype=np.float64), np.asarray(vs, dtype=np.float64), rig)
    y_ref = ref_virt[..., 1]
    if np.any(y_ref <= EPS_HORIZON):
        raise HorizonRay("ray does not descend toward the ground")
    scale = (rig.ground_height_H - hs) / y_ref
    return rig.t_virt_ego.apply(scale[..., None] * ref_virt)


def lift_many_depth(us, vs, depths, rig: CameraRig) -> np.ndarray:
    """Vectorized depth lift; depths must be strictly positive."""
    depths = np.asarray(depths, dtype=np.float64)
    if np.any(depths <= 0):
        raise NonPositiveDepth("depth must be positive")
    ref_cam = pixel_to_ref_cam(np.asarray(us, dtype=np.float64), np.asarray(vs, dtype=np.float64), rig.intrinsics)
    return rig.extrinsics.cam_to_ego(depths[..., None] * ref_cam)


def cell_pixel_centers(width: int, height: int, stride: int):
    """Pixel centers of a feature grid: cell (r, c) -> ((c+.5)s, (r+.5)s)."""
    us = (np.arange(width, dtype=np.float64) + 0.5) * stride
    vs = (np.arange(height, dtype=np.float64) + 0.5) * stride
    return np.meshgrid(us, vs)


def _check_grid(fused: FusedMap, rig: CameraRig, stride: int) -> None:
    intr = rig.intrinsics
    if fused.width * stride > intr.image_w or fused.height * stride > intr.image_h:
        raise ShapeMismatch(
            f"feature grid {fused.width}x{fused.height} at stride {stride} "
            f"exceeds the {intr.image_w}x{intr.image_h} image"
        )


def _emit(fused: FusedMap, n_bins: int, valid: np.ndarray, pos_ego: np.ndarray,
          rig_id: str) -> WedgeCloud:
    """Wedge cloud of the valid cells, whose lifted positions are pos_ego.

    Each valid cell emits n_bins points carrying its context vector and
    weights bin weight * cell weight; invalid cells count as skipped.
    """
    ctx = fused.context.data.reshape(-1, fused.context.channels)[valid]
    features = np.repeat(ctx, n_bins, axis=0)
    dist = fused.dist.data.reshape(-1, n_bins)[valid]
    cell_w = fused.dist.cell_weight.reshape(-1)[valid]
    weights = (dist * cell_w[:, None]).reshape(-1)
    skipped = int(np.count_nonzero(~valid))
    return WedgeCloud(pos_ego, features, weights, rig_id, skipped)


def build_wedge(
    fused: FusedMap,
    bins: BinSpec,
    rig: CameraRig,
    pixel_stride: int = DEFAULT_PIXEL_STRIDE,
) -> WedgeCloud:
    """Expand a fused map into lifted points, one per (cell, height bin).

    Emission order is feature cells row-major, bins ascending within each
    cell.  Cells whose ray triggers HorizonRay are skipped and counted in
    skipped_cells; every surviving cell contributes exactly n_bins points
    with feature = its context vector and weight = bin weight times the
    cell weight.
    """
    if bins.strategy not in HEIGHT_STRATEGIES:
        raise ConfigError(f"build_wedge needs a height strategy, got {bins.strategy}")
    _check_grid(fused, rig, pixel_stride)
    mids = bin_midpoints(bins)
    if np.any(mids >= rig.ground_height_H):
        raise AboveCamera("bin range reaches the camera center height")

    uu, vv = cell_pixel_centers(fused.width, fused.height, pixel_stride)
    ref_virt = _ref_virt(uu.ravel(), vv.ravel(), rig)  # (n_cells, 3)
    y_ref = ref_virt[:, 1]
    valid = y_ref > EPS_HORIZON

    ref_virt = ref_virt[valid]
    scales = (rig.ground_height_H - mids)[None, :] / y_ref[valid][:, None]
    pos_virt = scales[:, :, None] * ref_virt[:, None, :]  # (n_valid, n_bins, 3)
    pos_ego = rig.t_virt_ego.apply(pos_virt.reshape(-1, 3))
    return _emit(fused, bins.n_bins, valid, pos_ego, rig.rig_id)


def build_wedge_depth(
    fused: FusedMap,
    bins: BinSpec,
    rig: CameraRig,
    pixel_stride: int = DEFAULT_PIXEL_STRIDE,
) -> WedgeCloud:
    """Depth-hypothesis counterpart of build_wedge.

    Every cell survives (depth hypotheses need no descending ray), so the
    cloud always holds width * height * n_bins points.
    """
    if not bins.is_depth:
        raise ConfigError(f"build_wedge_depth needs a DEPTH_UD spec, got {bins.strategy}")
    _check_grid(fused, rig, pixel_stride)
    mids = bin_midpoints(bins)
    if mids[0] <= 0:
        raise NonPositiveDepth("depth bins must start above zero")

    uu, vv = cell_pixel_centers(fused.width, fused.height, pixel_stride)
    ref_cam = pixel_to_ref_cam(uu.ravel(), vv.ravel(), rig.intrinsics)  # (n_cells, 3)
    pos_cam = mids[None, :, None] * ref_cam[:, None, :]
    pos_ego = rig.extrinsics.cam_to_ego(pos_cam.reshape(-1, 3))
    every_cell = np.ones(ref_cam.shape[0], dtype=bool)
    return _emit(fused, bins.n_bins, every_cell, pos_ego, rig.rig_id)
