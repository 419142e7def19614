"""Per-pixel 2D-to-3D lifting through height or depth hypotheses.

Every hypothesis of a pixel lands on the pixel's ray, at

    position = origin + f_b * dir_s

with one direction dir_s per pixel (feature cell) s and one scalar f_b
per bin b:

* depth: dir_s = K^-1 [u, v, 1] @ R, the pixel's reference point at
  camera depth 1 turned into ego axes; f_b is the bin's depth; origin is
  the camera centre -t @ R.
* height: dir_s = (ref_virt / y_ref) @ R_ve^T, where ref_virt is the
  reference point rotated into the ground-aligned virtual frame and y_ref
  its virtual Y.  A point at ego height g has virtual Y (ground_height_H -
  g), so f_b = ground_height_H - h puts the point on the plane of height h;
  R_ve is the rig's virt_to_ego rotation and origin the camera centre
  again.

Both forms recover the identical point when fed the true height or depth
of a surface.  Rays that do not descend toward the ground (y_ref <= 1e-6)
cannot carry height hypotheses; their cells are skipped and counted,
never fatal.  lift_pixel_* and lift_many_* evaluate the same geometry
step by step, pixel by pixel; they are the reference lifts.

build_wedge expands a fused feature map into a point cloud: one point per
(feature cell, bin), ordered cells row-major with bins ascending within a
cell.  Feature cell (row r, col c) looks through the pixel at
((c + 0.5) * stride, (r + 0.5) * stride).

Where each (cell, bin) hypothesis lands depends only on the rig, the
stride, the bins and the feature-grid size, never on the frame.  So the
lifted positions are computed once, in a lift plan stored on the rig
(CameraRig._plans, at most one plan per hypothesis kind, replaced when
the stride, bins or grid size change): each axis is one np.multiply.outer
of the directions and the bin scalars, written into one read-only (3, n)
array that is checked finite once.  Each frame only gathers its weights
and keeps each cell's context vector once; per-point features are never
formed on the pooling path.  The clouds built from one plan share its
positions and its memo of BEV cell indices, one entry per GridSpec, which
bevpool.pool fills on first use.  A plan lives exactly as long as its rig:
a perturbed rig is a new rig and builds its own.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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

DEFAULT_PIXEL_STRIDE = 16


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
        if np.any(self.cell_weight < 0):
            raise ConfigError("distribution weights must be non-negative")
        _check_bin_weights(self.data)


def _check_bin_weights(data: np.ndarray) -> None:
    """The rule every bin distribution (last axis of data) obeys: weights
    are non-negative and sum to 1 within 1e-6, which NaN weights fail."""
    if np.any(data < 0):
        raise ConfigError("distribution weights must be non-negative")
    if not np.all(np.abs(data.sum(axis=-1) - 1.0) <= 1e-6):
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
    """Lifted points with their weights, kept factored by source cell.

    Each of the cloud's source cells emits points_per_cell consecutive
    points.  positions are ego-frame xyz, one row per point, read-only (a
    writable input is copied); context holds each source cell's feature
    vector once, (source cells, channels); weights carry each point's bin
    weight scaled by its cell weight.  A cloud built by hand from
    per-point features is the case of one point per source cell.

    A wedge's context is a view of its frame's context map when no cell
    was skipped, and its positions are its lift plan's, which were checked
    finite when the plan was built (positions_checked).  skipped_cells
    counts feature cells dropped because their ray could not carry height
    hypotheses.  bev_index memoizes, per GridSpec, the BEV cell index of
    the positions (see bevpool.pool): clouds of one lift plan share it,
    any other cloud starts with an empty one.
    """

    positions: np.ndarray
    context: np.ndarray
    weights: np.ndarray
    skipped_cells: int = 0
    points_per_cell: int = 1
    positions_checked: InitVar[bool] = False
    bev_index: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, positions_checked):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        if self.positions.flags.writeable:
            self.positions = self.positions.copy()
            self.positions.flags.writeable = False
        self.context = np.asarray(self.context, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        n_points = self.positions.shape[0]
        if (self.context.ndim != 2 or self.points_per_cell < 1
                or self.context.shape[0] * self.points_per_cell != n_points):
            raise ShapeMismatch(
                "context must be (source cells, channels), with points_per_cell "
                "points per source cell"
            )
        if self.weights.shape[0] != n_points:
            raise ShapeMismatch("weights must have one entry per point")
        if not (positions_checked or np.all(np.isfinite(self.positions))):
            raise ConfigError("lifted positions must be finite")
        # min and max are NaN when any weight is: two passes, no temporaries.
        lo, hi = (self.weights.min(), self.weights.max()) if n_points else (0.0, 0.0)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ConfigError("point weights must be finite")
        if lo < 0:
            raise ConfigError("point weights must be non-negative")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def channels(self) -> int:
        return self.context.shape[1]

    @property
    def features(self) -> np.ndarray:
        """Per-point features, (n_points, channels): each source cell's
        context repeated over its points.  Built anew on every access."""
        return np.repeat(self.context, self.points_per_cell, axis=0)


def _ref_virt(u, v, rig: CameraRig) -> np.ndarray:
    ref_cam = pixel_to_ref_cam(u, v, rig.intrinsics)
    # One (n, 3) product whatever the pixel shape: a stacked matmul rounds
    # differently, and the horizon test must not depend on the caller's shape.
    return (ref_cam.reshape(-1, 3) @ rig.t_cam_virt.T).reshape(ref_cam.shape)


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
    return (scale * ref_virt) @ rig.virt_to_ego.T + rig.camera_center


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
    cam_to_ego = rig.virt_to_ego @ rig.t_cam_virt
    return ((rig.ground_height_H - h) / y_ref) * (cam_to_ego @ ref_cam) + rig.camera_center


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
    return (scale[..., None] * ref_virt) @ rig.virt_to_ego.T + rig.camera_center


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


@dataclass(frozen=True)
class _LiftPlan:
    """The frame-independent part of a wedge: which cells emit points and
    how many were skipped, where their (cell, bin) hypotheses land, and the
    BEV cell indices of those positions, memoized per GridSpec."""

    key: tuple
    valid: np.ndarray
    skipped: int
    positions: np.ndarray
    bev_index: dict = field(default_factory=dict)


def _plan(kind: str, bins: BinSpec, rig: CameraRig, width: int, height: int,
          stride: int) -> _LiftPlan:
    """The rig's lift plan for one hypothesis kind, built on first use and
    rebuilt when the bins, the feature-grid size or the stride change.

    Its positions are the (n, 3) transpose of one read-only (3, n) array
    whose row a is origin[a] + np.multiply.outer(dirs[:, a], steps): cells
    row-major, bins ascending within a cell.
    """
    key = (kind, bins, width, height, stride)
    plan = rig._plans.get(kind)
    if plan is not None and plan.key == key:
        return plan
    uu, vv = cell_pixel_centers(width, height, stride)
    us, vs = uu.reshape(-1), vv.reshape(-1)
    mids = bin_midpoints(bins)
    if kind == "height":
        if np.any(mids >= rig.ground_height_H):
            raise AboveCamera("height at or above the camera center")
        ref_virt = _ref_virt(us, vs, rig)
        y_ref = ref_virt[:, 1]
        valid = y_ref > EPS_HORIZON
        dirs = (ref_virt[valid] / y_ref[valid, None]) @ rig.virt_to_ego.T
        steps = rig.ground_height_H - mids
    else:
        if np.any(mids <= 0):
            raise NonPositiveDepth("depth must be positive")
        valid = np.ones(us.size, dtype=bool)
        dirs = pixel_to_ref_cam(us, vs, rig.intrinsics) @ rig.extrinsics.rotation
        steps = mids
    origin = rig.camera_center
    rays = np.empty((3, dirs.shape[0] * steps.size))
    for axis in range(3):
        np.multiply.outer(dirs[:, axis], steps, out=rays[axis].reshape(-1, steps.size))
        rays[axis] += origin[axis]
    if not np.all(np.isfinite(rays)):
        raise ConfigError("lifted positions must be finite")
    rays.flags.writeable = valid.flags.writeable = False
    skipped = int(np.count_nonzero(~valid))
    plan = rig._plans[kind] = _LiftPlan(key, valid, skipped, rays.T)
    return plan


def _wedge(kind: str, fused: FusedMap, bins: BinSpec, rig: CameraRig,
           stride: int) -> WedgeCloud:
    """Wedge cloud of the plan's valid cells.

    Each valid cell emits n_bins points carrying its context vector and
    weights bin weight * cell weight; invalid cells count as skipped.
    """
    _check_grid(fused, rig, stride)
    plan = _plan(kind, bins, rig, fused.width, fused.height, stride)
    ctx = fused.context.data.reshape(-1, fused.context.channels)
    dist = fused.dist.data.reshape(-1, bins.n_bins)
    cell_w = fused.dist.cell_weight.reshape(-1)
    if plan.skipped:
        ctx, dist, cell_w = ctx[plan.valid], dist[plan.valid], cell_w[plan.valid]
    weights = (dist * cell_w[:, None]).reshape(-1)
    cloud = WedgeCloud(plan.positions, ctx, weights, plan.skipped, bins.n_bins,
                       positions_checked=True)
    cloud.bev_index = plan.bev_index
    return cloud


def build_wedge(
    fused: FusedMap,
    bins: BinSpec,
    rig: CameraRig,
    pixel_stride: int = DEFAULT_PIXEL_STRIDE,
) -> WedgeCloud:
    """Expand a fused map into lifted points, one per (cell, height bin).

    Emission order is feature cells row-major, bins ascending within each
    cell.  Cells whose ray triggers HorizonRay are skipped and counted in
    skipped_cells; every surviving cell is one source cell of exactly
    n_bins points, carrying its context vector, with weight = bin weight
    times the cell weight.
    """
    if bins.strategy not in HEIGHT_STRATEGIES:
        raise ConfigError(f"build_wedge needs a height strategy, got {bins.strategy}")
    return _wedge("height", fused, bins, rig, pixel_stride)


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
    return _wedge("depth", fused, bins, rig, pixel_stride)
