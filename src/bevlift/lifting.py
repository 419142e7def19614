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
rays are factored once, in a lift plan stored on the rig
(CameraRig._plans, at most one plan per hypothesis kind, replaced when
the stride, bins or grid size change): the plan holds the directions
dirs (m, 3), the bin scalars steps (B,) and the origin, and is checked
finite from the per-axis extremes of dirs and steps alone.  bevpool.pool
builds each BEV index straight from these factors, one axis at a time,
and the clouds of one plan share that index, one entry per GridSpec.
The (n, 3) positions are built only when read, by the lift command's
wedge tables or by tests, and then kept on the plan, read-only.  Each
frame keeps each cell's context vector once, and its weights as the
distribution map's table with each cell's row index and cell weight;
per-point features and weights are never formed on the pooling path.  A plan
lives exactly as long as its rig: a perturbed rig is a new rig and
builds its own.  A cloud built by hand from (n, 3) positions is a plan
too, of one unit step along each position (see _points_plan), so every
cloud pools the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .binning import BinSpec, bin_midpoints
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
    """Per-cell categorical weights over bins, kept as the rows of a table:
    cell (r, c) predicts the distribution table[rows[r, c]].

    A map built by hand passes its (height, width, n_bins) data as table
    and no rows; it becomes a table of one row per cell, rows =
    arange(height * width).  A predicted map passes a short table (its
    noise table plus one uniform row, see scene._distribution_from_values)
    and each cell's row index.  Either way the bin rule runs over the
    table's rows only, and data, the (height, width, n_bins) map, is
    gathered from the table on each read.

    cell_weight scales each cell's contribution when points are emitted;
    cells with nothing to say (e.g. sky pixels) carry a uniform
    distribution flagged with cell_weight 0.
    """

    width: int
    height: int
    n_bins: int
    table: np.ndarray
    cell_weight: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        shape = (self.height, self.width)
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.rows is None:
            if self.table.shape != (*shape, self.n_bins):
                raise ShapeMismatch(
                    f"distribution data shape {self.table.shape} != "
                    f"({self.height}, {self.width}, {self.n_bins})"
                )
            self.table = self.table.reshape(-1, self.n_bins)
            self.rows = np.arange(self.table.shape[0]).reshape(shape)
        else:
            self.rows = _table_rows(self.rows, self.table, self.n_bins, shape)
        if self.cell_weight is None:
            self.cell_weight = np.ones(shape)
        else:
            self.cell_weight = np.asarray(self.cell_weight, dtype=np.float64)
            if self.cell_weight.shape != shape:
                raise ShapeMismatch("cell_weight shape does not match the map")
            if not np.all(np.isfinite(self.cell_weight)):
                raise ConfigError("cell weights must be finite")
        if np.any(self.cell_weight < 0):
            raise ConfigError("distribution weights must be non-negative")
        _check_bin_weights(self.table)

    @property
    def data(self) -> np.ndarray:
        """The (height, width, n_bins) map, read-only.  Gathered anew on
        every access: nothing on the frame path reads it, so no frame
        keeps a (cells, n_bins) array alive."""
        data = self.table[self.rows]
        data.flags.writeable = False
        return data


def _table_rows(rows, table: np.ndarray, n_bins: int, shape: tuple) -> np.ndarray:
    """rows as an integer array of the given shape, after checking that
    table is (rows, n_bins) and that every entry indexes one of its rows."""
    rows = np.asarray(rows)
    if table.ndim != 2 or table.shape[1] != n_bins:
        raise ShapeMismatch(f"table shape {table.shape} is not (rows, {n_bins})")
    if rows.shape != shape or rows.dtype.kind not in "iu":
        raise ShapeMismatch(f"rows must be integers shaped {shape}")
    if rows.size and not (rows.min() >= 0 and rows.max() < table.shape[0]):
        raise ShapeMismatch(f"rows must index the {table.shape[0]} rows of the table")
    return rows


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


def _finite_range(values: np.ndarray, name: str) -> tuple[float, float]:
    """The least and the largest of values ((0.0, 0.0) when there are
    none), after checking that every value is finite: min and max are NaN
    when any value is, so two passes and no temporaries."""
    lo, hi = (values.min(), values.max()) if values.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ConfigError(f"point {name} must be finite")
    return lo, hi


@dataclass
class WedgeCloud:
    """Lifted points with their weights, kept factored by source cell.

    plan places the points in the ego frame: each of its rows is one
    source cell, emitting points_per_cell consecutive points (see
    _LiftPlan).  context holds each source cell's feature vector once,
    (source cells, channels).  The weight of point b of source cell s is
    table[rows[s], b] * cell_weight[s]: a wedge passes its distribution
    map's table with the row index and cell weight of each source cell,
    so its points' weights are never formed on the pooling path.

    A cloud built by hand passes its (n, 3) positions as plan, per-point
    features as context and per-point weights as table: the positions
    become a plan of one point per source cell (see _points_plan), and the
    weights a table of one row per source cell, with unit cell weights.
    x * 1.0 is x exactly, so weights reads them back bit for bit.

    A wedge's context is a view of its frame's context map when no cell
    was skipped.  skipped_cells counts feature cells dropped because their
    ray could not carry height hypotheses.
    """

    plan: "_LiftPlan"
    context: np.ndarray
    table: np.ndarray
    cell_weight: np.ndarray | None = None
    rows: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.plan, _LiftPlan):
            self.plan = _points_plan(self.plan)
        self.context = np.asarray(self.context, dtype=np.float64)
        m, k = self.plan.dirs.shape[0], self.points_per_cell
        if self.context.ndim != 2 or self.context.shape[0] != m:
            raise ShapeMismatch(
                "context must be (source cells, channels), one source cell per row of the plan"
            )
        self.table = np.asarray(self.table, dtype=np.float64)
        if self.rows is None:
            if self.table.size != self.n_points:
                raise ShapeMismatch("weights must have one entry per point")
            self.table = self.table.reshape(m, k)
            self.rows = np.arange(m)
        else:
            self.rows = _table_rows(self.rows, self.table, k, (m,))
        if self.cell_weight is None:
            self.cell_weight = np.ones(m)
        else:
            self.cell_weight = np.asarray(self.cell_weight, dtype=np.float64)
            if self.cell_weight.shape != (m,):
                raise ShapeMismatch("cell_weight must have one entry per source cell")
        # Finite features make every zero weight's product a zero, which
        # pool relies on to skip it.
        _finite_range(self.context, "features")
        table_lo, table_hi = _finite_range(self.table, "weights")
        cell_lo, cell_hi = _finite_range(self.cell_weight, "weights")
        if min(table_lo, cell_lo) < 0:
            raise ConfigError("point weights must be non-negative")
        # Rounding is monotone, so with non-negative factors no weight
        # exceeds table_hi * cell_hi, and a source cell's largest weight is
        # its row's largest entry times its cell weight.  The rows are
        # searched only when the bound overflows.
        with np.errstate(over="ignore"):
            if not np.isfinite(table_hi * cell_hi):
                _finite_range(self.table.max(axis=1)[self.rows] * self.cell_weight, "weights")

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-point weights, (n_points,): each source cell's table row times
        its cell weight, built on first read and kept, read-only.  When the
        source cells read consecutive rows (rows is one contiguous range, as
        for a map built by hand from dense data, whose height plan may skip
        the cells above the horizon) and every cell weight is exactly 1.0,
        that is a slice of the table (x * 1.0 is x), read back as a view."""
        m = self.rows.size
        first = self.rows[0] if m else 0
        if (m and np.all(self.cell_weight == 1.0)
                and np.array_equal(self.rows, np.arange(first, first + m))):
            weights = self.table[first:first + m].reshape(-1)
        else:
            weights = self.table[self.rows]
            weights *= self.cell_weight[:, None]
            weights = weights.reshape(-1)
        weights.flags.writeable = False
        return weights

    @property
    def n_points(self) -> int:
        return self.plan.n_points

    @property
    def points_per_cell(self) -> int:
        return self.plan.steps.size

    @property
    def skipped_cells(self) -> int:
        return self.plan.skipped

    @property
    def channels(self) -> int:
        return self.context.shape[1]

    @property
    def positions(self) -> np.ndarray:
        """Ego-frame xyz, one read-only row per point; the plan builds its
        positions on the first read and keeps them."""
        return self.plan.positions

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
    """The frame-independent part of a cloud: which cells emit points and
    how many were skipped, the factored rays of their (cell, bin)
    hypotheses, and the BEV cell indices of those points, memoized per
    GridSpec.  key identifies a rig's plan (see _plan); it is None for
    the plan of a cloud built by hand.

    Point (s, b) lies at origin + dirs[s] * steps[b]: dirs (m, 3) holds one
    direction per valid cell, steps (B,) one scalar per bin.  The points
    are finite exactly when the corner products {min, max}(dirs[:, a]) x
    {min, max}(steps) + origin[a] are on every axis a: rounding is
    monotone, so the extremes of the points are among the corners.
    """

    key: tuple
    valid: np.ndarray
    skipped: int
    dirs: np.ndarray
    steps: np.ndarray
    origin: np.ndarray
    bev_index: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.n_points:
            return
        step_ends = [self.steps.min(), self.steps.max()]
        with np.errstate(over="ignore", invalid="ignore"):
            for axis in range(3):
                column = self.dirs[:, axis]
                corners = np.multiply.outer([column.min(), column.max()], step_ends)
                if not np.all(np.isfinite(corners + self.origin[axis])):
                    raise ConfigError("lifted positions must be finite")

    @property
    def n_points(self) -> int:
        return self.dirs.shape[0] * self.steps.size

    def axis_into(self, axis: int, rows: slice, out: np.ndarray) -> None:
        """Write coordinate axis of the points of rows (valid cells) into
        out: cells in order, bins ascending within a cell."""
        np.multiply.outer(self.dirs[rows, axis], self.steps, out=out.reshape(-1, self.steps.size))
        out += self.origin[axis]

    @cached_property
    def positions(self) -> np.ndarray:
        """The (n, 3) transpose of one read-only (3, n) array, built on
        first read and kept."""
        rays = np.empty((3, self.n_points))
        for axis in range(3):
            self.axis_into(axis, slice(None), rays[axis])
        rays.flags.writeable = False
        return rays.T


_UNIT_STEP, _ORIGIN_OF_POSITIONS = np.ones(1), np.full(3, -0.0)
_UNIT_STEP.flags.writeable = _ORIGIN_OF_POSITIONS.flags.writeable = False


def _points_plan(positions) -> _LiftPlan:
    """The plan of a cloud built by hand: one unit step from -0.0 along each
    of its (n, 3) ego-frame positions (a writable input is copied).  x * 1.0
    and x + -0.0 are x exactly, signed zeros included (+0.0 is not), so the
    points are the positions bit for bit and the finite check is np.isfinite
    of every point."""
    dirs = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if dirs.flags.writeable:
        dirs = dirs.copy()
        dirs.flags.writeable = False
    return _LiftPlan(None, np.ones(dirs.shape[0], dtype=bool), 0, dirs,
                     _UNIT_STEP, _ORIGIN_OF_POSITIONS)


def _plan(kind: str, bins: BinSpec, rig: CameraRig, width: int, height: int,
          stride: int) -> _LiftPlan:
    """The rig's lift plan for one hypothesis kind, built on first use and
    rebuilt when the bins, the feature-grid size or the stride change."""
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
    for arr in (valid, dirs, steps, origin):
        arr.flags.writeable = False
    skipped = int(np.count_nonzero(~valid))
    plan = rig._plans[kind] = _LiftPlan(key, valid, skipped, dirs, steps, origin)
    return plan


def _wedge(kind: str, fused: FusedMap, bins: BinSpec, rig: CameraRig,
           stride: int) -> WedgeCloud:
    """Wedge cloud of the plan's valid cells.

    Each valid cell emits n_bins points carrying its context vector and
    weights bin weight * cell weight; invalid cells count as skipped.
    """
    bins.check_kind(kind, "bins")
    _check_grid(fused, rig, stride)
    plan = _plan(kind, bins, rig, fused.width, fused.height, stride)
    dist = fused.dist
    ctx = fused.context.data.reshape(-1, fused.context.channels)
    rows, cell_w = dist.rows.reshape(-1), dist.cell_weight.reshape(-1)
    if plan.skipped:
        ctx, rows, cell_w = ctx[plan.valid], rows[plan.valid], cell_w[plan.valid]
    return WedgeCloud(plan, ctx, dist.table, cell_w, rows)


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
    return _wedge("depth", fused, bins, rig, pixel_stride)
