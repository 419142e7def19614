"""Sum-pooling of weighted lifted points into a BEV grid.

Cells are half-open intervals: a point with coordinate exactly on the
upper extent falls outside.  Pooling accumulates weight * feature per
cell; points outside the extent are dropped and counted, never fatal.

Each cell sums its points in cloud order, so the result is bit-identical
run to run and to a scalar loop over the points.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .lifting import WedgeCloud


@dataclass(frozen=True)
class GridSpec:
    """BEV grid geometry: extents in meters, cell resolution, channels."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    res_x: float
    res_y: float
    channels: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max,
                                   self.res_x, self.res_y])):
            raise ConfigError("grid extents and resolution must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ConfigError("grid extents must be non-empty")
        if not (self.res_x > 0 and self.res_y > 0):
            raise ConfigError("grid resolution must be positive")
        if self.channels < 1:
            raise ConfigError("grid needs at least one channel")
        for span, res, name in (
            (self.x_max - self.x_min, self.res_x, "x"),
            (self.y_max - self.y_min, self.res_y, "y"),
        ):
            count = span / res
            if abs(count - round(count)) > 1e-9 or round(count) < 1:
                raise ConfigError(f"{name} extent must be a positive whole number of cells")

    @property
    def n_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.res_x))

    @property
    def n_y(self) -> int:
        return int(round((self.y_max - self.y_min) / self.res_y))

    def to_json_dict(self) -> dict:
        return {
            "x_min": self.x_min,
            "x_max": self.x_max,
            "y_min": self.y_min,
            "y_max": self.y_max,
            "res_x": self.res_x,
            "res_y": self.res_y,
            "channels": self.channels,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridSpec":
        try:
            return cls(
                x_min=float(doc["x_min"]),
                x_max=float(doc["x_max"]),
                y_min=float(doc["y_min"]),
                y_max=float(doc["y_max"]),
                res_x=float(doc["res_x"]),
                res_y=float(doc["res_y"]),
                channels=int(doc["channels"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed grid spec: {exc}") from exc


def grid_cell_of(x: float, y: float, spec: GridSpec):
    """Cell (ix, iy) containing (x, y), or None when outside the extent.

    Cells are half-open, so x == x_max (or y == y_max) is outside.
    """
    ix = int(np.floor((x - spec.x_min) / spec.res_x))
    iy = int(np.floor((y - spec.y_min) / spec.res_y))
    if 0 <= ix < spec.n_x and 0 <= iy < spec.n_y:
        return ix, iy
    return None


@dataclass
class BevGrid:
    """Pooled BEV features: data (n_x, n_y, channels), per-cell hit counts,
    and the number of points dropped outside the extent."""

    spec: GridSpec
    data: np.ndarray
    hit_count: np.ndarray
    dropped_points: int = 0


def pool(cloud: WedgeCloud, spec: GridSpec) -> BevGrid:
    """Sum weight * feature of every in-extent point into its BEV cell."""
    if cloud.channels != spec.channels:
        raise ShapeMismatch(
            f"cloud has {cloud.channels} channels but the grid expects {spec.channels}"
        )
    xs = cloud.positions[:, 0]
    ys = cloud.positions[:, 1]
    ix = np.floor((xs - spec.x_min) / spec.res_x).astype(np.int64)
    iy = np.floor((ys - spec.y_min) / spec.res_y).astype(np.int64)
    inside = (ix >= 0) & (ix < spec.n_x) & (iy >= 0) & (iy < spec.n_y)
    dropped = int(np.count_nonzero(~inside))

    n_cells = spec.n_x * spec.n_y
    flat = ix[inside] * spec.n_y + iy[inside]
    weights = cloud.weights[inside]
    data = np.empty((n_cells, spec.channels))
    for c in range(spec.channels):
        data[:, c] = np.bincount(flat, cloud.features[inside, c] * weights, n_cells)
    hits = np.bincount(flat, minlength=n_cells)
    return BevGrid(
        spec,
        data.reshape(spec.n_x, spec.n_y, spec.channels),
        hits.reshape(spec.n_x, spec.n_y),
        dropped,
    )
