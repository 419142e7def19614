"""Sum-pooling of weighted lifted points into a BEV grid.

Cells are half-open intervals: a point with coordinate exactly on the
upper extent falls outside.  Pooling accumulates weight * feature per
cell; points outside the extent are dropped and counted, never fatal.

Pooling goes by index.  A cloud's BEV index gives every point its flat
cell ix * n_y + iy, or the overflow bin n_x * n_y when it lies outside
the extent, together with the point count of every bin; the count in the
overflow bin is the number of dropped points.  The index is built from
the cloud's lift plan, not from positions: each axis of a run of points
is origin + np.multiply.outer(dirs, steps), written into a reused buffer
and turned into cell coordinates in place, with the same operations and
so the same bits as the positions would give.  So a frame that only
pools never builds its (n, 3) positions.  The index depends only on the
plan and the GridSpec, so it is memoized in the plan's bev_index, which
all clouds of one plan share: on a fixed rig it is computed once per
grid.  It is kept for the plan's lifetime, so each point's cell is held
in the narrowest signed integer whose maximum is at least the overflow
bin, np.min_scalar_type(-(n_cells + 1)): int16 on a 128 x 128 grid, a
quarter of intp's bytes.  Every cell index is a whole number in
[0, n_cells], so the cast from float keeps its value, and np.bincount
casts any signed integer to intp safely (it refuses uint64, hence no
unsigned type).

A cloud keeps each source cell's context once, so each frame forms, per
channel, the products context[s, c] * weight[p] of the live points p
of every source cell s in one reused buffer and adds them into their cells;
no per-point feature array is made.  Each cell sums its points' products
in cloud order, starting from +0.0, so the result is bit-identical run to
run and to a scalar loop over the points and their features.

Only points with a nonzero weight carry anything, so the cost of the
sums scales with the live points.  A blurred prediction's kernel
underflows to 0.0 far from its true bin, sky cells take the table's
all-zero row, and one-hot rows keep a single bin, so most points of a
frame weigh exactly 0.  Skipping them keeps every bit: context is finite
(WedgeCloud checks it), so a skipped product is +0.0 or -0.0; a sum that
starts at +0.0 never becomes -0.0 under round-to-nearest, so adding
either zero changes no bit of it; and the live points keep cloud order.
A cloud keeps its weights as table rows, table[rows[s], b], so the live
points are found without forming any weight: point b of source cell s
is live when table[rows[s], b] is nonzero.

pool makes one pass over the live points of every cloud, and every step
after the listing costs the live points:

* one boolean compress of the live mask, (table != 0)[rows] over the
  (source cell, bin) grid, lists the live points' BEV cells in cloud
  order;
* their weights are the table's nonzeros, row by row;
* each channel's products, each source cell's context repeated over its
  live points times their weights, are summed by np.bincount, which adds
  each bin's weights in index order starting from +0.0, so each cell's
  sum is the scalar loop's.

Out-of-extent points go to the overflow bin; only the live ones are
added there.  Hit counts and dropped points count every point, live or
not.  No per-point feature or weight array is formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch, config_floats, config_int, config_size
from .lifting import WedgeCloud, _ranges


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
        config_floats(self, "x_min", "x_max", "y_min", "y_max", "res_x", "res_y")
        config_int("channels", self.channels, lo=1)
        for axis in ("x", "y"):
            res = getattr(self, f"res_{axis}")
            if not res > 0:
                raise ConfigError(f"res_{axis} must be positive, got {res}")
            count = (getattr(self, f"{axis}_max") - getattr(self, f"{axis}_min")) / res
            if not (np.isfinite(count) and round(count) >= 1 and abs(count - round(count)) <= 1e-9):
                raise ConfigError(
                    f"{axis}_max - {axis}_min must be a positive whole number of res_{axis} cells"
                )
        # pool's float64 sums: one row per cell and one for the overflow bin
        config_size(
            f"x_max - x_min and y_max - y_min give {self.n_x} x {self.n_y} cells; "
            "(cells + 1) x channels", self.n_x * self.n_y + 1, self.channels,
        )

    @property
    def n_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.res_x))

    @property
    def n_y(self) -> int:
        return int(round((self.y_max - self.y_min) / self.res_y))


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


# Points per pass of _bev_index: its four working buffers stay in cache.
_INDEX_CHUNK = 32768


def _bev_index(plan, spec: GridSpec):
    """(flat, counts): each point's flat cell, n_x * n_y for a point outside
    the extent, and the number of points in each of the n_x * n_y + 1 bins.
    flat is the narrowest signed integer type that holds n_x * n_y: the
    float cell coordinates become integers only after out-of-extent points
    are set to the overflow bin, so every value fits and keeps every bit.
    (np.min_scalar_type(-n_cells) would be one short at 128, 32768 and
    2**31 cells, where the overflow bin would wrap negative.)

    The lift plan (see lifting._LiftPlan) writes one axis of the points of
    a run of its rows (cells) into a reused buffer, where the cell
    coordinate is then formed in place, _INDEX_CHUNK points at a time.
    The coordinates are compared as floats, so a point far outside the
    extent lands in the overflow bin without an integer cast.  Its cell coordinate may
    overflow to inf, and its flat index to inf or nan; both are replaced
    by the overflow bin, so those warnings are silenced.
    """
    n_cells = spec.n_x * spec.n_y
    flat = np.empty(plan.n_points, dtype=np.min_scalar_type(-(n_cells + 1)))
    n_rows, row_size = plan.dirs.shape[0], plan.steps.size
    rows = max(1, _INDEX_CHUNK // row_size)
    size = rows * row_size
    coords, flags = np.empty((2, size)), np.empty((2, size), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_rows, rows):
            part = slice(start, min(start + rows, n_rows))
            points = slice(start * row_size, part.stop * row_size)
            n = points.stop - points.start
            x, y = coords[:, :n]
            outside, test = flags[:, :n]
            outside[...] = False
            for axis, cell, lo, res, count in ((0, x, spec.x_min, spec.res_x, spec.n_x),
                                               (1, y, spec.y_min, spec.res_y, spec.n_y)):
                plan.axis_into(axis, part, cell)
                cell -= lo
                cell /= res
                np.floor(cell, out=cell)
                outside |= np.less(cell, 0, out=test)
                outside |= np.greater_equal(cell, count, out=test)
            x *= spec.n_y
            x += y
            np.copyto(x, n_cells, where=outside)
            flat[points] = x
    counts = np.bincount(flat, minlength=n_cells + 1)
    flat.flags.writeable = counts.flags.writeable = False
    return flat, counts


def pool(cloud: WedgeCloud, spec: GridSpec) -> BevGrid:
    """Sum weight * feature of every in-extent point into its BEV cell.

    Only points whose table entry is nonzero are added: the others add
    +0.0 or -0.0 to a sum that starts at +0.0, which changes no bit.  One
    mask over the table's nonzeros lists the live points and np.bincount
    sums each channel, so every step after the mask costs the live
    points.  hit_count and dropped_points count every point, live or not.
    """
    if cloud.channels != spec.channels:
        raise ShapeMismatch(
            f"cloud has {cloud.channels} channels but the grid expects {spec.channels}"
        )
    index = cloud.plan.bev_index.get(spec)
    if index is None:
        index = cloud.plan.bev_index[spec] = _bev_index(cloud.plan, spec)
    flat, counts = index
    n_cells = spec.n_x * spec.n_y
    context, table, rows = cloud.context, cloud.table, cloud.rows
    m, k = context.shape[0], cloud.points_per_cell
    nonzero = table != 0
    row_live = nonzero.sum(axis=1)
    per_cell = row_live[rows]
    # One compress of the live mask lists the live points' cells in cloud
    # order, widened to intp once for the per-channel np.bincount calls
    # rather than by each of them.  Their weights are the table's
    # nonzeros, row by row: a source cell's points take the run of its
    # row's nonzeros, from the row's first.
    cells = flat.reshape(m, k)[nonzero[rows]].astype(np.intp)
    first = np.cumsum(row_live) - row_live
    weights = table[nonzero][_ranges(first[rows], per_cell)]
    products = np.empty(weights.size)
    sums = np.zeros((spec.channels, n_cells + 1))
    for c in range(spec.channels):
        np.multiply(np.repeat(context[:, c], per_cell), weights, out=products)
        sums[c] = np.bincount(cells, products, n_cells + 1)
    return BevGrid(
        spec,
        sums[:, :n_cells].T.reshape(spec.n_x, spec.n_y, spec.channels),
        counts[:n_cells].reshape(spec.n_x, spec.n_y).copy(),
        int(counts[n_cells]),
    )
