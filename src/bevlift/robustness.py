"""Extrinsic-disturbance studies: scatter overlap, localization error, and
the analytic range-error law.

Disturbances rotate the camera about its own optical axis (roll) and
lateral axis (pitch) while keeping the optical center fixed, the way a
pole-mounted camera drifts without leaving its mount.  Angles are sampled
from independent zero-mean normals in degrees, one reproducible substream
per trial.  disturbance_trials builds each trial's perturbed rig once, and
both studies take those rigs: every rig of a run shares the clean rig's
intrinsics, and with them the memoized rays of its render grid.

The scatter study mirrors a row-coordinate-versus-value view of the
scene: for each rig it renders the scene and collects (v, depth) and
(v, height) pairs of every non-sky pixel, then measures how much the
clean and perturbed point sets still overlap, as the intersection of
normalized 2D histograms on a fixed grid.  The clean histogram is built
once per run, and each trial's points are counted only at its cells.
Depth is tightly coupled to v
(for ground pixels it is an exact function of the row), and its
sensitivity to a rig rotation grows with the square of distance, so a
small disturbance slides the far part of the curve across many cells.
Height occupies the same flat band of cells in every column, so the
shifted set lands back on itself.

The localization study lifts truth-conditioned noisy bin distributions
for both parameterizations and compares each object's estimated
camera-origin distance against the distance of the same estimator fed
exact values, isolating parameterization-induced error from
surface-versus-center offsets.  A pixel's estimate is the lift of its
expected hypothesis, the distribution's mean bin midpoint: the lifted
point is affine in the hypothesis value and each distribution sums to 1,
so this is the bin-weighted centroid of the pixel's lifted bins without
lifting every bin.  Each noise-table row's expected hypothesis is
computed once per run and gathered at the object pixels only, so no
dense distribution map is built, and only the object pixels are binned
(a min and a max check the rest of the map against the bin range).  Each
trial that sees an object lifts its object pixels through its own rig,
once per parameterization and once at their rendered depths, and reduces
them per object with one np.bincount per axis; the study joins the rows
of its trials in trial order.  The products are fixed-order
(geometry._mat3), so a trial's rows are bit for bit those of a run over
that trial alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinSpec, bin_midpoints, value_to_bin
from .errors import (
    AboveCamera,
    InvalidGeometry,
    NoVisibleObjects,
    config_floats,
    config_int,
    config_object,
    config_size,
)
from .geometry import CameraRig, Extrinsics, _mat3, _rot_x, _rot_z, project_ego
from .lifting import lift_many_depth, lift_many_height
from .rng import substream
from .scene import NoiseModel, Scene, _noise_table, _true_bin_map, cast_rays, render

# Histogram grid of the scatter overlap metric.
V_BIN_PX = 16.0
DEPTH_BIN_M = 2.0
HEIGHT_BIN_M = 0.1

DEFAULT_SIGMA_DEG = 1.67


@dataclass(frozen=True)
class DisturbanceSpec:
    """Zero-mean normal disturbance magnitudes (degrees) and trial plan."""

    sigma_roll_deg: float = DEFAULT_SIGMA_DEG
    sigma_pitch_deg: float = DEFAULT_SIGMA_DEG
    seed: int = 0
    n_trials: int = 100

    def __post_init__(self):
        config_floats(self, "sigma_roll_deg", "sigma_pitch_deg", lo=0.0)
        config_int("seed", self.seed, lo=0)
        config_int("n_trials", self.n_trials, lo=1)
        # the (n_trials, 2) float64 draws
        config_size("n_trials x 2 draws", self.n_trials, 2)

    @classmethod
    def from_json_dict(cls, doc: dict, path: str = "", **given) -> "DisturbanceSpec":
        return config_object(cls, doc, path, **given)


def perturb_extrinsics(extr: Extrinsics, roll_deg: float, pitch_deg: float) -> Extrinsics:
    """Compose roll (about the optical axis) and pitch (about the lateral
    axis) offsets with the extrinsics, keeping the optical center fixed.

    The offset acts in camera coordinates: p_cam' = D @ (R p + t) with
    D = Rx(pitch) @ Rz(roll), so rotation and translation both pick up D
    and the camera position -R^T t is unchanged.
    """
    delta = _mat3(_rot_x(np.deg2rad(pitch_deg)), _rot_z(np.deg2rad(roll_deg)))
    return Extrinsics(_mat3(delta, extr.rotation), _mat3(extr.translation, delta.T))


def perturb_rig(rig: CameraRig, roll_deg: float, pitch_deg: float) -> CameraRig:
    """Rebuild a rig around perturbed extrinsics (same ground normal)."""
    extr = perturb_extrinsics(rig.extrinsics, roll_deg, pitch_deg)
    return CameraRig(rig.intrinsics, extr, rig.ground_normal, rig.rig_id + "-perturbed")


def sample_disturbances(spec: DisturbanceSpec) -> np.ndarray:
    """(n_trials, 2) array of (roll_deg, pitch_deg) draws, one substream
    per trial so any trial can be regenerated on its own."""
    out = np.empty((spec.n_trials, 2))
    for k in range(spec.n_trials):
        rng = substream(spec.seed, k)
        out[k, 0] = rng.normal(0.0, spec.sigma_roll_deg)
        out[k, 1] = rng.normal(0.0, spec.sigma_pitch_deg)
    return out


@dataclass(frozen=True)
class DisturbanceTrials:
    """The trials of a disturbance plan: the (n_trials, 2) (roll_deg,
    pitch_deg) draws and, per trial, the rig they perturb the clean rig
    to."""

    angles: np.ndarray
    rigs: tuple[CameraRig, ...]


def disturbance_trials(rig: CameraRig, spec: DisturbanceSpec) -> DisturbanceTrials:
    """Each trial's perturbed rig, built once, for both studies of a run.

    The rigs live as long as the returned trials and are memoized nowhere
    else: a rig holds its own lift plans once lifted."""
    angles = sample_disturbances(spec)
    angles.flags.writeable = False
    rigs = tuple(perturb_rig(rig, roll, pitch) for roll, pitch in angles)
    return DisturbanceTrials(angles, rigs)


def _pixel_observations(scene: Scene, rig: CameraRig, sample_stride: int):
    maps = render(scene, rig, sample_stride)
    mask = maps.non_sky
    _, vv = maps.pixel_grid()
    return vv[mask], maps.depth[mask], maps.height_above_ground[mask]


def _cell_bins(v_vals: np.ndarray, y_vals: np.ndarray, y_bin: float):
    """The (v, y) histogram cell of each point, as row and y-level bins."""
    return np.floor(v_vals / V_BIN_PX).astype(np.int64), np.floor(y_vals / y_bin).astype(np.int64)


class _CleanHistogram:
    """The clean rig's histogram of one parameterization: its occupied
    (v, y) cells in order of each cell's first point, with each cell's
    share of the points, and a lookup from (row, y level) to cell.  The
    lookup spans the clean points' rows and distinct y levels only, so its
    size never follows the scene's extent."""

    def __init__(self, v_vals: np.ndarray, y_vals: np.ndarray, y_bin: float):
        vb, yb = _cell_bins(v_vals, y_vals, y_bin)
        self.y_bin = y_bin
        self.v_min = vb.min()
        self.n_rows = vb.max() - self.v_min + 1
        self.y_levels, y_index = np.unique(yb, return_inverse=True)
        keys = (vb - self.v_min) * self.y_levels.size + y_index
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(first)
        self.cell = np.full(self.n_rows * self.y_levels.size, -1)
        self.cell[keys[first[order]]] = np.arange(order.size)
        self.share = counts[order] / v_vals.size

    def overlap(self, v_vals: np.ndarray, y_vals: np.ndarray) -> float:
        """The intersection of the clean and these points' normalized
        histograms: min(clean share, share) summed over the clean cells in
        their order, one at a time, as a loop over them would.  A cell these
        points miss adds min(share, 0.0) = 0.0, which leaves the sum's bits
        as they are."""
        vb, yb = _cell_bins(v_vals, y_vals, self.y_bin)
        row = vb - self.v_min
        level = np.minimum(np.searchsorted(self.y_levels, yb), self.y_levels.size - 1)
        known = (self.y_levels[level] == yb) & (row >= 0) & (row < self.n_rows)
        cell = self.cell[row[known] * self.y_levels.size + level[known]]
        counts = np.bincount(cell[cell >= 0], minlength=self.share.size)
        return float(np.add.accumulate(np.minimum(self.share, counts / v_vals.size))[-1])


@dataclass
class OverlapReport:
    """Mean scatter overlaps over trials plus the per-trial breakdown."""

    overlap_depth: float
    overlap_height: float
    n_points: int
    sample_stride: int
    rolls_deg: np.ndarray = field(default_factory=lambda: np.empty(0))
    pitches_deg: np.ndarray = field(default_factory=lambda: np.empty(0))
    trial_overlap_depth: np.ndarray = field(default_factory=lambda: np.empty(0))
    trial_overlap_height: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def height_wins(self) -> int:
        """Trials where the height scatter overlaps strictly more."""
        return int(np.count_nonzero(self.trial_overlap_height > self.trial_overlap_depth))


def scatter_overlap(
    scene: Scene, rig: CameraRig, trials: DisturbanceTrials, sample_stride: int = 16
) -> OverlapReport:
    """Clean-versus-perturbed overlap of (v, depth) and (v, height) scatters.

    For every trial the scene is rendered through the clean rig and the
    trial's perturbed one; each parameterization's overlap is the
    intersection of the two normalized 2D histograms over non-sky pixels.
    Heights keep occupying the same band of cells in every image column,
    while the depth-versus-row curve moves with the rig.
    """
    v0, d0, h0 = _pixel_observations(scene, rig, sample_stride)
    if v0.size == 0:
        raise NoVisibleObjects("the clean rig renders no non-sky pixel")
    p_depth = _CleanHistogram(v0, d0, DEPTH_BIN_M)
    p_height = _CleanHistogram(v0, h0, HEIGHT_BIN_M)

    angles = trials.angles
    od = np.empty(len(trials.rigs))
    oh = np.empty(len(trials.rigs))
    for k, rig_t in enumerate(trials.rigs):
        v1, d1, h1 = _pixel_observations(scene, rig_t, sample_stride)
        if v1.size == 0:
            raise NoVisibleObjects(f"trial {k} renders no non-sky pixel")
        od[k] = p_depth.overlap(v1, d1)
        oh[k] = p_height.overlap(v1, h1)

    return OverlapReport(
        overlap_depth=float(od.mean()),
        overlap_height=float(oh.mean()),
        n_points=int(v0.size),
        sample_stride=sample_stride,
        rolls_deg=angles[:, 0],
        pitches_deg=angles[:, 1],
        trial_overlap_depth=od,
        trial_overlap_height=oh,
    )


@dataclass
class ErrorReport:
    """Long-format localization errors: one row per (trial, object,
    parameterization), held as equal-length columns."""

    trials: np.ndarray
    objects: np.ndarray
    parameterizations: np.ndarray
    errors_m: np.ndarray
    true_distances_m: np.ndarray
    n_pixels: np.ndarray
    camera_height_m: float = 0.0
    noise_kind: str = ""
    disturbed: bool = False

    def errors_for(self, parameterization: str) -> np.ndarray:
        return self.errors_m[self.parameterizations == parameterization]

    def summary(self) -> dict:
        out = {
            "camera_height_m": self.camera_height_m,
            "noise_kind": self.noise_kind,
            "disturbed": self.disturbed,
        }
        for param in ("height", "depth"):
            errs = self.errors_for(param)
            out[param] = {
                "n": int(errs.size),
                "mean_m": float(errs.mean()) if errs.size else float("nan"),
                "median_m": float(np.median(errs)) if errs.size else float("nan"),
                "p90_m": float(np.percentile(errs, 90)) if errs.size else float("nan"),
            }
        return out


def _expected_hypotheses(bins: BinSpec, noise: NoiseModel) -> np.ndarray:
    """Each noise-table row's expected hypothesis, its mean bin midpoint:
    what a pixel of that true bin lifts at.  A row sum reduces a row the
    same way wherever the row sits, so these are the bits of the predicted
    map's row of each pixel times the midpoints, summed over its row."""
    return (_noise_table(bins, noise) * bin_midpoints(bins)).sum(axis=1)


def _object_bins(values: np.ndarray, non_sky: np.ndarray, on_object: np.ndarray,
                 bins: BinSpec, noise: NoiseModel) -> np.ndarray:
    """The true bin of each object pixel's value, after the noise model's
    bias.  Every non-sky value must fit the bin range, as when the whole
    map is predicted.  That is checked from the least and the largest of
    them, NaN included (rounding is monotone, so the bias shifts both as it
    shifts each value); only a failing check bins the whole map, for
    _true_bin_map's OutOfRange naming the first offender."""
    bias = noise.bias_m if noise.kind == "bias" else None
    lo = np.min(values, where=non_sky, initial=np.inf)
    hi = np.max(values, where=non_sky, initial=-np.inf)
    if bias is not None:
        lo, hi = lo + bias, hi + bias
    if not (bins.range_min <= lo and hi <= bins.range_max):
        _true_bin_map(values, non_sky, bins, noise)  # raises OutOfRange
    shifted = values[on_object] if bias is None else values[on_object] + bias
    return value_to_bin(shifted, bins)


def _trial_rows(maps, rig: CameraRig, paths, noise: NoiseModel):
    """Columns (object, param, error, reference distance, pixel count) of
    one trial rendered into maps, a row per (visible object, path):
    objects ascending, paths in order within an object.  paths holds
    (param, bins, expected hypotheses, lift) per parameterization, height
    first.

    A trial that sees an object lifts its object pixels through its rig,
    once at their rendered depths and once per path; one that sees none
    lifts nothing.  An object's centroid is its np.bincount sum over its
    pixel count, which adds the same rows in the same order as the mean of
    its points, and its distance the square root of o0*o0 + o1*o1 + o2*o2."""
    on_object = maps.hit_kind > 0
    hypotheses = [
        expected[_object_bins(values, maps.non_sky, on_object, bins, noise)]
        for values, (_, bins, expected, _) in zip((maps.height_above_ground, maps.depth), paths)
    ]
    label = maps.hit_kind[on_object] - 1
    n_px = np.bincount(label)
    objects = np.flatnonzero(n_px)
    n_px = n_px[objects]
    uu, vv = maps.pixel_grid()
    us, vs = uu[on_object], vv[on_object]

    def camera_distances(lift, values):
        if objects.size == 0:
            return np.empty(0)
        points = lift(us, vs, values, rig)
        sums = [np.bincount(label, points[:, a])[objects] for a in range(3)]
        offset = np.stack(sums, axis=1) / n_px[:, None] - rig.camera_center
        return np.sqrt(_mat3(offset, offset[:, :, None])[:, 0])

    d_ref = camera_distances(lift_many_depth, maps.depth[on_object])
    errors = [np.abs(camera_distances(lift, values) - d_ref)
              for (*_, lift), values in zip(paths, hypotheses)]
    k = len(paths)
    return (
        np.repeat(objects, k),
        np.tile([param for param, *_ in paths], objects.size),
        np.stack(errors, axis=1).ravel(),
        np.repeat(d_ref, k),
        np.repeat(n_px, k),
    )


def localization_error(
    scene: Scene,
    rig: CameraRig,
    height_bins: BinSpec,
    depth_bins: BinSpec,
    noise: NoiseModel,
    trials: DisturbanceTrials | None = None,
    sample_stride: int = 16,
) -> ErrorReport:
    """Camera-origin distance error of each object's center estimate.

    Per trial the scene is rendered from the trial's perturbed rig (one
    trial from the clean rig when trials is None; trials are perturbations
    of rig, see disturbance_trials), and every object's center is
    estimated as the mean of its pixels, each lifted at its expected height
    or depth under the noise model.  The reference for an object is the
    camera distance of the exact surface centroid over the same pixels, so
    a noiseless run errs only by bin quantization.  Each trial's rows come
    from its own render and rig (see _trial_rows), and the rows of every
    trial are joined in trial order.  Raises AboveCamera when a height bin
    reaches the camera, OutOfRange when any rendered non-sky value leaves
    its bins, and NoVisibleObjects when no trial sees an object.
    """
    height_bins.check_kind("height", "height_bins")
    depth_bins.check_kind("depth", "depth_bins")
    # perturb_rig keeps the camera height, so this covers every trial.
    if np.any(bin_midpoints(height_bins) >= rig.ground_height_H):
        raise AboveCamera("height bins reach the camera center height")
    paths = (("height", height_bins, _expected_hypotheses(height_bins, noise), lift_many_height),
             ("depth", depth_bins, _expected_hypotheses(depth_bins, noise), lift_many_depth))
    rigs = (rig,) if trials is None else trials.rigs
    rows = [_trial_rows(render(scene, rig_t, sample_stride), rig_t, paths, noise)
            for rig_t in rigs]
    n_rows = [objects.size for objects, *_ in rows]
    if sum(n_rows) == 0:
        raise NoVisibleObjects("no object rendered any pixels in any trial")
    columns = [np.concatenate(column) for column in zip(*rows)]
    return ErrorReport(np.repeat(np.arange(len(rigs)), n_rows), *columns,
                       camera_height_m=rig.ground_height_H, noise_kind=noise.kind,
                       disturbed=trials is not None)


def height_error_law(d, delta_h, H: float, h):
    """Ground-range error caused by a height bias: d * delta_h / (H - h).

    d is the true ground range of the point, h its true height, delta_h
    the bias, H the camera height above ground; d, delta_h and h are
    scalars or arrays.  Requires the biased height to stay below the
    camera (H > h + delta_h) and h < H.
    """
    if np.any(H <= h) or np.any(H <= h + delta_h):
        raise InvalidGeometry(
            f"camera height {H} must exceed both h={h} and h+delta_h={h + delta_h}"
        )
    return d * delta_h / (H - h)


def simulate_range_bias(rig: CameraRig, u, v, h, delta_h):
    """Lift pixels at their true height and at a biased height.

    Returns (d_true, simulated_error): the true ground range of the pixel
    at height h and the drop in ground range caused by the bias, measured
    from the camera's ground projection, for scalars or arrays of one
    shape.  Matches height_error_law exactly because the lift is linear
    in the height.
    """
    cam = rig.camera_center
    p_true = lift_many_height(u, v, h, rig)
    p_bias = lift_many_height(u, v, h + delta_h, rig)
    d_true = np.hypot(p_true[..., 0] - cam[0], p_true[..., 1] - cam[1])
    d_bias = np.hypot(p_bias[..., 0] - cam[0], p_bias[..., 1] - cam[1])
    return d_true, d_true - d_bias


# Probe grid of the law check: image columns x heights x biases.
_LAW_FRACTIONS = (0.3, 0.5, 0.8)
_LAW_HEIGHTS = (0.0, 0.5, 1.2)
_LAW_BIASES = (0.05, 0.1, 0.25)


def law_check(rig: CameraRig):
    """The lever law against the simulated lift at 27 probes: the columns
    u, v, h, delta_h, d_true, the law's error, the simulated error and
    their absolute difference, a row per (image column, height, bias) in
    that nesting order.  The probes share one low image row, so every
    probe ray points below the horizon."""
    fu, h, dh = (a.ravel() for a in np.meshgrid(
        _LAW_FRACTIONS, _LAW_HEIGHTS, _LAW_BIASES, indexing="ij"))
    u = fu * rig.intrinsics.image_w
    v = np.full_like(u, 0.85 * rig.intrinsics.image_h)
    d_true, simulated = simulate_range_bias(rig, u, v, h, dh)
    predicted = height_error_law(d_true, dh, rig.ground_height_H, h)
    return u, v, h, dh, d_true, predicted, simulated, np.abs(predicted - simulated)


@dataclass
class MatchedPoints:
    """Static surface points observed by two rigs: per-point heights and
    depths under each, restricted to points visible in both."""

    height_a: np.ndarray
    height_b: np.ndarray
    depth_a: np.ndarray
    depth_b: np.ndarray
    n_candidates: int


def matched_surface_points(
    scene: Scene, rig_a: CameraRig, rig_b: CameraRig, sample_stride: int = 16
) -> MatchedPoints:
    """Match surface points of rig_a's render into rig_b by reprojection.

    Each non-sky hit of rig_a is projected into rig_b; a ray cast through
    the exact projected coordinates must reach the same point (no
    occlusion, within 1e-6 m) for the pair to count.  Heights are world
    properties so matched heights agree up to rounding; depths are
    rig-relative and genuinely change.
    """
    maps = render(scene, rig_a, sample_stride)
    mask = maps.non_sky
    uu, vv = maps.pixel_grid()
    us, vs = uu[mask], vv[mask]
    depth_a = maps.depth[mask]
    height_a = maps.height_above_ground[mask]
    pts = lift_many_depth(us, vs, depth_a, rig_a)

    u2, v2, depth_proj, visible = project_ego(pts, rig_b.intrinsics, rig_b.extrinsics)
    n_candidates = int(np.count_nonzero(visible))
    u2, v2, depth_proj = u2[visible], v2[visible], depth_proj[visible]
    d_cast, h_cast, _ = cast_rays(scene, rig_b, u2, v2)
    matched = np.isfinite(d_cast) & (np.abs(d_cast - depth_proj) < 1e-6)
    return MatchedPoints(
        height_a=height_a[visible][matched],
        height_b=h_cast[matched],
        depth_a=depth_a[visible][matched],
        depth_b=d_cast[matched],
        n_candidates=n_candidates,
    )
