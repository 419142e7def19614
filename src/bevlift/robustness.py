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
normalized 2D histograms on a fixed grid.  Depth is tightly coupled to v
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
lifting every bin.  Expected hypotheses are read from one noise table per
run, only at object pixels, so no dense distribution map is built.  Each
trial lifts all its object pixels once per parameterization and reduces
them per object with np.bincount.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinSpec, bin_midpoints
from .errors import (
    AboveCamera,
    ConfigError,
    InvalidGeometry,
    NoVisibleObjects,
    config_floats,
    config_int,
    config_object,
    config_seed,
)
from .geometry import CameraRig, Extrinsics, _rot_x, _rot_z, project_ego
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
        config_seed("seed", self.seed)
        if config_int("n_trials", self.n_trials) < 1:
            raise ConfigError(f"n_trials must be >= 1, got {self.n_trials}")

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
    delta = _rot_x(np.deg2rad(pitch_deg)) @ _rot_z(np.deg2rad(roll_deg))
    return Extrinsics(delta @ extr.rotation, delta @ extr.translation)


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


def _hist_cells(v_vals: np.ndarray, y_vals: np.ndarray, y_bin: float) -> dict:
    """Point count per occupied (v, y) cell, keyed in order of each cell's
    first point, the order _intersection sums in."""
    vb = np.floor(v_vals / V_BIN_PX).astype(np.int64)
    yb = np.floor(y_vals / y_bin).astype(np.int64)
    # One int64 key per cell: rows are few and y levels at most one per
    # point, so the key cannot overflow.
    y_levels, y_index = np.unique(yb, return_inverse=True)
    keys = (vb - vb.min()) * y_levels.size + y_index
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    first = first[order]
    return dict(zip(zip(vb[first].tolist(), yb[first].tolist()), counts[order].tolist()))


def _intersection(p: dict, n_p: int, q: dict, n_q: int) -> float:
    shared = 0.0
    for key, count in p.items():
        if key in q:
            shared += min(count / n_p, q[key] / n_q)
    return shared


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
    p_depth = _hist_cells(v0, d0, DEPTH_BIN_M)
    p_height = _hist_cells(v0, h0, HEIGHT_BIN_M)

    angles = trials.angles
    od = np.empty(len(trials.rigs))
    oh = np.empty(len(trials.rigs))
    for k, rig_t in enumerate(trials.rigs):
        v1, d1, h1 = _pixel_observations(scene, rig_t, sample_stride)
        if v1.size == 0:
            raise NoVisibleObjects(f"trial {k} renders no non-sky pixel")
        q_depth = _hist_cells(v1, d1, DEPTH_BIN_M)
        q_height = _hist_cells(v1, h1, HEIGHT_BIN_M)
        od[k] = _intersection(p_depth, v0.size, q_depth, v1.size)
        oh[k] = _intersection(p_height, v0.size, q_height, v1.size)

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


def _object_rows(maps, rig: CameraRig, paths):
    """Columns (object, param, error, reference distance, pixel count) of
    one trial, a row per visible object and path, objects ascending.

    paths holds (param, lift, true_bin_map, table, mids) per
    parameterization.  The trial's object pixels are lifted once per path
    and once at their rendered depths.  An object's centroid is its
    np.bincount sum over its pixel count, which adds the same rows in the
    same order as the mean of its points.
    """
    on_object = maps.hit_kind > 0
    label = maps.hit_kind[on_object] - 1
    n_px = np.bincount(label)
    objects = np.flatnonzero(n_px)
    uu, vv = maps.pixel_grid()
    us, vs = uu[on_object], vv[on_object]

    def camera_distances(points):
        sums = [np.bincount(label, points[:, a])[objects] for a in range(3)]
        offset = np.stack(sums, axis=1) / n_px[objects, None] - rig.camera_center
        # A dot product per row rounds as np.linalg.norm of that row does;
        # norm(axis=1) does not.
        return np.sqrt(offset[:, None, :] @ offset[:, :, None]).ravel()

    d_ref = camera_distances(lift_many_depth(us, vs, maps.depth[on_object], rig))
    errors = [
        np.abs(camera_distances(lift(us, vs, table[true_bins[on_object]] @ mids, rig)) - d_ref)
        for _, lift, true_bins, table, mids in paths
    ]
    return (
        np.repeat(objects, len(paths)),
        np.tile([param for param, *_ in paths], objects.size),
        np.stack(errors, axis=1).ravel(),
        np.repeat(d_ref, len(paths)),
        np.repeat(n_px[objects], len(paths)),
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
    of rig, see disturbance_trials), every non-sky pixel is binned under
    the noise model, and every object's center is estimated as the mean of
    its pixels each lifted at its expected height or depth.  The reference for an object is the
    camera distance of the exact surface centroid over the same pixels, so
    a noiseless run errs only by bin quantization.  Raises AboveCamera when
    a height bin reaches the camera, OutOfRange when a rendered value
    leaves its bins, and NoVisibleObjects when no trial sees an object.
    """
    height_bins.check_kind("height", "height_bins")
    depth_bins.check_kind("depth", "depth_bins")
    mids_h = bin_midpoints(height_bins)
    mids_d = bin_midpoints(depth_bins)
    # perturb_rig keeps the camera height, so this covers every trial.
    if np.any(mids_h >= rig.ground_height_H):
        raise AboveCamera("height bins reach the camera center height")
    table_h = _noise_table(height_bins, noise)
    table_d = _noise_table(depth_bins, noise)
    rigs = (rig,) if trials is None else trials.rigs

    trial_columns = []
    for rig_t in rigs:
        maps = render(scene, rig_t, sample_stride)
        paths = (
            ("height", lift_many_height,
             _true_bin_map(maps.height_above_ground, maps.non_sky, height_bins, noise),
             table_h, mids_h),
            ("depth", lift_many_depth,
             _true_bin_map(maps.depth, maps.non_sky, depth_bins, noise), table_d, mids_d),
        )
        trial_columns.append(_object_rows(maps, rig_t, paths))
    objects, params, errors, d_ref, n_px = map(np.concatenate, zip(*trial_columns))
    if errors.size == 0:
        raise NoVisibleObjects("no object rendered any pixels in any trial")
    trial = np.repeat(np.arange(len(rigs)), [c[0].size for c in trial_columns])
    return ErrorReport(trial, objects, params, errors, d_ref, n_px,
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
