"""Camera models, boxes, and the ground-aligned virtual frame of a rig.

Coordinate conventions used throughout the package:

* Ego frame: right-handed, z-up.  The ground is the exact plane z = 0 with
  unit normal (0, 0, 1); "height above ground" of a point is its ego z.
* Camera frame: x right, y down, z along the optical axis (pinhole model,
  no distortion).  Extrinsics map ego to camera: p_cam = R @ p_ego + t.
* Virtual frame: origin at the camera's optical center, Y axis along the
  downward ground normal (so it points from the camera toward the ground),
  Z axis the projection of the optical axis onto the ground plane
  (renormalized), X = Y x Z to close a right-handed basis.  A point with
  ego height g has virtual Y coordinate ground_height_H - g.  CameraRig's
  constructor derives the frame from the extrinsics and the ground
  normal: t_cam_virt rotates camera into virtual coordinates, and
  p_ego = virt_to_ego @ p_virt + camera_center.

The virtual frame is what makes per-pixel heights liftable: a pixel's
reference point at camera depth 1 is rotated into this frame, and scaling
it so its Y coordinate equals (ground_height_H - h) lands the ray on the
plane of height h.  See lifting.lift_pixel_height.

Every product of 3-vectors with a rotation whose result reaches an
artifact is _mat3's fixed-order one: three multiplies and two adds per
entry, as separate numpy ufuncs, so the bits do not depend on which BLAS
kernel the host picks, nor on how many rows go in one call.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    CameraBelowGround,
    ConfigError,
    DegenerateOrientation,
    config_float,
    config_floats,
    config_int,
    config_object,
    config_size,
    read_config_file,
)

_ORTHO_TOL = 1e-9
_DEGENERATE_SIN = 1e-6


def _mat3(a, m) -> np.ndarray:
    """a @ m for rows of 3-vectors a (..., 3) and m of 3 rows: one matrix
    (3, k), or one per row of a (..., 3, k).  Entry j of a row is (a0 * m0j
    + a1 * m1j) + a2 * m2j, one ufunc per operation, which never fuse, so a
    row has the same bits whatever the host's kernels and whatever rows
    share its call.  The result is a (..., k) view of a (k, ...) array: each
    output column is written whole, through out=, and reads contiguous."""
    a = np.asarray(a, dtype=np.float64)
    m = np.asarray(m)
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    out = np.empty((m.shape[-1], *a0.shape))
    term = np.empty(a0.shape)
    for j in range(out.shape[0]):
        column = out[j, ...]
        np.multiply(a0, m[..., 0, j], out=column)
        np.multiply(a1, m[..., 1, j], out=term)
        column += term
        np.multiply(a2, m[..., 2, j], out=term)
        column += term
    return out.transpose(*range(1, out.ndim), 0)


def _as_matrix(value, shape, name: str) -> np.ndarray:
    """A read-only float64 copy of value, whose every entry is a finite
    number (config_float's rule, which names the entry, e.g.
    translation[0]): a rig's lift plans hold geometry derived from these
    arrays, so they must never change."""
    entries = np.array(value, dtype=object)
    if entries.shape != shape:
        raise ConfigError(f"{name} must have shape {shape}, got {entries.shape}")
    for index, entry in np.ndenumerate(entries):
        config_float(name + "".join(f"[{i}]" for i in index), entry)
    arr = entries.astype(np.float64)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole camera intrinsics in pixels.

    _grids holds the indexed rays of a render grid (see scene._grid_rays):
    they depend on the intrinsics and the stride only, so every pose of
    one camera shares them, and a copy made by dataclasses.replace starts
    without any.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    image_w: int
    image_h: int
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        config_floats(self, "fx", "fy", "cx", "cy")
        config_int("image_w", self.image_w, lo=1)
        config_int("image_h", self.image_h, lo=1)
        for name in ("fx", "fy"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        # the (cells, 3) float64 reference rays of every pixel, at stride 1
        config_size("image_w x image_h x 3", self.image_w, self.image_h, 3)
        for name, size in (("cx", self.image_w), ("cy", self.image_h)):
            if not 0 <= getattr(self, name) < size:
                raise ConfigError(f"{name} must lie inside the image, in [0, {size})")
        # pixel_to_ref_cam divides offsets of up to the image size by fx, fy.
        for name, size in (("fx", "image_w"), ("fy", "image_h")):
            if not math.isfinite(getattr(self, size) / getattr(self, name)):
                raise ConfigError(
                    f"{name} must make {size} / {name} finite, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class Extrinsics:
    """Rigid map from ego to camera coordinates: p_cam = R @ p_ego + t."""

    rotation: np.ndarray
    translation: np.ndarray
    _center: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rot = _as_matrix(self.rotation, (3, 3), "rotation")
        tra = _as_matrix(self.translation, (3,), "translation")
        # Finite entries far from unit size overflow these products; inf
        # and nan fail the <= tests, so the rig is rejected without warnings.
        with np.errstate(all="ignore"):
            orthonormal = np.max(np.abs(rot @ rot.T - np.eye(3))) <= _ORTHO_TOL
            proper = abs(np.linalg.det(rot) - 1.0) <= _ORTHO_TOL
        if not orthonormal:
            raise ConfigError("rotation is not orthonormal within 1e-9")
        if not proper:
            raise ConfigError("rotation determinant must be +1 within 1e-9")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)
        # A translation far from unit size overflows to an inf center, which
        # CameraRig rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            center = -_mat3(tra, rot)
        center.flags.writeable = False
        object.__setattr__(self, "_center", center)

    @property
    def camera_center(self) -> np.ndarray:
        """Optical center in ego coordinates, -t @ R, read-only."""
        return self._center

    def ego_to_cam(self, points: np.ndarray) -> np.ndarray:
        return _mat3(points, self.rotation.T) + self.translation

    def cam_to_ego(self, points: np.ndarray) -> np.ndarray:
        return _mat3(np.asarray(points, dtype=np.float64) - self.translation, self.rotation)


@dataclass(frozen=True)
class Box3D:
    """Yaw-oriented box: center (x, y, z), size (l, w, h), heading theta.

    l extends along the box's local x axis (heading direction), w along
    local y, h along z.  theta is normalized into [-pi, pi).
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    theta: float

    def __post_init__(self):
        config_floats(self, "x", "y", "z", "l", "w", "h", "theta")
        for name in ("l", "w", "h"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        theta = float(np.mod(self.theta + np.pi, 2.0 * np.pi) - np.pi)
        object.__setattr__(self, "theta", theta)

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def corners(self) -> np.ndarray:
        """Eight corners in ego coordinates, shape (8, 3)."""
        sx = np.array([1, 1, 1, 1, -1, -1, -1, -1]) * (self.l / 2.0)
        sy = np.array([1, 1, -1, -1, 1, 1, -1, -1]) * (self.w / 2.0)
        sz = np.array([1, -1, 1, -1, 1, -1, 1, -1]) * (self.h / 2.0)
        local = np.stack([sx, sy, sz], axis=1)
        c, s = np.cos(self.theta), np.sin(self.theta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return local @ rot.T + self.center


@dataclass(frozen=True)
class CameraRig:
    """A calibrated camera with its ground-aligned virtual frame.

    A rig is defined by its intrinsics, extrinsics and the unit up-normal
    of the ground plane in ego; everything else is derived from them by
    the constructor, so dataclasses.replace re-derives it too:

    * t_cam_virt rotates camera coordinates into the virtual frame;
    * virt_to_ego rotates virtual coordinates into ego axes, whose origin
      is camera_center (p_ego = virt_to_ego @ p_virt + camera_center);
    * ground_height_H is the optical center's height above the ground
      plane, along its normal;
    * rig_id, when not given, is a digest of the intrinsics and
      extrinsics.

    All arrays are read-only.  Raises DegenerateOrientation when the
    optical axis is within ~1e-6 rad of the ground normal (the virtual Z
    axis vanishes), and CameraBelowGround, a ConfigError, when the center
    is on or below the ground plane.

    _plans holds the rig's lift plans, one per hypothesis kind (see
    lifting._plan): they live and die with the rig, and a copy made by
    dataclasses.replace starts without any.
    """

    intrinsics: Intrinsics
    extrinsics: Extrinsics
    ground_normal: np.ndarray = (0.0, 0.0, 1.0)
    rig_id: str | None = None
    t_cam_virt: np.ndarray = field(init=False)
    virt_to_ego: np.ndarray = field(init=False)
    ground_height_H: float = field(init=False)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        normal = _as_matrix(self.ground_normal, (3,), "ground_normal")
        with np.errstate(over="ignore"):  # an overflowing norm is inf, not a unit
            unit = abs(np.linalg.norm(normal) - 1.0) <= 1e-9
        if not unit:
            raise ConfigError("ground_normal must be a unit vector")
        extr = self.extrinsics
        center = extr.camera_center
        # Distances from the camera are square roots of dot products (see
        # robustness), and a far camera overflows the render arithmetic.
        with np.errstate(over="ignore"):
            near = np.isfinite(_mat3(center, center[:, None])[0])
        if not near:
            raise ConfigError(
                "extrinsics place the camera center too far from the ego origin: "
                "its squared distance overflows"
            )
        height = float(_mat3(center, normal[:, None])[0])
        if height <= 0.0:
            raise CameraBelowGround(
                f"extrinsics and ground_normal put the camera center at height {height:.6g} m, "
                f"on or below the ground"
            )
        optical_axis = extr.rotation[2, :]  # camera +z expressed in ego
        z_proj = optical_axis - _mat3(optical_axis, normal[:, None])[0] * normal
        z_norm = np.sqrt(_mat3(z_proj, z_proj[:, None])[0])
        if z_norm < _DEGENERATE_SIN:
            raise DegenerateOrientation(
                "optical axis is parallel to the ground normal; virtual Z undefined"
            )
        z_axis = z_proj / z_norm
        y_axis = -normal
        x_axis = np.cross(y_axis, z_axis)
        virt_to_ego = np.stack([x_axis, y_axis, z_axis], axis=1)
        t_cam_virt = _mat3(virt_to_ego.T, extr.rotation.T)
        virt_to_ego.flags.writeable = t_cam_virt.flags.writeable = False
        rig_id = self.rig_id
        if rig_id is None:
            intr = self.intrinsics
            digest = hashlib.sha256()
            digest.update(np.asarray(
                [intr.fx, intr.fy, intr.cx, intr.cy], dtype=np.float64
            ).tobytes())
            digest.update(extr.rotation.tobytes())
            digest.update(extr.translation.tobytes())
            rig_id = "rig-" + digest.hexdigest()[:12]
        object.__setattr__(self, "ground_normal", normal)
        object.__setattr__(self, "t_cam_virt", t_cam_virt)
        object.__setattr__(self, "virt_to_ego", virt_to_ego)
        object.__setattr__(self, "ground_height_H", height)
        object.__setattr__(self, "rig_id", rig_id)

    @property
    def camera_center(self) -> np.ndarray:
        return self.extrinsics.camera_center


def pixel_to_ref_cam(u, v, intrinsics: Intrinsics) -> np.ndarray:
    """Reference point of pixel (u, v) at camera depth 1.

    Evaluates K^-1 @ [u, v, 1]; accepts scalars or equally shaped arrays
    (stacked along the last axis of the result).  Callers are expected to
    pass coordinates inside the image bounds.
    """
    x = (np.asarray(u, dtype=np.float64) - intrinsics.cx) / intrinsics.fx
    y = (np.asarray(v, dtype=np.float64) - intrinsics.cy) / intrinsics.fy
    # Stacked as columns, each contiguous, as _mat3 reads them.
    ref = np.stack([x, y, np.ones_like(x)])
    return ref.transpose(*range(1, ref.ndim), 0)


def project_ego(points: np.ndarray, intrinsics: Intrinsics, extrinsics: Extrinsics):
    """Project ego points into the image.

    Returns (u, v, depth, visible): pixel coordinates, camera-frame z, and
    a mask of points that land inside the image with positive depth.
    """
    cam = extrinsics.ego_to_cam(points)
    depth = cam[..., 2]
    # A point at depth 0, or whose pixel coordinate overflows, is off the
    # image: its u or v is inf or nan, which visible rejects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = intrinsics.fx * cam[..., 0] / depth + intrinsics.cx
        v = intrinsics.fy * cam[..., 1] / depth + intrinsics.cy
    visible = (
        (depth > 0)
        & (u >= 0)
        & (u < intrinsics.image_w)
        & (v >= 0)
        & (v < intrinsics.image_h)
    )
    return u, v, depth, visible


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def extrinsics_from_pose(
    position: Sequence[float],
    yaw_deg: float = 0.0,
    pitch_deg: float = 0.0,
    roll_deg: float = 0.0,
) -> Extrinsics:
    """Build extrinsics from a camera pose in ego coordinates.

    With all angles zero the camera sits at `position` looking along ego +x
    with image right along ego -y.  yaw rotates the view about ego z,
    positive pitch tilts the optical axis downward, and roll turns the
    camera about its own optical axis.
    """
    yaw = np.deg2rad(yaw_deg)
    pitch = np.deg2rad(pitch_deg)
    roll = np.deg2rad(roll_deg)
    # Columns: camera x (image right), y (image down), z (optical) in ego.
    base = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    cam_to_ego = _rot_z(yaw) @ base @ _rot_x(-pitch) @ _rot_z(roll)
    position = np.asarray(position, dtype=np.float64)
    return Extrinsics(rotation=cam_to_ego.T, translation=-cam_to_ego.T @ position)


def rig_to_json_dict(rig: CameraRig) -> dict:
    intr = rig.intrinsics
    extr = rig.extrinsics
    return {
        "name": rig.rig_id,
        "intrinsics": {
            "fx": intr.fx,
            "fy": intr.fy,
            "cx": intr.cx,
            "cy": intr.cy,
            "image_w": intr.image_w,
            "image_h": intr.image_h,
        },
        "extrinsics": {
            "rotation": extr.rotation.tolist(),
            "translation": extr.translation.tolist(),
        },
        "ground_normal": rig.ground_normal.tolist(),
    }


def _rig(intrinsics, extrinsics, ground_normal=(0.0, 0.0, 1.0), name=None) -> CameraRig:
    """The rig of a JSON document; the parameters are its keys."""
    if name is not None and not isinstance(name, str):
        raise ConfigError(f"name must be a string, got {name!r}")
    return CameraRig(
        config_object(Intrinsics, intrinsics, "intrinsics"),
        config_object(Extrinsics, extrinsics, "extrinsics"),
        ground_normal,
        rig_id=name,
    )


def rig_from_json_dict(doc: dict, path: str = "") -> CameraRig:
    """The rig of a JSON document as rig_to_json_dict writes it."""
    return config_object(_rig, doc, path)


def load_rig(path) -> CameraRig:
    """Load a camera rig from a JSON file."""
    return rig_from_json_dict(read_config_file(path))
