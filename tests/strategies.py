"""Shared test builders: hypothesis strategies (rigs that always see the
ground, bin specs with sane ranges, boxes inside the default extent), and
distribution maps and clouds built by hand in the pipeline's table form."""
import numpy as np
from hypothesis import strategies as st

from bevlift.binning import BinSpec
from bevlift.geometry import Box3D, CameraRig, Intrinsics, extrinsics_from_pose
from bevlift.lifting import DistributionMap, WedgeCloud, _LiftPlan

finite = st.floats(allow_nan=False, allow_infinity=False)


def dense_map(width, height, n_bins, data, cell_weight=None):
    """The map of dense (height, width, n_bins) data: a table of one row
    per cell, rows = arange(height * width), unit cell weights by
    default."""
    table = np.asarray(data, dtype=np.float64).reshape(-1, n_bins)
    rows = np.arange(height * width).reshape(height, width)
    if cell_weight is None:
        cell_weight = np.ones((height, width))
    return DistributionMap(width, height, n_bins, table, cell_weight, rows)


def points_plan(positions):
    """The plan of (n, 3) ego-frame positions: one unit step from -0.0 along
    each (a writable input is copied).  x * 1.0 and x + -0.0 are x exactly,
    signed zeros included (+0.0 is not), so the points are the positions
    bit for bit and the finite check is np.isfinite of every point."""
    dirs = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    if dirs.flags.writeable:
        dirs = dirs.copy()
        dirs.flags.writeable = False
    return _LiftPlan(None, np.ones(dirs.shape[0], dtype=bool), 0, dirs,
                     np.ones(1), np.full(3, -0.0))


def points_cloud(positions, features, weights):
    """The cloud of per-point positions, features and weights: one point per
    source cell, its weights a table of one row per point with unit cell
    weights, so weights reads them back bit for bit."""
    plan = points_plan(positions)
    m = plan.dirs.shape[0]
    table = np.asarray(weights, dtype=np.float64).reshape(m, 1)
    return WedgeCloud(plan, features, table, np.ones(m), np.arange(m))


@st.composite
def intrinsics_st(draw):
    fx = draw(st.floats(300, 1500))
    fy = draw(st.floats(300, 1500))
    cx = draw(st.floats(600, 900))
    cy = draw(st.floats(350, 500))
    return Intrinsics(fx, fy, cx, cy, 1536, 864)


@st.composite
def rig_st(draw):
    # pitch bounded away from 0 and 90 keeps the virtual frame well
    # conditioned and the ground in view
    intr = draw(intrinsics_st())
    pos = (
        draw(st.floats(-5, 5)),
        draw(st.floats(-5, 5)),
        draw(st.floats(2.0, 12.0)),
    )
    extr = extrinsics_from_pose(
        pos,
        yaw_deg=draw(st.floats(-40, 40)),
        pitch_deg=draw(st.floats(3, 45)),
        roll_deg=draw(st.floats(-8, 8)),
    )
    return CameraRig(intr, extr)


@st.composite
def descending_pixel_st(draw, rig, margin_px: float = 20.0):
    """A pixel whose ray points below the virtual horizon, by row margin."""
    intr = rig.intrinsics
    # horizon: virtual y of the ray is 0; conservative row bound from the
    # steepest column
    u = draw(st.floats(0, intr.image_w - 1))
    v_lo = 0.0
    for v_probe in np.linspace(0, intr.image_h - 1, 64):
        ref = np.array([(u - intr.cx) / intr.fx, (v_probe - intr.cy) / intr.fy, 1.0])
        if (rig.t_cam_virt @ ref)[1] > 5e-3:
            v_lo = v_probe + margin_px
            break
    else:
        v_lo = intr.image_h - 2.0
    v = draw(st.floats(min(v_lo, intr.image_h - 1), intr.image_h - 1))
    return u, v


def height_binspec_st():
    strategy = st.sampled_from(("UD", "SID", "LID", "DID"))
    return strategy.flatmap(_binspec_for)


def _binspec_for(strategy):
    def build(args):
        n, lo, span, alpha = args
        return BinSpec(
            strategy, n, lo, lo + span, alpha if strategy == "DID" else None
        )

    return st.tuples(
        st.integers(2, 256),
        st.floats(-2.0, 2.0),
        st.floats(0.5, 8.0),
        st.floats(0.3, 4.0),
    ).map(build)


@st.composite
def box_st(draw):
    l = draw(st.floats(0.4, 14.0))
    w = draw(st.floats(0.4, 3.0))
    h = draw(st.floats(0.5, 4.0))
    return Box3D(
        x=draw(st.floats(5.0, 90.0)),
        y=draw(st.floats(-35.0, 35.0)),
        z=h / 2,
        l=l, w=w, h=h,
        theta=draw(st.floats(-4.0, 4.0)),
    )
