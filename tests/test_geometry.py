"""Camera model, rig, and virtual frame tests.

The frozen expectations were derived by hand from the pinhole model and
the frame construction rules in the module docstring; see the inline
derivations next to each constant.
"""
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bevlift.errors import CameraBelowGround, ConfigError, DegenerateOrientation
from bevlift.geometry import (
    Box3D,
    CameraRig,
    Extrinsics,
    Intrinsics,
    _mat3,
    extrinsics_from_pose,
    load_rig,
    pixel_to_ref_cam,
    project_ego,
    rig_from_json_dict,
    rig_to_json_dict,
    save_rig,
)
from bevlift.lifting import lift_pixel_height
from bevlift.robustness import perturb_extrinsics, perturb_rig
from strategies import rig_st

INTR_1000 = Intrinsics(1000.0, 1000.0, 768.0, 432.0, 1536, 864)

# The flat ground of the committed rigs, and a ground tilted by 3 degrees
# about ego y.
GROUND_NORMALS = (
    np.array([0.0, 0.0, 1.0]),
    np.array([np.sin(np.deg2rad(3.0)), 0.0, np.cos(np.deg2rad(3.0))]),
)


def overhead_rig(height=5.0, pitch_deg=0.0, yaw_deg=0.0, roll_deg=0.0):
    extr = extrinsics_from_pose((0.0, 0.0, height), yaw_deg, pitch_deg, roll_deg)
    return CameraRig(INTR_1000, extr)


class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ConfigError):
            Intrinsics(0.0, 1000.0, 768.0, 432.0, 1536, 864)

    def test_rejects_principal_point_outside_image(self):
        with pytest.raises(ConfigError):
            Intrinsics(1000.0, 1000.0, 2000.0, 432.0, 1536, 864)


class TestExtrinsics:
    def test_rejects_non_orthonormal_rotation(self):
        with pytest.raises(ConfigError):
            Extrinsics(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        # orthonormal but det = -1
        flip = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ConfigError):
            Extrinsics(flip, np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigError):
            Extrinsics(np.eye(2), np.zeros(3))
        with pytest.raises(ConfigError):
            Extrinsics(np.eye(3), np.zeros(2))

    def test_camera_center_maps_to_cam_origin(self):
        extr = extrinsics_from_pose((3.0, -2.0, 4.0), 30.0, 15.0, 5.0)
        np.testing.assert_allclose(
            extr.ego_to_cam(extr.camera_center), np.zeros(3), atol=1e-12
        )

    def test_rig_arrays_are_read_only(self):
        rotation = np.eye(3)
        extr = Extrinsics(rotation, np.array([0.0, 0.0, 5.0]))
        rotation[0, 0] = 2.0  # the caller's array is copied, not frozen
        assert extr.rotation[0, 0] == 1.0
        rig = overhead_rig(pitch_deg=20.0)
        for arr in (rig.extrinsics.rotation, rig.extrinsics.translation, rig.t_cam_virt,
                    rig.virt_to_ego, rig.ground_normal):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @given(rig_st())
    def test_transform_round_trip(self, rig):
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.5, 10.0]])
        back = rig.extrinsics.cam_to_ego(rig.extrinsics.ego_to_cam(pts))
        np.testing.assert_allclose(back, pts, atol=1e-9)


class TestPoseConstruction:
    """extrinsics_from_pose encodes the viewing conventions; each frozen
    vector below follows directly from the docstring."""

    def test_level_camera_axes(self):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0))
        # rows of R are the camera axes expressed in ego
        np.testing.assert_allclose(extr.rotation[0], [0.0, -1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(extr.rotation[1], [0.0, 0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(extr.rotation[2], [1.0, 0.0, 0.0], atol=1e-12)

    def test_pitch_tilts_optical_axis_down(self):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=25.0)
        c, s = np.cos(np.deg2rad(25.0)), np.sin(np.deg2rad(25.0))
        np.testing.assert_allclose(extr.rotation[2], [c, 0.0, -s], atol=1e-12)

    def test_yaw_rotates_about_ego_z(self):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0), yaw_deg=90.0)
        np.testing.assert_allclose(extr.rotation[2], [0.0, 1.0, 0.0], atol=1e-12)

    def test_position_is_camera_center(self):
        extr = extrinsics_from_pose((2.0, -7.0, 3.5), 33.0, 12.0, 4.0)
        np.testing.assert_allclose(
            extr.camera_center, [2.0, -7.0, 3.5], atol=1e-12
        )


class TestVirtualFrame:
    def test_level_camera_frame_is_axis_aligned(self):
        rig = overhead_rig(height=5.0, pitch_deg=0.0)
        # virtual axes in ego: x = (0,-1,0), y = (0,0,-1), z = (1,0,0)
        expected = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
        np.testing.assert_allclose(rig.virt_to_ego, expected, atol=1e-12)
        np.testing.assert_allclose(rig.t_cam_virt, np.eye(3), atol=1e-12)
        assert rig.ground_height_H == pytest.approx(5.0, abs=1e-12)

    def test_roll_does_not_move_virtual_axes(self):
        plain = overhead_rig(pitch_deg=20.0)
        rolled = overhead_rig(pitch_deg=20.0, roll_deg=7.0)
        np.testing.assert_allclose(
            rolled.virt_to_ego, plain.virt_to_ego, atol=1e-12
        )

    @given(rig_st())
    def test_frame_invariants(self, rig):
        rot = rig.virt_to_ego
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) < 1e-9
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)
        # y axis is the downward ground normal
        np.testing.assert_allclose(rot[:, 1], [0.0, 0.0, -1.0], atol=1e-9)
        # z axis lies in the ground plane, pointing with the optical axis
        assert abs(rot[2, 2]) < 1e-9
        assert rot[:, 2] @ rig.extrinsics.rotation[2, :] > 0.0
        assert np.max(np.abs(rig.t_cam_virt @ rig.t_cam_virt.T - np.eye(3))) < 1e-9
        # chaining cam->virt->ego reproduces the extrinsic rotation
        np.testing.assert_allclose(
            rot @ rig.t_cam_virt, rig.extrinsics.rotation.T, atol=1e-9
        )

    @given(rig_st(), st.floats(-2.0, 6.0))
    def test_virtual_y_is_height_deficit(self, rig, g):
        # a point at ego height g sits at virtual y = H - g
        point = np.array([12.0, 3.0, g])
        virt = (point - rig.camera_center) @ rig.virt_to_ego
        assert virt[1] == pytest.approx(rig.ground_height_H - g, abs=1e-9)

    def test_replaced_extrinsics_rederive_the_frame(self):
        # A rig copied with other extrinsics holds their frame, the one
        # perturb_rig builds from the same angles, not the original's.
        rig = overhead_rig(height=10.0, pitch_deg=25.0)
        replaced = replace(rig, extrinsics=perturb_extrinsics(rig.extrinsics, 2.0, 3.0))
        rebuilt = perturb_rig(rig, 2.0, 3.0)
        assert not np.array_equal(replaced.t_cam_virt, rig.t_cam_virt)
        assert np.array_equal(replaced.t_cam_virt, rebuilt.t_cam_virt)
        assert np.array_equal(replaced.virt_to_ego, rebuilt.virt_to_ego)
        assert replaced.ground_height_H == rebuilt.ground_height_H
        assert np.array_equal(
            lift_pixel_height(900.0, 800.0, 0.0, replaced),
            lift_pixel_height(900.0, 800.0, 0.0, rebuilt),
        )

    def test_straight_down_is_degenerate(self):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=90.0)
        with pytest.raises(DegenerateOrientation):
            CameraRig(INTR_1000, extr)

    def test_camera_on_or_below_ground_rejected(self):
        for z in (0.0, -1.0):
            extr = extrinsics_from_pose((0.0, 0.0, z), pitch_deg=10.0)
            with pytest.raises(CameraBelowGround):
                CameraRig(INTR_1000, extr)

    def test_non_unit_normal_rejected(self):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=10.0)
        with pytest.raises(ConfigError):
            CameraRig(INTR_1000, extr, (0.0, 0.0, 2.0))

    @pytest.mark.parametrize("position", [(1e308, 0.0, 5.0), (0.0, -1e308, 5.0),
                                          (0.0, 0.0, 1e308), (1e154, 1e154, 5.0)])
    def test_camera_whose_squared_distance_overflows_rejected(self, position):
        extr = extrinsics_from_pose(position, pitch_deg=10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="camera center too far"):
                CameraRig(INTR_1000, extr)

    def test_far_camera_with_finite_squared_distance_kept(self):
        rig = CameraRig(INTR_1000, extrinsics_from_pose((1e150, 0.0, 1e140), pitch_deg=10.0))
        assert rig.ground_height_H > 0


class TestFixedOrderProduct:
    """_mat3, the product of every 3-vector and rotation that reaches an
    artifact: each entry is (a0 * m0j + a1 * m1j) + a2 * m2j, rounded after
    every operation, whatever the rows' shape or company."""

    def test_entries_round_after_every_operation(self):
        rng = np.random.default_rng(3)
        a, m = rng.standard_normal((50, 3)), rng.standard_normal((3, 3))
        got = _mat3(a, m)
        for row, out in zip(a.tolist(), got.tolist()):
            # Python floats round every operation, in this order.
            assert out == [(row[0] * m[0, j] + row[1] * m[1, j]) + row[2] * m[2, j]
                           for j in range(3)]

    def test_a_row_keeps_its_bits_whatever_shares_its_call(self):
        rng = np.random.default_rng(4)
        a, m = rng.standard_normal((24, 3)), rng.standard_normal((3, 3))
        whole = _mat3(a, m)
        assert _mat3(a.reshape(4, 6, 3), m).reshape(24, 3).tobytes() == whole.tobytes()
        assert _mat3(a[7], m).tobytes() == whole[7].tobytes()
        per_row = _mat3(a, np.broadcast_to(m, (24, 3, 3)))
        assert per_row.tobytes() == whole.tobytes()

    def test_one_matrix_per_row(self):
        rng = np.random.default_rng(5)
        a, m = rng.standard_normal((10, 3)), rng.standard_normal((10, 3, 3))
        want = np.stack([_mat3(row, mat) for row, mat in zip(a, m)])
        assert _mat3(a, m).tobytes() == want.tobytes()
        # a column of m per row is a dot product per row
        dots = _mat3(a, a[:, :, None])
        assert dots.shape == (10, 1)
        assert dots[:, 0].tolist() == [(x * x + y * y) + z * z for x, y, z in a.tolist()]


class TestProjection:
    def test_ref_point_frozen(self):
        # (768 - 768)/1000 = 0, (932 - 432)/1000 = 0.5
        np.testing.assert_allclose(
            pixel_to_ref_cam(768.0, 932.0, INTR_1000), [0.0, 0.5, 1.0], atol=1e-15
        )

    def test_ref_point_vectorized(self):
        u = np.array([768.0, 1268.0])
        v = np.array([432.0, 932.0])
        res = pixel_to_ref_cam(u, v, INTR_1000)
        assert res.shape == (2, 3)
        np.testing.assert_allclose(res[0], [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(res[1], [0.5, 0.5, 1.0], atol=1e-15)

    @given(rig_st(), st.floats(4.0, 60.0), st.floats(-0.3, 0.3), st.floats(-0.25, 0.25))
    def test_project_then_unproject_round_trip(self, rig, depth, dx, dy):
        # build a point guaranteed in front of the camera, then check the
        # pinhole inverse lands back on it
        cam_pt = np.array([dx * depth, dy * depth, depth])
        ego_pt = rig.extrinsics.cam_to_ego(cam_pt)
        u, v, d, visible = project_ego(ego_pt, rig.intrinsics, rig.extrinsics)
        assert d == pytest.approx(depth, rel=1e-9)
        recon = rig.extrinsics.cam_to_ego(pixel_to_ref_cam(u, v, rig.intrinsics) * d)
        np.testing.assert_allclose(recon, ego_pt, atol=1e-6)

    def test_point_whose_pixel_overflows_is_not_visible_without_warning(self):
        rig = CameraRig(Intrinsics(1e308, 1e308, 768.0, 432.0, 1536, 864),
                        extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=10.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v, _, visible = project_ego(
                np.array([[10.0, 3.0, 0.0], [10.0, -3.0, 0.0]]), rig.intrinsics, rig.extrinsics
            )
        assert np.isinf(u).all() and not visible.any()

    def test_point_behind_camera_not_visible(self):
        rig = overhead_rig(pitch_deg=10.0)
        u, v, d, visible = project_ego(
            np.array([-10.0, 0.0, 1.0]), rig.intrinsics, rig.extrinsics
        )
        assert d < 0 and not visible


class TestBox3D:
    def test_axis_aligned_corners(self):
        box = Box3D(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0)
        corners = box.corners()
        assert corners.shape == (8, 3)
        np.testing.assert_allclose(np.sort(np.unique(corners[:, 0])), [-0.5, 0.5])
        np.testing.assert_allclose(np.abs(corners), 0.5)

    def test_quarter_turn_swaps_extents(self):
        box = Box3D(0.0, 0.0, 0.0, 4.0, 2.0, 1.0, np.pi / 2.0)
        corners = box.corners()
        assert np.max(corners[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(corners[:, 1]) == pytest.approx(2.0, abs=1e-12)

    def test_theta_normalized_to_half_open_interval(self):
        assert Box3D(0, 0, 0, 1, 1, 1, 3.0 * np.pi / 2.0).theta == pytest.approx(
            -np.pi / 2.0, abs=1e-12
        )
        assert Box3D(0, 0, 0, 1, 1, 1, np.pi).theta == pytest.approx(
            -np.pi, abs=1e-12
        )

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ConfigError):
            Box3D(0, 0, 0, 0.0, 1, 1, 0.0)


class TestRigSerialization:
    # Both round trips run on the flat and the tilted ground: a rig file
    # that dropped its normal would still pass on the flat one.

    def test_json_round_trip_is_exact(self):
        extr = extrinsics_from_pose((0.5, -1.5, 7.0), 18.0, 22.0, 3.0)
        for normal in GROUND_NORMALS:
            rig = CameraRig(INTR_1000, extr, normal, rig_id="round-trip")
            back = rig_from_json_dict(rig_to_json_dict(rig))
            # tolist/parse of float64 is lossless, so equality is exact
            assert np.array_equal(back.extrinsics.rotation, rig.extrinsics.rotation)
            assert np.array_equal(back.extrinsics.translation, rig.extrinsics.translation)
            assert back.rig_id == "round-trip"
            assert back.ground_height_H == rig.ground_height_H
            assert np.array_equal(back.t_cam_virt, rig.t_cam_virt)
            assert np.array_equal(back.ground_normal, normal)

    def test_save_and_load(self, tmp_path):
        extr = extrinsics_from_pose((0.0, 0.0, 5.0), pitch_deg=25.0)
        for k, normal in enumerate(GROUND_NORMALS):
            rig = CameraRig(INTR_1000, extr, normal)
            path = tmp_path / f"rig{k}.json"
            save_rig(rig, path)
            loaded = load_rig(path)
            assert np.array_equal(loaded.t_cam_virt, rig.t_cam_virt)
            assert loaded.ground_height_H == rig.ground_height_H
            assert loaded.intrinsics == rig.intrinsics

    def test_malformed_document_raises_config_error(self):
        with pytest.raises(ConfigError):
            rig_from_json_dict({"intrinsics": {"fx": 1000.0}})

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_rig(tmp_path / "absent.json")

    def test_auto_rig_id_is_stable(self):
        a = overhead_rig(pitch_deg=25.0)
        b = overhead_rig(pitch_deg=25.0)
        assert a.rig_id == b.rig_id and a.rig_id.startswith("rig-")
