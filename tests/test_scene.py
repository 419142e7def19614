"""Scene generation, ray casting, and synthetic prediction tests.

The ray caster is checked against first principles: every reported hit
point must lie on the surface it claims (inside the box's slab bounds, or
on the ground plane inside the extent), and marching along the ray must
find no earlier surface.  A small frozen scene pins exact numbers.
"""
import numpy as np
import pytest

from bevlift.binning import BinSpec, value_to_bin
from bevlift.errors import ConfigError, EmptyInput, ExtentTooSmall, OutOfRange, ShapeMismatch
from bevlift.geometry import Box3D, CameraRig, Intrinsics, extrinsics_from_pose
from bevlift.scene import (
    HIT_GROUND,
    HIT_SKY,
    NoiseModel,
    PixelMaps,
    Scene,
    cast_rays,
    generate_scene,
    histogram,
    load_scene,
    predict_depth_distribution,
    predict_height_distribution,
    render,
    save_scene,
)

INTR_1000 = Intrinsics(1000.0, 1000.0, 768.0, 432.0, 1536, 864)
EXTENT = (0.0, 98.0, -40.0, 40.0)


def level_rig(height=5.0, pitch_deg=0.0):
    extr = extrinsics_from_pose((0.0, 0.0, height), pitch_deg=pitch_deg)
    return CameraRig.build(INTR_1000, extr)


def one_box_scene(box=None, extent=EXTENT):
    box = box if box is not None else Box3D(10.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0)
    return Scene((box,), extent, rng_seed=0)


def point_in_box(p, box, margin=1e-9):
    rel = p - box.center
    c, s = np.cos(box.theta), np.sin(box.theta)
    local = np.array([c * rel[0] + s * rel[1], -s * rel[0] + c * rel[1], rel[2]])
    half = np.array([box.l, box.w, box.h]) * 0.5
    return bool(np.all(np.abs(local) <= half + margin))


class TestSceneContainer:
    def test_rejects_box_below_ground(self):
        with pytest.raises(ConfigError):
            Scene((Box3D(10, 0, -0.5, 2, 2, 2, 0),), EXTENT, 0)

    def test_rejects_box_outside_extent(self):
        with pytest.raises(ConfigError):
            Scene((Box3D(200, 0, 1, 2, 2, 2, 0),), EXTENT, 0)

    def test_json_round_trip_exact(self):
        scene = generate_scene("corridor", 6, seed=3)
        back = Scene.from_json_dict(scene.to_json_dict())
        assert back.extent == scene.extent
        assert back.template == scene.template
        for a, b in zip(back.boxes, scene.boxes):
            assert (a.x, a.y, a.z, a.l, a.w, a.h, a.theta) == (
                b.x, b.y, b.z, b.l, b.w, b.h, b.theta
            )

    def test_save_and_load(self, tmp_path):
        scene = generate_scene("intersection", 5, seed=9)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded.to_json_dict() == scene.to_json_dict()

    def test_malformed_document(self):
        with pytest.raises(ConfigError):
            Scene.from_json_dict({"boxes": []})


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        a = generate_scene("corridor", 12, seed=7)
        b = generate_scene("corridor", 12, seed=7)
        assert a.to_json_dict() == b.to_json_dict()

    def test_seeds_differ(self):
        a = generate_scene("corridor", 12, seed=7)
        b = generate_scene("corridor", 12, seed=8)
        assert a.to_json_dict() != b.to_json_dict()

    @pytest.mark.parametrize("template,seed", [("corridor", 7), ("intersection", 11)])
    def test_footprints_disjoint(self, template, seed):
        scene = generate_scene(template, 20, seed=seed)
        boxes = scene.boxes
        radii = [0.5 * np.hypot(b.l, b.w) for b in boxes]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                gap = np.hypot(boxes[i].x - boxes[j].x, boxes[i].y - boxes[j].y)
                assert gap > radii[i] + radii[j]

    def test_boxes_rest_on_ground(self):
        scene = generate_scene("intersection", 15, seed=2)
        for box in scene.boxes:
            assert box.z == pytest.approx(box.h / 2.0)

    def test_centers_inside_extent(self):
        scene = generate_scene("corridor", 25, seed=5)
        x_min, x_max, y_min, y_max = scene.extent
        for box in scene.boxes:
            assert x_min <= box.x <= x_max and y_min <= box.y <= y_max

    def test_extent_too_small(self):
        with pytest.raises(ExtentTooSmall):
            generate_scene("corridor", 40, seed=1, extent=(0.0, 16.0, -2.0, 2.0))

    def test_unknown_template(self):
        with pytest.raises(ConfigError):
            generate_scene("roundabout", 4, seed=0)


class TestCastRaysFrozen:
    """Level camera 5 m up, one 2 m cube centered at (10, 0, 1).

    The pixel half a focal length below center follows dir (1, 0, -0.5)
    per unit camera depth: it enters the cube's x slab at t = 9 (where
    its z is 0.5, inside), so the box wins over the ground hit at t = 10.
    """

    def test_box_occludes_ground(self):
        depth, hag, kind = cast_rays(one_box_scene(), level_rig(), 768.0, 932.0)
        assert kind == 1
        assert depth == pytest.approx(9.0, abs=1e-9)
        assert hag == pytest.approx(0.5, abs=1e-9)

    def test_ground_beside_the_box(self):
        # two focal-tenths to the right: y = -0.2 t misses the cube
        depth, hag, kind = cast_rays(one_box_scene(), level_rig(), 968.0, 932.0)
        assert kind == HIT_GROUND
        assert depth == pytest.approx(10.0, abs=1e-9)
        assert hag == pytest.approx(0.0, abs=1e-9)

    def test_shallow_ray_overshoots_extent(self):
        # slope 0.038 puts the ground crossing at x = 131.6 > 98: sky
        depth, hag, kind = cast_rays(one_box_scene(), level_rig(), 768.0, 470.0)
        assert kind == HIT_SKY
        assert np.isnan(depth) and np.isnan(hag)

    def test_steeper_ray_lands_inside_extent(self):
        depth, hag, kind = cast_rays(one_box_scene(), level_rig(), 768.0, 500.0)
        assert kind == HIT_GROUND
        assert depth == pytest.approx(5000.0 / 68.0, rel=1e-12)

    def test_lateral_extent_bound(self):
        scene = one_box_scene(extent=(0.0, 98.0, -2.0, 2.0))
        # x slope 0.25 reaches |y| = 2.5 at the ground range of 10 m
        _, _, kind = cast_rays(scene, level_rig(), 1018.0, 932.0)
        assert kind == HIT_SKY

    def test_box_behind_camera_ignored(self):
        scene = one_box_scene(Box3D(10.0, 0.0, 1.0, 2.0, 2.0, 2.0, 0.0), EXTENT)
        rig = CameraRig.build(
            INTR_1000, extrinsics_from_pose((20.0, 0.0, 5.0))  # box now behind
        )
        depth, _, kind = cast_rays(scene, rig, 768.0, 932.0)
        assert kind == HIT_GROUND
        assert depth == pytest.approx(10.0, abs=1e-9)

    def test_horizontal_ray_is_sky(self):
        _, _, kind = cast_rays(one_box_scene(), level_rig(), 768.0, 432.0)
        assert kind == HIT_SKY

    def test_yawed_box_narrower_profile(self):
        # the same cube turned 45 degrees: its x extent grows to
        # sqrt(2), so the slab entry moves closer
        scene = one_box_scene(Box3D(10.0, 0.0, 1.0, 2.0, 2.0, 2.0, np.pi / 4.0))
        depth, _, kind = cast_rays(scene, level_rig(), 768.0, 932.0)
        assert kind == 1
        assert depth == pytest.approx(10.0 - np.sqrt(2.0), abs=1e-9)


class TestCastRaysSurfaceOracle:
    def test_hits_lie_on_claimed_surfaces(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=48)
        uu, vv = maps.pixel_grid()
        ref = np.stack(
            [
                (uu - mast_rig.intrinsics.cx) / mast_rig.intrinsics.fx,
                (vv - mast_rig.intrinsics.cy) / mast_rig.intrinsics.fy,
                np.ones_like(uu),
            ],
            axis=-1,
        )
        dirs = ref @ mast_rig.extrinsics.rotation
        origin = mast_rig.camera_center
        x_min, x_max, y_min, y_max = corridor7.extent
        checked = 0
        for r in range(maps.height):
            for c in range(maps.width):
                kind = maps.hit_kind[r, c]
                if kind == HIT_SKY:
                    continue
                t = maps.depth[r, c]
                p = origin + t * dirs[r, c]
                assert p[2] == pytest.approx(maps.height_above_ground[r, c], abs=1e-9)
                if kind == HIT_GROUND:
                    assert abs(p[2]) < 1e-9
                    assert x_min - 1e-9 <= p[0] <= x_max + 1e-9
                    assert y_min - 1e-9 <= p[1] <= y_max + 1e-9
                else:
                    assert point_in_box(p, corridor7.boxes[kind - 1], margin=1e-8)
                checked += 1
        assert checked > 100

    def test_no_earlier_surface_along_the_ray(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=96)
        uu, vv = maps.pixel_grid()
        ref = np.stack(
            [
                (uu - mast_rig.intrinsics.cx) / mast_rig.intrinsics.fx,
                (vv - mast_rig.intrinsics.cy) / mast_rig.intrinsics.fy,
                np.ones_like(uu),
            ],
            axis=-1,
        )
        dirs = ref @ mast_rig.extrinsics.rotation
        origin = mast_rig.camera_center
        x_min, x_max, y_min, y_max = corridor7.extent
        for r in range(maps.height):
            for c in range(maps.width):
                t_hit = maps.depth[r, c]
                d = dirs[r, c]
                if np.isfinite(t_hit):
                    ts = np.linspace(0.05, 0.995, 40) * t_hit
                    check_ground = True
                else:
                    # sky: if the ray reaches the ground at all, the
                    # crossing must lie outside the sensed extent
                    if d[2] < 0:
                        t_ground = origin[2] / -d[2]
                        g = origin + t_ground * d
                        assert not (
                            x_min <= g[0] <= x_max and y_min <= g[1] <= y_max
                        )
                        ts = np.linspace(0.05, 0.995, 40) * t_ground
                    else:
                        ts = np.linspace(1.0, 150.0, 40)
                    check_ground = False
                pts = origin[None, :] + ts[:, None] * d[None, :]
                for p in pts:
                    # nothing on the segment before the reported hit
                    if check_ground:
                        assert p[2] > -1e-9
                    for box in corridor7.boxes:
                        assert not point_in_box(p, box, margin=-1e-6)

    def test_depth_equals_camera_z_of_hit_point(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=64)
        uu, vv = maps.pixel_grid()
        mask = maps.non_sky
        from bevlift.lifting import lift_many_depth

        pts = lift_many_depth(uu[mask], vv[mask], maps.depth[mask], mast_rig)
        cam = mast_rig.extrinsics.ego_to_cam(pts)
        np.testing.assert_allclose(cam[:, 2], maps.depth[mask], rtol=1e-12)


class TestRender:
    def test_grid_shape_and_stride(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=32)
        assert (maps.width, maps.height) == (1536 // 32, 864 // 32)
        uu, vv = maps.pixel_grid()
        assert uu[0, 0] == 16.0 and vv[0, 0] == 16.0
        assert uu[0, 1] == 48.0

    def test_matches_cast_rays(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=64)
        uu, vv = maps.pixel_grid()
        depth, hag, kind = cast_rays(corridor7, mast_rig, uu, vv)
        assert np.array_equal(maps.depth, depth, equal_nan=True)
        assert np.array_equal(maps.hit_kind, kind)

    def test_render_is_deterministic(self, corridor7, mast_rig):
        a = render(corridor7, mast_rig, sample_stride=32)
        b = render(corridor7, mast_rig, sample_stride=32)
        assert a.depth.tobytes() == b.depth.tobytes()
        assert a.hit_kind.tobytes() == b.hit_kind.tobytes()

    def test_ground_pixels_have_zero_height(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=16)
        ground = maps.hit_kind == HIT_GROUND
        assert np.count_nonzero(ground) > 0
        assert np.max(np.abs(maps.height_above_ground[ground])) < 1e-9

    def test_box_pixels_bounded_by_tallest_box(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=16)
        on_box = maps.hit_kind > 0
        assert np.count_nonzero(on_box) > 0
        top = max(b.z + b.h / 2.0 for b in corridor7.boxes)
        heights = maps.height_above_ground[on_box]
        assert np.all(heights > -1e-9)
        assert np.max(heights) <= top + 1e-9

    def test_all_rendered_depths_positive(self, corridor7, mast_rig):
        maps = render(corridor7, mast_rig, sample_stride=16)
        assert np.all(maps.depth[maps.non_sky] > 0)

    def test_bad_stride(self, corridor7, mast_rig):
        with pytest.raises(ConfigError):
            render(corridor7, mast_rig, sample_stride=0)

    def test_pixel_maps_shape_check(self):
        with pytest.raises(ShapeMismatch):
            PixelMaps(2, 2, np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))


class TestHistogram:
    def test_frozen_counts(self):
        h = histogram([0.1, 0.25, 1.9], 0.5)
        np.testing.assert_allclose(h.edges, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(h.counts, [2, 0, 0, 1])

    def test_edges_anchor_at_width_multiples(self):
        h = histogram([1.2, 1.3], 1.0)
        np.testing.assert_allclose(h.edges, [1.0, 2.0])
        np.testing.assert_array_equal(h.counts, [2])

    def test_negative_values(self):
        h = histogram([-0.7, 0.2], 0.5)
        assert h.edges[0] == pytest.approx(-1.0)
        assert h.counts.sum() == 2

    def test_nan_filtered(self):
        h = histogram([np.nan, 0.2, np.nan], 0.5)
        assert h.counts.sum() == 1

    def test_all_nan_raises(self):
        with pytest.raises(EmptyInput):
            histogram([np.nan], 0.5)

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            histogram([1.0], 0.0)


def tiny_maps():
    """2x1 sample grid: one ground pixel at height 0.3 / depth 5, one sky."""
    return PixelMaps(
        2,
        1,
        np.array([[5.0, np.nan]]),
        np.array([[0.3, np.nan]]),
        np.array([[HIT_GROUND, HIT_SKY]]),
    )


class TestNoiseModel:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            NoiseModel("salt_and_pepper")

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            NoiseModel("gaussian_bin_blur", sigma_bins=-1.0)

    @pytest.mark.parametrize("field", ["sigma_bins", "bias_m"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, bad):
        with pytest.raises(ConfigError):
            NoiseModel.from_json_dict({"kind": "gaussian_bin_blur", field: bad})

    def test_json_round_trip(self):
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=1.0, bias_m=0.05, seed=3)
        assert NoiseModel.from_json_dict(noise.to_json_dict()) == noise


class TestPredictDistributions:
    def test_one_hot_places_all_mass_on_true_bin(self):
        bins = BinSpec("UD", 4, 0.0, 1.0)
        dist = predict_height_distribution(tiny_maps(), bins, NoiseModel("one_hot_truth"))
        np.testing.assert_array_equal(dist.data[0, 0], [0.0, 1.0, 0.0, 0.0])
        assert dist.cell_weight[0, 0] == 1.0

    def test_sky_cell_is_uniform_with_zero_weight(self):
        bins = BinSpec("UD", 4, 0.0, 1.0)
        dist = predict_height_distribution(tiny_maps(), bins, NoiseModel("one_hot_truth"))
        np.testing.assert_allclose(dist.data[0, 1], 0.25)
        assert dist.cell_weight[0, 1] == 0.0

    def test_zero_sigma_blur_equals_one_hot(self):
        bins = BinSpec("UD", 8, 0.0, 1.0)
        a = predict_height_distribution(
            tiny_maps(), bins, NoiseModel("gaussian_bin_blur", sigma_bins=0.0)
        )
        b = predict_height_distribution(tiny_maps(), bins, NoiseModel("one_hot_truth"))
        np.testing.assert_array_equal(a.data, b.data)

    def test_blur_rows_normalized_and_peaked_at_truth(self):
        bins = BinSpec("UD", 5, 0.0, 1.0)
        dist = predict_height_distribution(
            tiny_maps(), bins, NoiseModel("gaussian_bin_blur", sigma_bins=1.0)
        )
        row = dist.data[0, 0]
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(row) == value_to_bin(0.3, bins)

    def test_blur_symmetric_around_center_bin(self):
        # truth at 0.5 is the exact center of 5 bins, so the discrete
        # Gaussian is symmetric before and after normalization
        maps = PixelMaps(
            1, 1, np.array([[4.0]]), np.array([[0.5]]), np.array([[HIT_GROUND]])
        )
        bins = BinSpec("UD", 5, 0.0, 1.0)
        dist = predict_height_distribution(
            maps, bins, NoiseModel("gaussian_bin_blur", sigma_bins=1.3)
        )
        row = dist.data[0, 0]
        assert row[1] == pytest.approx(row[3], rel=1e-12)
        assert row[0] == pytest.approx(row[4], rel=1e-12)

    def test_bias_shifts_truth_before_binning(self):
        bins = BinSpec("UD", 4, 0.0, 1.0)
        biased = predict_height_distribution(
            tiny_maps(), bins, NoiseModel("bias", bias_m=0.2)
        )
        # 0.3 + 0.2 = 0.5 falls in bin 2
        np.testing.assert_array_equal(biased.data[0, 0], [0.0, 0.0, 1.0, 0.0])

    def test_depth_distribution_uses_depth_channel(self):
        bins = BinSpec("DEPTH_UD", 10, 0.0, 10.0)
        dist = predict_depth_distribution(tiny_maps(), bins, NoiseModel("one_hot_truth"))
        assert np.argmax(dist.data[0, 0]) == 5
        assert dist.cell_weight[0, 1] == 0.0

    def test_value_outside_bin_range_raises(self):
        bins = BinSpec("UD", 4, 1.0, 2.0)  # rendered height 0.3 not covered
        with pytest.raises(OutOfRange):
            predict_height_distribution(tiny_maps(), bins, NoiseModel("one_hot_truth"))

    def test_all_sky_map_yields_zero_weights(self):
        maps = PixelMaps(
            1, 1, np.array([[np.nan]]), np.array([[np.nan]]), np.array([[HIT_SKY]])
        )
        dist = predict_height_distribution(
            maps, BinSpec("UD", 4, 0.0, 1.0), NoiseModel("one_hot_truth")
        )
        assert dist.cell_weight[0, 0] == 0.0
        np.testing.assert_allclose(dist.data[0, 0], 0.25)
