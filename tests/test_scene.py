"""Scene generation, ray casting, and synthetic prediction tests.

The ray caster is checked against first principles: every reported hit
point must lie on the surface it claims (inside the box's slab bounds, or
on the ground plane inside the extent), and marching along the ray must
find no earlier surface.  A small frozen scene pins exact numbers.
"""
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from bevlift.binning import BinSpec, value_to_bin
from bevlift.errors import ConfigError, EmptyInput, ExtentTooSmall, OutOfRange, ShapeMismatch
from bevlift.geometry import Box3D, CameraRig, Intrinsics, extrinsics_from_pose, project_ego
from bevlift import lifting
from bevlift.lifting import cell_pixel_centers, lift_many_depth
from bevlift.robustness import perturb_rig
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
    _noise_table,
    _true_bin_map,
    render,
    save_scene,
    _box_frames,
    _box_ray_pairs,
    _grid_rays,
    _rays,
)

INTR_1000 = Intrinsics(1000.0, 1000.0, 768.0, 432.0, 1536, 864)
EXTENT = (0.0, 98.0, -40.0, 40.0)


def level_rig(height=5.0, pitch_deg=0.0):
    extr = extrinsics_from_pose((0.0, 0.0, height), pitch_deg=pitch_deg)
    return CameraRig(INTR_1000, extr)


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

    @pytest.mark.parametrize("fields", [
        dict(z=1e308), dict(l=1e308), dict(w=1e308), dict(h=1e308), dict(x=1.5e154),
    ])
    def test_rejects_box_whose_corners_overflow_their_squared_distance(self, fields):
        # The second box breaks the rule; the first keeps it at 1e20.
        box = dict(x=10.0, y=0.0, z=1.0, l=4.0, w=2.0, h=2.0, theta=0.3)
        boxes = (Box3D(**{**box, "h": 1e20}), Box3D(**{**box, **fields}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=r"^boxes\[1\]\.corners must have a finite"):
                Scene(boxes, (0.0, 2e154, -40.0, 40.0), 0)

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
        rig = CameraRig(
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
        pts = lift_many_depth(uu[mask], vv[mask], maps.depth[mask], mast_rig)
        cam = mast_rig.extrinsics.ego_to_cam(pts)
        np.testing.assert_allclose(cam[:, 2], maps.depth[mask], rtol=1e-12)


def cast_rays_unculled(scene, rig, us, vs):
    """The ray caster without culling: every box is tested against every
    ray.  Reference for cast_rays, which must match it bit for bit."""
    us = np.asarray(us, dtype=np.float64)
    vs = np.asarray(vs, dtype=np.float64)
    shape = us.shape
    ref_cam = np.stack(
        [
            (us.ravel() - rig.intrinsics.cx) / rig.intrinsics.fx,
            (vs.ravel() - rig.intrinsics.cy) / rig.intrinsics.fy,
            np.ones(us.size),
        ],
        axis=-1,
    )
    dirs = ref_cam @ rig.extrinsics.rotation
    origin = rig.camera_center
    best_t = np.full(us.size, np.inf)
    kind = np.full(us.size, HIT_SKY, dtype=np.int64)
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = -origin[2] / dz
        gx = origin[0] + t_ground * dirs[:, 0]
        gy = origin[1] + t_ground * dirs[:, 1]
    x_min, x_max, y_min, y_max = scene.extent
    ground_ok = (
        (t_ground > 1e-9) & np.isfinite(t_ground)
        & (gx >= x_min) & (gx <= x_max) & (gy >= y_min) & (gy <= y_max)
    )
    best_t = np.where(ground_ok, t_ground, best_t)
    kind = np.where(ground_ok, HIT_GROUND, kind)
    for k, box in enumerate(scene.boxes):
        cos_t, sin_t = np.cos(box.theta), np.sin(box.theta)
        rel = origin - np.array([box.x, box.y, box.z])
        ox = cos_t * rel[0] + sin_t * rel[1]
        oy = -sin_t * rel[0] + cos_t * rel[1]
        oz = rel[2]
        dx = cos_t * dirs[:, 0] + sin_t * dirs[:, 1]
        dy = -sin_t * dirs[:, 0] + cos_t * dirs[:, 1]
        t_near = np.full(us.size, -np.inf)
        t_far = np.full(us.size, np.inf)
        half = np.array([box.l, box.w, box.h]) * 0.5
        for o, d, half_size in ((ox, dx, half[0]), (oy, dy, half[1]), (oz, dirs[:, 2], half[2])):
            parallel = np.abs(d) < 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-half_size - o) / d
                t2 = (half_size - o) / d
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
            inside = np.abs(o) <= half_size
            lo = np.where(parallel, np.where(inside, -np.inf, np.inf), lo)
            hi = np.where(parallel, np.where(inside, np.inf, -np.inf), hi)
            t_near = np.maximum(t_near, lo)
            t_far = np.minimum(t_far, hi)
        hit = (t_near <= t_far) & (t_far > 1e-9)
        t_hit = np.where(t_near > 1e-9, t_near, t_far)
        better = hit & (t_hit < best_t)
        best_t = np.where(better, t_hit, best_t)
        kind = np.where(better, k + 1, kind)
    sky = ~np.isfinite(best_t)
    depth = np.where(sky, np.nan, best_t)
    with np.errstate(invalid="ignore"):
        height = np.where(sky, np.nan, origin[2] + best_t * dirs[:, 2])
    return depth.reshape(shape), height.reshape(shape), kind.reshape(shape)


def assert_culling_exact(scene, rig, us, vs):
    """cast_rays equals the unculled reference bit for bit; returns its kinds."""
    got = cast_rays(scene, rig, us, vs)
    want = cast_rays_unculled(scene, rig, us, vs)
    for name, g, w in zip(("depth", "height", "hit_kind"), got, want):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    return got[2]


# Level rig 5 m up looking along +x: a box cut by the left image border,
# one reaching behind the camera plane, and one wholly left of the image.
BORDER_BOX = Box3D(20.0, 16.0, 1.0, 4.0, 4.0, 2.0, 0.0)
BEHIND_BOX = Box3D(1.0, -3.0, 5.0, 6.0, 2.0, 10.0, 0.3)
OFFSCREEN_BOX = Box3D(20.0, 35.0, 1.0, 4.0, 4.0, 2.0, 0.0)
CULLING_SCENE = Scene((BORDER_BOX, BEHIND_BOX, OFFSCREEN_BOX), EXTENT, rng_seed=0)
TIED_BOX = Box3D(20.0, 0.0, 1.0, 4.0, 2.0, 2.0, 0.2)


class TestCastRaysCulling:
    @pytest.mark.parametrize("rig_name", ["mast_rig", "truck_rig"])
    def test_committed_scenes_on_clean_and_perturbed_rigs(
        self, request, rig_name, corridor7, intersection11, corridor13
    ):
        rig = request.getfixturevalue(rig_name)
        poses = [rig, perturb_rig(rig, 2.5, -1.5), perturb_rig(rig, -3.0, 2.0)]
        for scene in (corridor7, intersection11, corridor13):
            for pose in poses:
                uu, vv = render(scene, pose, sample_stride=8).pixel_grid()
                kind = assert_culling_exact(scene, pose, uu, vv)
                assert np.count_nonzero(kind > 0) > 0

    def test_the_three_edge_cases_are_real(self):
        rig = level_rig()
        u, _, depth, _ = project_ego(
            np.stack([b.corners() for b in CULLING_SCENE.boxes]), rig.intrinsics, rig.extrinsics
        )
        assert np.all(depth[0] > 0) and u[0].min() < 0.0 < u[0].max()
        assert np.any(depth[1] <= 0) and np.any(depth[1] > 0)
        assert np.all(depth[2] > 0) and u[2].max() < 0.0
        uu, vv = render(CULLING_SCENE, rig, sample_stride=4).pixel_grid()
        kind = cast_rays(CULLING_SCENE, rig, uu, vv)[2]
        assert np.any(kind == 1) and np.any(kind == 2) and not np.any(kind == 3)

    @pytest.mark.parametrize("roll, pitch", [(0.0, 0.0), (2.0, -1.0), (-1.5, 3.0)])
    def test_border_behind_and_offscreen_boxes(self, roll, pitch):
        rig = perturb_rig(level_rig(), roll, pitch)
        uu, vv = render(CULLING_SCENE, rig, sample_stride=4).pixel_grid()
        kind = assert_culling_exact(CULLING_SCENE, rig, uu, vv)
        assert np.any(kind == 1) and np.any(kind == 2)

    def test_arbitrary_pixel_coordinates(self, corridor7, mast_rig):
        rng = np.random.default_rng(0)
        intr = mast_rig.intrinsics
        us = rng.uniform(-50.0, intr.image_w + 50.0, 20000)
        vs = rng.uniform(-50.0, intr.image_h + 50.0, 20000)
        for scene in (corridor7, CULLING_SCENE):
            assert_culling_exact(scene, mast_rig, us, vs)

    @pytest.mark.parametrize("tied_first", [True, False])
    def test_tied_boxes_resolve_to_the_lower_index(self, tied_first):
        # Two copies of one box tie on every ray that hits either; a third
        # box puts the pair first, then last, in the box list.
        twin, other = TIED_BOX, Box3D(30.0, 4.0, 1.5, 4.0, 2.0, 3.0, 0.4)
        scene = Scene((twin, twin, other) if tied_first else (other, twin, twin), EXTENT)
        rig = perturb_rig(level_rig(), 1.0, -2.0)
        uu, vv = render(scene, rig, sample_stride=4).pixel_grid()
        kind = assert_culling_exact(scene, rig, uu, vv)
        lower, upper, rest = (1, 2, 3) if tied_first else (2, 3, 1)
        assert np.any(kind == lower) and np.any(kind == rest)
        assert not np.any(kind == upper)

    def test_permuted_grid_gives_the_permuted_render(self, corridor7, mast_rig):
        rig = perturb_rig(mast_rig, -1.5, 2.0)
        uu, vv = render(corridor7, rig, sample_stride=8).pixel_grid()
        perm = np.random.default_rng(3).permutation(uu.size)
        us, vs = uu.ravel()[perm], vv.ravel()[perm]
        assert_culling_exact(corridor7, rig, us, vs)
        for got, grid in zip(cast_rays(corridor7, rig, us, vs), cast_rays(corridor7, rig, uu, vv)):
            assert got.tobytes() == grid.ravel()[perm].tobytes()

    @pytest.mark.parametrize(
        "boxes", [(OFFSCREEN_BOX, Box3D(20.0, -35.0, 1.0, 4.0, 4.0, 2.0, 0.5)), ()]
    )
    def test_no_candidate_pairs(self, boxes):
        # boxes wholly off-screen, or none: the ground and sky alone
        rig, scene = level_rig(), Scene(boxes, EXTENT)
        uu, vv = render(scene, rig, sample_stride=8).pixel_grid()
        kind = assert_culling_exact(scene, rig, uu, vv)
        assert set(np.unique(kind).tolist()) == {HIT_SKY, HIT_GROUND}

    def test_reprojected_coordinates(self, corridor7, mast_rig):
        # the non-grid coordinates matched_surface_points casts through
        maps = render(corridor7, mast_rig, sample_stride=16)
        uu, vv = maps.pixel_grid()
        mask = maps.non_sky
        pts = lift_many_depth(uu[mask], vv[mask], maps.depth[mask], mast_rig)
        tilted = perturb_rig(mast_rig, 1.0, -2.0)
        u2, v2, _, visible = project_ego(pts, tilted.intrinsics, tilted.extrinsics)
        kind = assert_culling_exact(corridor7, tilted, u2[visible], v2[visible])
        assert np.count_nonzero(kind > 0) > 100


def box_ray_pairs_by_v_runs(corners, us, vs, rig):
    """Every ray of each box's v run, kept when its u passes the box's u
    bounds: the candidate search _box_ray_pairs replaced, kept as its
    reference."""
    cu, cv, depth, _ = project_ego(corners, rig.intrinsics, rig.extrinsics)
    front = np.all(depth > 0, axis=1)
    u_lo, u_hi = cu.min(axis=1) - 1.0, cu.max(axis=1) + 1.0
    v_lo, v_hi = cv.min(axis=1) - 1.0, cv.max(axis=1) + 1.0
    u_lo[~front] = v_lo[~front] = -np.inf
    u_hi[~front] = v_hi[~front] = np.inf
    order = np.argsort(vs, kind="stable")
    v_sorted = vs[order]
    start = np.searchsorted(v_sorted, v_lo, "left")
    counts = np.searchsorted(v_sorted, v_hi, "right") - start
    box = np.repeat(np.arange(len(counts)), counts)
    ray = order[np.arange(counts.sum()) + np.repeat(start - np.cumsum(counts) + counts, counts)]
    keep = (us[ray] >= u_lo[box]) & (us[ray] <= u_hi[box])
    return box[keep], ray[keep]


def assert_same_pairs(scene, rig, us, vs, rays):
    """_box_ray_pairs over rays keeps exactly the reference's pairs; returns
    how many."""
    corners = scene._frames[-1]
    box, ray = _box_ray_pairs(corners, rays, rig)
    want_box, want_ray = box_ray_pairs_by_v_runs(corners, us, vs, rig)
    got, want = np.lexsort((ray, box)), np.lexsort((want_ray, want_box))
    assert box[got].tobytes() == want_box[want].tobytes()
    assert ray[got].tobytes() == want_ray[want].tobytes()
    return box.size


class TestBoxRayPairs:
    @pytest.mark.parametrize("rig_name", ["mast_rig", "truck_rig"])
    def test_grids_of_the_committed_scenes_and_rigs(
        self, request, rig_name, corridor7, intersection11, corridor13
    ):
        rig = request.getfixturevalue(rig_name)
        intr = rig.intrinsics
        poses = [rig, perturb_rig(rig, 2.5, -1.5)]
        for stride in (1, 4, 8, 16):
            uu, vv = cell_pixel_centers(intr.image_w // stride, intr.image_h // stride, stride)
            us, vs = uu.ravel(), vv.ravel()
            for scene in (corridor7, intersection11, corridor13):
                for pose in poses:
                    rays = _grid_rays(pose.intrinsics, stride)
                    assert assert_same_pairs(scene, pose, us, vs, rays) > 0
                    # a grid's rays are in (v, u) order already: box-major,
                    # rays ascending within a box, as the reference lists them
                    box, ray = _box_ray_pairs(scene._frames[-1], rays, pose)
                    want_box, want_ray = box_ray_pairs_by_v_runs(scene._frames[-1], us, vs, pose)
                    assert box.tobytes() == want_box.tobytes()
                    assert ray.tobytes() == want_ray.tobytes()

    def test_arbitrary_coordinates(self, corridor7, mast_rig):
        rng = np.random.default_rng(4)
        intr = mast_rig.intrinsics
        us = rng.uniform(-50.0, intr.image_w + 50.0, 20000)
        vs = rng.uniform(-50.0, intr.image_h + 50.0, 20000)
        # repeated coordinates share their row or column
        us[:500], vs[500:1000] = us[500:1000], vs[:500]
        for scene in (corridor7, CULLING_SCENE):
            for pose in (mast_rig, perturb_rig(mast_rig, -1.0, 2.0)):
                # and coordinates on every box's padded rectangle, inside,
                # on and just past each bound
                cu, cv, _, _ = project_ego(scene._frames[-1], intr, pose.extrinsics)
                u_edges = np.stack([cu.min(axis=1) - 1.0, cu.max(axis=1) + 1.0])
                v_edges = np.stack([cv.min(axis=1) - 1.0, cv.max(axis=1) + 1.0])
                u_on = np.concatenate([np.nextafter(u_edges, -np.inf), u_edges,
                                       np.nextafter(u_edges, np.inf), u_edges.mean(0)[None]])
                v_on = np.concatenate([np.nextafter(v_edges, -np.inf), v_edges,
                                       np.nextafter(v_edges, np.inf), v_edges.mean(0)[None]])
                u_on, v_on = (a.ravel() for a in np.meshgrid(u_on.ravel(), v_on.ravel()))
                u_all, v_all = np.concatenate([us, u_on]), np.concatenate([vs, v_on])
                rays = _rays(u_all, v_all, intr)
                assert assert_same_pairs(scene, pose, u_all, v_all, rays) > 0

    @pytest.mark.parametrize("roll, pitch", [(0.0, 0.0), (2.0, -1.0)])
    def test_box_behind_the_camera_takes_every_ray(self, roll, pitch):
        rig = perturb_rig(level_rig(), roll, pitch)
        uu, vv = cell_pixel_centers(1536 // 8, 864 // 8, 8)
        us, vs = uu.ravel(), vv.ravel()
        assert_same_pairs(CULLING_SCENE, rig, us, vs, _grid_rays(rig.intrinsics, 8))
        box, _ = _box_ray_pairs(CULLING_SCENE._frames[-1], _rays(us, vs, rig.intrinsics), rig)
        assert np.count_nonzero(box == 1) == us.size

    def test_grid_rays_are_the_rays_of_the_grid_coordinates(self, mast_rig):
        intr = mast_rig.intrinsics
        uu, vv = cell_pixel_centers(intr.image_w // 8, intr.image_h // 8, 8)
        grid, rays = _grid_rays(intr, 8), _rays(uu.ravel(), vv.ravel(), intr)
        for name in ("ref_cam", "u_levels", "v_levels", "order", "keys"):
            assert getattr(grid, name).tobytes() == getattr(rays, name).tobytes(), name

    def test_one_grid_per_camera_shared_by_its_poses(self, corridor7, mast_rig):
        rig = replace(mast_rig, intrinsics=replace(mast_rig.intrinsics))
        assert rig.intrinsics._grids == {}
        rays = _grid_rays(rig.intrinsics, 8)
        pose = perturb_rig(rig, 1.0, -2.0)
        render(corridor7, pose, 8)
        assert pose.intrinsics._grids == {8: rays} and _grid_rays(pose.intrinsics, 8) is rays
        render(corridor7, pose, 16)
        assert list(rig.intrinsics._grids) == [16]
        assert replace(rig.intrinsics)._grids == {}

    def test_memoized_inputs_are_read_only(self, corridor7, mast_rig):
        rays = _grid_rays(mast_rig.intrinsics, 16)
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=1.0)
        arrays = [rays.ref_cam, rays.u_levels, rays.v_levels, rays.order, rays.keys,
                  *corridor7._frames, _noise_table(BinSpec("UD", 7, 0.0, 1.0), noise)]
        assert [arr.flags.writeable for arr in arrays] == [False] * len(arrays)

    def test_scene_derives_its_box_frames(self, corridor7):
        for got, want in zip(corridor7._frames, _box_frames(corridor7.boxes)):
            assert got.tobytes() == want.tobytes()
        one = replace(corridor7, boxes=corridor7.boxes[:1])
        assert [arr.shape[0] for arr in one._frames] == [1] * 5
        assert Scene((), EXTENT)._frames[-1].shape == (0, 8, 3)


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

    @pytest.mark.parametrize("stride, shape", [(1000, (0, 1)), (2000, (0, 0))])
    def test_stride_past_the_image_renders_no_cell(self, corridor7, mast_rig, stride, shape):
        maps = render(corridor7, mast_rig, sample_stride=stride)
        assert maps.depth.shape == maps.hit_kind.shape == shape

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
        kind = {"sigma_bins": "gaussian_bin_blur", "bias_m": "bias"}[field]
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            NoiseModel.from_json_dict({"kind": kind, field: bad})

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "one_hot_truth", "sigma_bins": 2.0}, "sigma_bins"),
        ({"kind": "bias", "bias_m": 0.1, "sigma_bins": 2.0}, "sigma_bins"),
        ({"kind": "one_hot_truth", "bias_m": 0.1}, "bias_m"),
        ({"kind": "gaussian_bin_blur", "sigma_bins": 1.0, "bias_m": 0.1}, "bias_m"),
    ])
    def test_rejects_field_its_kind_never_reads(self, doc, field):
        with pytest.raises(ConfigError, match=f"^{field} is read only by"):
            NoiseModel.from_json_dict(doc)

    @pytest.mark.parametrize("kind, field", [("gaussian_bin_blur", "sigma_bins"), ("bias", "bias_m")])
    def test_field_of_the_kind_is_required(self, kind, field):
        with pytest.raises(ConfigError, match=f"^{field} must be a number, got None"):
            NoiseModel(kind)

    def test_json_round_trip(self):
        noise = NoiseModel("bias", bias_m=0.05)
        assert asdict(noise) == {"kind": "bias", "sigma_bins": None, "bias_m": 0.05}
        assert NoiseModel.from_json_dict(asdict(noise)) == noise


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

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 3.7])
    def test_blur_rows_match_per_cell_gaussian(self, sigma):
        # range_min, an interior value and range_max: true bins 0, 6 and 11
        bins = BinSpec("UD", 12, 0.0, 1.2)
        values = np.array([[0.0, 0.65, 1.2]])
        maps = PixelMaps(3, 1, values, values, np.full((1, 3), HIT_GROUND))
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=sigma)
        true_bins = value_to_bin(values[0], bins)
        assert true_bins.tolist() == [0, 6, 11]
        offsets = np.arange(bins.n_bins, dtype=np.float64)
        for predict in (predict_height_distribution, predict_depth_distribution):
            dist = predict(maps, bins, noise)
            for c, true_bin in enumerate(true_bins):
                expected = np.exp(-((offsets - true_bin) ** 2) / (2.0 * sigma**2))
                expected /= expected.sum()
                np.testing.assert_array_equal(dist.data[0, c], expected)

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


# Noise models of every kind; the blur at two widths.
NOISE_MODELS = [
    NoiseModel("one_hot_truth"),
    NoiseModel("gaussian_bin_blur", sigma_bins=1.0),
    NoiseModel("gaussian_bin_blur", sigma_bins=3.7),
    NoiseModel("bias", bias_m=0.1),
]


class TestFactoredPrediction:
    """A predicted map is its noise table plus a uniform row, indexed per
    cell; read densely it is the old per-cell gather, byte for byte."""

    BINS = (BinSpec("DID", 90, -0.2, 3.6, 1.2), BinSpec("DEPTH_UD", 206, 1.0, 104.0))

    @pytest.mark.parametrize("n_bins", [90, 206])
    @pytest.mark.parametrize("sigma", [1.0, 3.7])
    def test_noise_table_equals_the_pairwise_kernel(self, n_bins, sigma):
        offsets = np.arange(n_bins, dtype=np.float64)
        table = np.exp(-((offsets[None, :] - offsets[:, None]) ** 2) / (2.0 * sigma**2))
        table /= table.sum(axis=1, keepdims=True)
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=sigma)
        got = _noise_table(BinSpec("UD", n_bins, 0.0, 1.0), noise)
        assert got.tobytes() == table.tobytes()

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=lambda n: f"{n.kind}-{n.sigma_bins}")
    def test_data_is_the_dense_gather_with_uniform_sky_rows(self, mast_rig, corridor7, noise):
        maps = render(corridor7, mast_rig, 32)
        assert maps.non_sky.any() and not maps.non_sky.all()
        for predict, values, bins in ((predict_height_distribution, maps.height_above_ground,
                                       self.BINS[0]),
                                      (predict_depth_distribution, maps.depth, self.BINS[1])):
            dist = predict(maps, bins, noise)
            dense = _noise_table(bins, noise)[_true_bin_map(values, maps.non_sky, bins, noise)]
            dense[~maps.non_sky] = 1.0 / bins.n_bins
            assert dist.data.tobytes() == dense.tobytes()
            assert dist.data.shape == (maps.height, maps.width, bins.n_bins)
            assert not dist.data.flags.writeable
            assert dist.table.shape == (bins.n_bins + 1, bins.n_bins)
            assert dist.cell_weight.tobytes() == maps.non_sky.astype(np.float64).tobytes()

    @pytest.mark.parametrize("noise", NOISE_MODELS, ids=lambda n: f"{n.kind}-{n.sigma_bins}")
    def test_equal_bins_and_noise_share_one_read_only_table(self, mast_rig, corridor7, noise):
        maps = render(corridor7, mast_rig, 32)
        for predict, values, bins in ((predict_height_distribution, maps.height_above_ground,
                                       self.BINS[0]),
                                      (predict_depth_distribution, maps.depth, self.BINS[1])):
            # equal specs built anew each time, as each config load builds them
            dists = [predict(maps, BinSpec(**asdict(bins)), NoiseModel(**asdict(noise)))
                     for _ in range(3)]
            table = dists[0].table
            assert all(dist.table is table for dist in dists)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 0.0
            # the rows the map held before it shared its table, gathered per cell
            rows = _true_bin_map(values, maps.non_sky, bins, noise)
            rows[~maps.non_sky] = bins.n_bins
            own = np.vstack([_noise_table(bins, noise), np.full(bins.n_bins, 1.0 / bins.n_bins)])
            for dist in dists:
                assert dist.data.tobytes() == own[rows].tobytes()
        other = predict_height_distribution(maps, self.BINS[0],
                                            NoiseModel("gaussian_bin_blur", sigma_bins=2.5))
        assert other.table is not table and other.table is not dists[0].table

    def test_bin_rule_runs_over_the_table_rows_only(self, monkeypatch, mast_rig, corridor7):
        seen, check = [], lifting._check_bin_weights

        def spy(data):
            seen.append(data.shape)
            check(data)

        monkeypatch.setattr(lifting, "_check_bin_weights", spy)
        maps = render(corridor7, mast_rig, 32)
        for predict, bins in zip((predict_height_distribution, predict_depth_distribution),
                                 self.BINS):
            seen.clear()
            predict(maps, bins, NoiseModel("gaussian_bin_blur", sigma_bins=1.0))
            assert seen == [(bins.n_bins + 1, bins.n_bins)]
            assert maps.width * maps.height > bins.n_bins + 1
