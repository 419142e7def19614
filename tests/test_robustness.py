"""Rig disturbance, scatter overlap, localization error, and error law
tests.  The law has an exact independent check: simulate the biased lift
directly and compare ranges.  The expensive disturbed runs are pinned to
golden files produced by scripts/make_goldens.py.
"""
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bevlift import robustness
from bevlift.binning import BinSpec, bin_midpoints
from bevlift.errors import (
    AboveCamera,
    ConfigError,
    InvalidGeometry,
    NoVisibleObjects,
    OutOfRange,
)
from bevlift.geometry import Box3D, CameraRig, Intrinsics, extrinsics_from_pose
from bevlift.io import error_report_table, table_rows, write_csv
from bevlift.lifting import lift_many_depth, lift_many_height, lift_pixel_height
from bevlift.robustness import (
    DisturbanceSpec,
    OverlapReport,
    disturbance_trials,
    _object_rows,
    height_error_law,
    law_check,
    localization_error,
    matched_surface_points,
    perturb_extrinsics,
    perturb_rig,
    sample_disturbances,
    scatter_overlap,
    simulate_range_bias,
)
from bevlift.scene import (
    NoiseModel,
    Scene,
    _noise_table,
    _true_bin_map,
    predict_depth_distribution,
    predict_height_distribution,
    render,
)
from conftest import (
    EXPERIMENT_DEPTH_BINS,
    EXPERIMENT_HEIGHT_BINS,
    EXPERIMENT_NOISE,
)
from strategies import descending_pixel_st, rig_st

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestDisturbanceSpec:
    def test_json_round_trip(self):
        spec = DisturbanceSpec(1.67, 0.8, seed=5, n_trials=20)
        assert DisturbanceSpec.from_json_dict(asdict(spec)) == spec

    @pytest.mark.parametrize("field", ["sigma_roll_deg", "sigma_pitch_deg"])
    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf, -np.inf])
    def test_rejects_negative_sigma(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            DisturbanceSpec(**{field: bad})

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigError):
            DisturbanceSpec(1.0, 1.0, n_trials=0)


class TestPerturb:
    @given(rig_st(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_rotation_stays_orthonormal(self, rig, roll, pitch):
        extr = perturb_extrinsics(rig.extrinsics, roll, pitch)
        rot = extr.rotation
        assert np.max(np.abs(rot @ rot.T - np.eye(3))) <= 1e-9
        assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    @given(rig_st(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_camera_center_is_fixed(self, rig, roll, pitch):
        extr = perturb_extrinsics(rig.extrinsics, roll, pitch)
        np.testing.assert_allclose(
            extr.camera_center, rig.extrinsics.camera_center, atol=1e-9
        )

    def test_zero_disturbance_is_identity(self, mast_rig):
        extr = perturb_extrinsics(mast_rig.extrinsics, 0.0, 0.0)
        assert np.array_equal(extr.rotation, mast_rig.extrinsics.rotation)
        assert np.array_equal(extr.translation, mast_rig.extrinsics.translation)

    def test_single_axis_perturbations_invert(self, mast_rig):
        back = perturb_extrinsics(
            perturb_extrinsics(mast_rig.extrinsics, 2.0, 0.0), -2.0, 0.0
        )
        assert np.max(np.abs(back.rotation - mast_rig.extrinsics.rotation)) <= 1e-12
        back = perturb_extrinsics(
            perturb_extrinsics(mast_rig.extrinsics, 0.0, 2.0), 0.0, -2.0
        )
        assert np.max(np.abs(back.rotation - mast_rig.extrinsics.rotation)) <= 1e-12

    def test_pitch_moves_optical_axis_by_its_angle(self, mast_rig):
        extr = perturb_extrinsics(mast_rig.extrinsics, 0.0, 1.5)
        cos_angle = extr.rotation[2] @ mast_rig.extrinsics.rotation[2]
        assert np.rad2deg(np.arccos(np.clip(cos_angle, -1, 1))) == pytest.approx(
            1.5, abs=1e-9
        )

    def test_roll_leaves_optical_axis_alone(self, mast_rig):
        extr = perturb_extrinsics(mast_rig.extrinsics, 3.0, 0.0)
        np.testing.assert_allclose(
            extr.rotation[2], mast_rig.extrinsics.rotation[2], atol=1e-12
        )

    def test_perturb_rig_keeps_height_and_tags_id(self, mast_rig):
        rigged = perturb_rig(mast_rig, 1.0, -1.0)
        assert rigged.ground_height_H == pytest.approx(
            mast_rig.ground_height_H, abs=1e-12
        )
        assert rigged.rig_id.endswith("-perturbed")
        assert not np.array_equal(rigged.t_cam_virt, mast_rig.t_cam_virt)


class TestSampleDisturbances:
    def test_shape(self):
        angles = sample_disturbances(DisturbanceSpec(1.0, 1.0, seed=3, n_trials=7))
        assert angles.shape == (7, 2)

    def test_zero_sigma_gives_zero_angles(self):
        angles = sample_disturbances(DisturbanceSpec(0.0, 0.0, seed=3, n_trials=5))
        assert np.array_equal(angles, np.zeros((5, 2)))

    def test_deterministic(self):
        spec = DisturbanceSpec(1.67, 1.67, seed=9, n_trials=12)
        assert np.array_equal(sample_disturbances(spec), sample_disturbances(spec))

    def test_prefix_stable_in_trial_count(self):
        # per-trial substreams: growing the plan must not move old trials
        short = sample_disturbances(DisturbanceSpec(1.67, 1.67, seed=4, n_trials=10))
        long = sample_disturbances(DisturbanceSpec(1.67, 1.67, seed=4, n_trials=50))
        assert np.array_equal(long[:10], short)

    def test_sample_statistics(self):
        angles = sample_disturbances(DisturbanceSpec(1.67, 1.67, seed=42, n_trials=10000))
        assert abs(angles[:, 0].std() - 1.67) < 0.05
        assert abs(angles[:, 1].std() - 1.67) < 0.05
        assert abs(angles.mean()) < 0.05


class TestScatterOverlap:
    def test_zero_disturbance_overlaps_are_total(self, corridor7, mast_rig):
        trials = disturbance_trials(mast_rig, DisturbanceSpec(0.0, 0.0, n_trials=3))
        report = scatter_overlap(corridor7, mast_rig, trials, sample_stride=32)
        # the summed fractions only miss 1.0 by accumulation rounding
        np.testing.assert_allclose(report.trial_overlap_depth, 1.0, atol=1e-12)
        np.testing.assert_allclose(report.trial_overlap_height, 1.0, atol=1e-12)

    def test_height_wins_counts_strict_trials(self):
        report = OverlapReport(
            overlap_depth=0.5,
            overlap_height=0.6,
            n_points=10,
            sample_stride=16,
            trial_overlap_depth=np.array([0.5, 0.5, 0.7]),
            trial_overlap_height=np.array([0.6, 0.5, 0.9]),
        )
        assert report.height_wins == 2

    def test_empty_render_raises(self, mast_rig):
        # extent fully behind the camera: every ray is sky
        empty = Scene((), (-50.0, -40.0, -5.0, 5.0), 0)
        with pytest.raises(NoVisibleObjects):
            scatter_overlap(empty, mast_rig,
                            disturbance_trials(mast_rig, DisturbanceSpec(1.0, 1.0, n_trials=2)))

    def test_matches_golden_run(self, overlap_seed7):
        golden = json.loads((GOLDEN / "overlap_seed7.json").read_text())
        assert overlap_seed7.height_wins == golden["height_wins"]
        assert overlap_seed7.n_points == golden["n_points"]
        assert overlap_seed7.overlap_depth == golden["overlap_depth"]
        assert overlap_seed7.overlap_height == golden["overlap_height"]


class TestHeightErrorLaw:
    def test_frozen_value(self):
        # 10 m out, 0.1 m bias, camera 5 m up, ground point: 0.2 m
        assert height_error_law(10.0, 0.1, 5.0, 0.0) == pytest.approx(0.2, abs=1e-15)

    def test_height_ratio_between_rigs_is_exact(self):
        # same bias seen from 3.14 m vs 5 m: errors scale with 1/(H - h)
        low = height_error_law(20.0, 0.1, 3.14, 0.5)
        high = height_error_law(20.0, 0.1, 5.0, 0.5)
        assert low / high == pytest.approx((5.0 - 0.5) / (3.14 - 0.5), rel=1e-9)

    def test_rejects_camera_not_above(self):
        with pytest.raises(InvalidGeometry):
            height_error_law(10.0, 0.1, 1.0, 1.5)
        with pytest.raises(InvalidGeometry):
            height_error_law(10.0, 0.6, 2.0, 1.5)  # biased height reaches H

    @given(
        st.floats(2.0, 10.0),
        st.floats(0.0, 1.5),
        st.floats(-0.3, 0.3),
        st.floats(5.0, 80.0),
    )
    def test_monotone_decreasing_in_camera_height(self, H, h, dh, d):
        assume(H > h + abs(dh) + 0.2)
        assume(abs(dh) > 1e-6)  # avoid comparing underflowed products
        lower = height_error_law(d, dh, H, h)
        higher = height_error_law(d, dh, H + 1.0, h)
        if dh > 0:
            assert lower > higher
        else:
            assert lower < higher

    def test_zero_bias_means_zero_error(self):
        assert height_error_law(30.0, 0.0, 5.0, 1.0) == 0.0

    @given(rig_st(), st.data(), st.floats(0.0, 1.5), st.floats(-0.3, 0.3))
    def test_law_matches_simulated_lift(self, rig, data, h, dh):
        from bevlift.errors import HorizonRay

        assume(rig.ground_height_H > h + abs(dh) + 0.2)
        u, v = data.draw(descending_pixel_st(rig, margin_px=40.0))
        try:
            d_true, simulated = simulate_range_bias(rig, u, v, h, dh)
        except HorizonRay:
            assume(False)
        predicted = height_error_law(d_true, dh, rig.ground_height_H, h)
        assert simulated == pytest.approx(predicted, rel=1e-6, abs=1e-9)

    def test_array_law_rejects_any_probe_reaching_the_camera(self):
        with pytest.raises(InvalidGeometry):
            height_error_law(np.array([10.0, 10.0]), np.array([0.1, 0.6]), 2.0,
                             np.array([0.5, 1.5]))

    @pytest.mark.parametrize("rig_name", ["mast_rig", "truck_rig"])
    def test_law_check_rows_are_the_per_probe_lifts(self, request, rig_name):
        # Every row has the bits of its probe lifted on its own, in
        # (column, height, bias) order.
        rig = request.getfixturevalue(rig_name)
        intr = rig.intrinsics
        rows = []
        for fu in (0.3, 0.5, 0.8):
            for h in (0.0, 0.5, 1.2):
                for dh in (0.05, 0.1, 0.25):
                    u, v = fu * intr.image_w, 0.85 * intr.image_h
                    p_true = lift_many_height([u], [v], [h], rig)[0]
                    p_bias = lift_many_height([u], [v], [h + dh], rig)[0]
                    cam = rig.camera_center
                    d_true = float(np.hypot(p_true[0] - cam[0], p_true[1] - cam[1]))
                    sim = d_true - float(np.hypot(p_bias[0] - cam[0], p_bias[1] - cam[1]))
                    law = d_true * dh / (rig.ground_height_H - h)
                    rows.append((u, v, h, dh, d_true, law, sim, abs(law - sim)))
        got = np.column_stack(law_check(rig))
        assert got.tobytes() == np.array(rows).tobytes()


@pytest.fixture(scope="module")
def clean_run(corridor7, mast_rig):
    return localization_error(
        corridor7,
        mast_rig,
        EXPERIMENT_HEIGHT_BINS,
        EXPERIMENT_DEPTH_BINS,
        NoiseModel("one_hot_truth"),
        trials=None,
        sample_stride=16,
    )


def object_paths(maps, noise, lifts=(lift_many_height, lift_many_depth)):
    """The (param, lift, true_bin_map, table, mids) paths localization_error
    hands _object_rows for one rendered trial of the committed bins."""
    return tuple(
        (param, lift, _true_bin_map(values, maps.non_sky, bins, noise),
         _noise_table(bins, noise), bin_midpoints(bins))
        for param, lift, values, bins in (
            ("height", lifts[0], maps.height_above_ground, EXPERIMENT_HEIGHT_BINS),
            ("depth", lifts[1], maps.depth, EXPERIMENT_DEPTH_BINS),
        )
    )


def recording(lift, seen):
    """lift, recording the hypotheses it is called with."""
    def wrapped(us, vs, hypotheses, rig):
        seen.append(hypotheses)
        return lift(us, vs, hypotheses, rig)
    return wrapped


class TestLocalizationError:
    def test_row_structure(self, clean_run, corridor7):
        n_rows = len(clean_run.errors_m)
        assert n_rows == len(clean_run.objects) == len(clean_run.parameterizations)
        assert set(clean_run.trials) == {0}
        assert set(clean_run.parameterizations) == {"height", "depth"}
        assert set(clean_run.objects) <= set(range(len(corridor7.boxes)))
        # every visible object contributes exactly one row per path
        h_objs = [
            o for o, p in zip(clean_run.objects, clean_run.parameterizations)
            if p == "height"
        ]
        assert len(h_objs) == len(set(h_objs))
        assert not clean_run.disturbed

    def test_noiseless_depth_error_bounded_by_quantization(self, clean_run, mast_rig):
        # one-hot depth predictions sit at bin midpoints, so each point
        # moves along its ray by at most half a bin width times the ray
        # direction norm (the direction keeps camera z = 1)
        intr = mast_rig.intrinsics
        max_ray_norm = np.sqrt(
            1.0
            + max(intr.cx, intr.image_w - intr.cx) ** 2 / intr.fx**2
            + max(intr.cy, intr.image_h - intr.cy) ** 2 / intr.fy**2
        )
        half_bin = 0.5 * EXPERIMENT_DEPTH_BINS.span / EXPERIMENT_DEPTH_BINS.n_bins
        errs = clean_run.errors_for("depth")
        assert errs.size > 0
        assert np.max(errs) <= half_bin * max_ray_norm + 1e-9

    def test_noiseless_height_error_bounded_by_lever_rule(self, clean_run, mast_rig):
        # height quantization moves a point along its ray by at most
        # (half max bin width) * slant / (H - h); individual surface
        # pixels can sit up to half a box diagonal beyond the object's
        # mean distance, hence the 8 m slack on the lever arm
        from bevlift.binning import bin_edges

        widths = np.diff(bin_edges(EXPERIMENT_HEIGHT_BINS))
        top = EXPERIMENT_HEIGHT_BINS.range_max
        errs = clean_run.errors_for("height")
        dists = np.asarray(clean_run.true_distances_m)[
            np.asarray(clean_run.parameterizations) == "height"
        ]
        bound = 0.5 * widths.max() * (dists + 8.0) / (mast_rig.ground_height_H - top)
        assert np.all(errs <= np.abs(bound) + 1e-9)

    def test_summary_shape(self, clean_run, mast_rig):
        s = clean_run.summary()
        assert s["camera_height_m"] == mast_rig.ground_height_H
        assert s["noise_kind"] == "one_hot_truth"
        for param in ("height", "depth"):
            assert {"n", "mean_m", "median_m", "p90_m"} <= set(s[param])
            assert s[param]["n"] > 0

    def test_depth_bins_must_be_depth(self, corridor7, mast_rig):
        with pytest.raises(ConfigError):
            localization_error(
                corridor7,
                mast_rig,
                EXPERIMENT_HEIGHT_BINS,
                BinSpec("UD", 10, 1.0, 104.0),
                NoiseModel("one_hot_truth"),
            )

    def test_no_boxes_raises(self, mast_rig):
        bare = Scene((), (0.0, 98.0, -40.0, 40.0), 0)
        with pytest.raises(NoVisibleObjects):
            localization_error(
                bare,
                mast_rig,
                EXPERIMENT_HEIGHT_BINS,
                EXPERIMENT_DEPTH_BINS,
                NoiseModel("one_hot_truth"),
            )

    def test_height_bins_reaching_camera_raise(self, corridor7, mast_rig):
        H = mast_rig.ground_height_H
        with pytest.raises(AboveCamera):
            localization_error(
                corridor7,
                mast_rig,
                BinSpec("UD", 20, -0.2, H + 1.0),
                EXPERIMENT_DEPTH_BINS,
                NoiseModel("one_hot_truth"),
            )

    def test_matches_per_bin_weighted_centroid(self, corridor7, mast_rig):
        # Oracle: lift every (pixel, bin) pair and take the bin-weighted
        # centroid, the estimate the lift of the expected hypothesis replaces.
        rig = perturb_rig(mast_rig, 1.2, -0.8)
        maps = render(corridor7, rig, 16)
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=2.5)
        dist_h = predict_height_distribution(maps, EXPERIMENT_HEIGHT_BINS, noise)
        dist_d = predict_depth_distribution(maps, EXPERIMENT_DEPTH_BINS, noise)
        mids_h = bin_midpoints(EXPERIMENT_HEIGHT_BINS)
        mids_d = bin_midpoints(EXPERIMENT_DEPTH_BINS)
        columns = _object_rows(maps, rig, object_paths(maps, noise))
        paths = {
            "height": (lift_many_height, dist_h, mids_h),
            "depth": (lift_many_depth, dist_d, mids_d),
        }
        uu, vv = maps.pixel_grid()
        cam = rig.camera_center
        for k, param, err, d_ref, n_px in zip(*columns):
            lift, dist, mids = paths[param]
            mask = maps.hit_kind == k + 1
            pos = lift(
                np.repeat(uu[mask], mids.size),
                np.repeat(vv[mask], mids.size),
                np.tile(mids, n_px),
                rig,
            ).reshape(n_px, mids.size, 3)
            est = (dist.data[mask][:, :, None] * pos).sum(axis=(0, 1)) / n_px
            assert abs(abs(float(np.linalg.norm(est - cam)) - d_ref) - err) <= 1e-9
        assert set(columns[1]) == {"height", "depth"}

    @pytest.mark.parametrize("noise", [
        NoiseModel("one_hot_truth"),
        NoiseModel("gaussian_bin_blur", sigma_bins=1.0),
        NoiseModel("bias", bias_m=0.03),
    ], ids=lambda noise: noise.kind)
    def test_expected_hypotheses_equal_predicted_maps_exactly(self, corridor7, mast_rig, noise):
        # The hypotheses _object_rows lifts, one batch of every object pixel
        # per parameterization, are the rows of the predicted distribution
        # maps dotted with the bin midpoints, bit for bit.
        rig = perturb_rig(mast_rig, -0.9, 1.4)
        maps = render(corridor7, rig, 16)
        seen_h, seen_d = [], []
        lifts = (recording(lift_many_height, seen_h), recording(lift_many_depth, seen_d))
        objects, *_ = _object_rows(maps, rig, object_paths(maps, noise, lifts))
        assert len(seen_h) == len(seen_d) == 1 and np.unique(objects).size > 5
        on_object = maps.hit_kind > 0
        for seen, predict, bins in (
            (seen_h, predict_height_distribution, EXPERIMENT_HEIGHT_BINS),
            (seen_d, predict_depth_distribution, EXPERIMENT_DEPTH_BINS),
        ):
            want = predict(maps, bins, noise).data[on_object] @ bin_midpoints(bins)
            assert seen[0].dtype == want.dtype
            assert seen[0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("scene_name", ["corridor7", "intersection11", "corridor13"])
    def test_object_reductions_equal_per_object_mean_and_norm(self, request, scene_name,
                                                              mast_rig):
        # An object's centroid is its bincount sum over its pixel count and
        # its distance a per-row dot product: bit for bit the mean and
        # np.linalg.norm of that object's lifted points, 1-pixel objects
        # included.
        scene = request.getfixturevalue(scene_name)
        noise = NoiseModel("gaussian_bin_blur", sigma_bins=1.0)
        single_pixel = 0
        for roll, pitch in ((0.0, 0.0), (-0.9, 1.4), (1.2, -0.8)):
            rig = perturb_rig(mast_rig, roll, pitch)
            maps = render(scene, rig, 16)
            seen_h, seen_d = [], []
            lifts = (recording(lift_many_height, seen_h), recording(lift_many_depth, seen_d))
            columns = _object_rows(maps, rig, object_paths(maps, noise, lifts))
            on_object = maps.hit_kind > 0
            uu, vv = maps.pixel_grid()
            us, vs = uu[on_object], vv[on_object]
            kind = maps.hit_kind[on_object]
            points = {
                "reference": lift_many_depth(us, vs, maps.depth[on_object], rig),
                "height": lift_many_height(us, vs, seen_h[0], rig),
                "depth": lift_many_depth(us, vs, seen_d[0], rig),
            }

            def distance(source, k):
                centroid = points[source][kind == k + 1].mean(axis=0)
                return float(np.linalg.norm(centroid - rig.camera_center))

            for k, param, err, d_ref, n_px in zip(*columns):
                assert n_px == np.count_nonzero(kind == k + 1)
                assert d_ref == distance("reference", k)
                assert err == abs(distance(param, k) - d_ref)
                single_pixel += n_px == 1
        assert single_pixel > 0

    def test_a_trial_lifts_three_times_and_skips_when_nothing_is_visible(
        self, monkeypatch, mast_rig
    ):
        # A small box at the bottom edge of the image: some disturbed
        # trials see it and some do not.  Every trial lifts its object
        # pixels once per parameterization plus once at the rendered
        # depths, and a trial that sees no object adds no row.
        intr = mast_rig.intrinsics
        x_edge = lift_pixel_height(intr.cx, intr.image_h, 0.0, mast_rig)[0]
        scene = Scene((Box3D(x_edge - 0.3, 0.0, 0.1, 0.4, 0.4, 0.2, 0.0),),
                      (0.0, 98.0, -40.0, 40.0), 0)
        spec = DisturbanceSpec(1.67, 1.67, seed=0, n_trials=6)
        seen = []
        monkeypatch.setattr(robustness, "lift_many_height", recording(lift_many_height, seen))
        monkeypatch.setattr(robustness, "lift_many_depth", recording(lift_many_depth, seen))
        report = localization_error(scene, mast_rig, EXPERIMENT_HEIGHT_BINS,
                                    EXPERIMENT_DEPTH_BINS, EXPERIMENT_NOISE,
                                    disturbance_trials(mast_rig, spec), 16)
        assert len(seen) == 3 * spec.n_trials
        visible = [
            np.count_nonzero(render(scene, perturb_rig(mast_rig, roll, pitch), 16).hit_kind > 0)
            for roll, pitch in sample_disturbances(spec)
        ]
        assert 0 < visible.count(0) < spec.n_trials
        assert [h.size for h in seen] == np.repeat(visible, 3).tolist()
        trials = [t for t, n in enumerate(visible) if n]
        np.testing.assert_array_equal(report.trials, np.repeat(trials, 2))
        np.testing.assert_array_equal(report.objects, np.zeros(2 * len(trials), dtype=int))
        np.testing.assert_array_equal(report.parameterizations,
                                      ["height", "depth"] * len(trials))
        np.testing.assert_array_equal(report.n_pixels,
                                      np.repeat([visible[t] for t in trials], 2))

    def test_a_scene_without_boxes_gives_empty_columns(self, mast_rig):
        bare = Scene((), (0.0, 98.0, -40.0, 40.0), 0)
        maps = render(bare, mast_rig, 16)
        columns = _object_rows(maps, mast_rig, object_paths(maps, NoiseModel("one_hot_truth")))
        assert [c.size for c in columns] == [0] * 5
        assert [c.dtype.kind for c in columns] == ["i", "U", "f", "f", "i"]

    def test_ground_pixel_out_of_range_raises(self, mast_rig):
        # Depth bins that cover every object pixel but not the far ground:
        # the trial must still fail, as predicting the full map would.
        near = Scene(
            (Box3D(20.0, 0.0, 1.0, 4.0, 2.0, 2.0, 0.0), Box3D(26.0, 3.0, 1.0, 4.0, 2.0, 2.0, 0.3)),
            (0.0, 98.0, -40.0, 40.0),
            0,
        )
        maps = render(near, mast_rig, 16)
        on_box = maps.hit_kind > 0
        ground = maps.hit_kind == 0
        box_far = maps.depth[on_box].max()
        ground_far = maps.depth[ground].max()
        assert ground_far > box_far + 2.0
        assert min(maps.depth[maps.non_sky].min(), 1.0) == 1.0
        depth_bins = BinSpec("DEPTH_UD", 50, 1.0, box_far + 1.0)
        with pytest.raises(OutOfRange):
            localization_error(
                near, mast_rig, EXPERIMENT_HEIGHT_BINS, depth_bins,
                NoiseModel("one_hot_truth"), sample_stride=16,
            )

    def test_disturbed_run_matches_golden_table(self, disturbed_errors_seed7, tmp_path):
        header, columns = error_report_table(disturbed_errors_seed7)
        fresh = tmp_path / "errors.csv"
        write_csv(fresh, header, table_rows(columns))
        assert fresh.read_bytes() == (GOLDEN / "errors_seed7.csv").read_bytes()


class TestMatchedSurfacePoints:
    def test_same_rig_matches_itself(self, corridor7, mast_rig):
        m = matched_surface_points(corridor7, mast_rig, mast_rig, sample_stride=32)
        assert m.n_candidates > 200
        assert m.height_a.size > 200
        np.testing.assert_allclose(m.depth_a, m.depth_b, atol=1e-6)
        np.testing.assert_allclose(m.height_a, m.height_b, atol=1e-6)

    def test_rotated_rig_changes_depths_not_heights(self, corridor7, mast_rig):
        tilted = perturb_rig(mast_rig, 0.0, 1.0)
        m = matched_surface_points(corridor7, mast_rig, tilted, sample_stride=32)
        assert m.height_a.size > 200
        assert np.max(np.abs(m.height_a - m.height_b)) <= 1e-6
        changed = np.abs(m.depth_a - m.depth_b)
        assert np.count_nonzero(changed > 1e-9) / changed.size >= 0.99
        assert np.median(changed) > 1e-3
