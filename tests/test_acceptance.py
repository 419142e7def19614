"""End-to-end acceptance gate.

Ten checks, one per release claim: exactness of the height lift, agreement
of the two lift parameterizations, discretization tiling, pooling
conservation and reproducibility, disturbance invariance of heights,
scatter-overlap ordering, the range-error lever law, pseudo-point
economy, disturbed localization ordering, and CLI byte stability.

Each test finishes with a single "[PASS]" line carrying its measured
margin; run pytest with -s to see them on success.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    EXPERIMENT_DEPTH_BINS,
    EXPERIMENT_HEIGHT_BINS,
    EXPERIMENT_NOISE,
    EXPERIMENT_STRIDE,
    ROOT,
)
from bevlift.bevpool import GridSpec, pool
from bevlift.binning import BinSpec, bin_edges, value_to_bin
from bevlift.cli import main
from bevlift.errors import PipelineError
from bevlift.geometry import (
    CameraRig,
    Intrinsics,
    extrinsics_from_pose,
    pixel_to_ref_cam,
    project_ego,
)
from bevlift.lifting import (
    ContextMap,
    DistributionMap,
    build_wedge,
    build_wedge_depth,
    fuse,
    lift_many_depth,
    lift_many_height,
    lift_pixel_height,
    lift_pixel_height_composed,
)
from bevlift.robustness import (
    height_error_law,
    localization_error,
    matched_surface_points,
    perturb_rig,
    simulate_range_bias,
)
from bevlift.scene import render
from strategies import points_cloud


def test_height_lift_hits_requested_height_on_the_pixel_ray():
    """1000 random (rig, pixel, height) cases: the lifted point sits at the
    requested ego height, on the pixel's ray, and the one-matrix form of
    the lift agrees with the stepwise one, all inside one second."""
    rng = np.random.default_rng(0)
    rig = None
    t0 = time.perf_counter()
    n_ok = 0
    attempts = 0
    worst_z = worst_ray = worst_form = 0.0
    while n_ok < 1000:
        attempts += 1
        assert attempts < 20000, "rejection rate far above design"
        if attempts % 20 == 1:
            intr = Intrinsics(
                rng.uniform(400, 1200), rng.uniform(400, 1200),
                rng.uniform(0.4, 0.6) * 1536, rng.uniform(0.4, 0.6) * 864,
                1536, 864,
            )
            extr = extrinsics_from_pose(
                [rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(2, 20)],
                yaw_deg=rng.uniform(0, 360),
                pitch_deg=rng.uniform(8, 50),
                roll_deg=rng.uniform(-10, 10),
            )
            rig = CameraRig(intr, extr)
        u = rng.uniform(0, rig.intrinsics.image_w - 1)
        v = rng.uniform(0, rig.intrinsics.image_h - 1)
        h = rng.uniform(0.0, 0.5 * rig.ground_height_H)
        try:
            p = lift_pixel_height(u, v, h, rig)
        except PipelineError:
            continue  # skyward pixel for this rig, draw again
        cam = rig.extrinsics.rotation @ p + rig.extrinsics.translation
        if cam[2] > 500:
            continue  # keep ranges where 1e-9 is a meaningful bound
        resid = float(np.linalg.norm(cam - cam[2] * pixel_to_ref_cam(u, v, rig.intrinsics)))
        p2 = lift_pixel_height_composed(u, v, h, rig)
        form = float(np.max(np.abs(p - p2))) / max(1.0, float(np.max(np.abs(p))))
        worst_z = max(worst_z, abs(float(p[2]) - h))
        worst_ray = max(worst_ray, resid)
        worst_form = max(worst_form, form)
        assert abs(float(p[2]) - h) < 1e-9
        assert resid < 1e-9
        assert form < 1e-12
        n_ok += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[PASS] height lift exact: 1000 cases in {elapsed:.3f}s, "
          f"worst height {worst_z:.2e}, ray {worst_ray:.2e}, form gap {worst_form:.2e}")


def test_height_and_depth_lifts_meet_on_every_surface_pixel(corridor7, mast_rig):
    """Full-resolution render: lifting each non-sky pixel at its true
    height and at its true depth lands on the same 3D point."""
    t0 = time.perf_counter()
    maps = render(corridor7, mast_rig, 1)
    mask = maps.non_sky
    uu, vv = maps.pixel_grid()
    us, vs = uu[mask], vv[mask]
    pts_h = lift_many_height(us, vs, maps.height_above_ground[mask], mast_rig)
    pts_d = lift_many_depth(us, vs, maps.depth[mask], mast_rig)
    gap = float(np.max(np.linalg.norm(pts_h - pts_d, axis=1)))
    elapsed = time.perf_counter() - t0
    assert us.size > 500_000, "scene should fill a large part of the frame"
    assert gap <= 1e-6
    assert elapsed < 10.0
    print(f"[PASS] lift agreement: {us.size} surface pixels, "
          f"max gap {gap:.2e} m in {elapsed:.1f}s")


def test_discretization_tiles_the_range_and_concentrates_near_min():
    """Power-curve binning degenerates to uniform at alpha 1, tiles its
    range with no gaps or overlaps at 1e-4 resolution, and squeezes the
    first bin harder as alpha grows."""
    did1 = BinSpec("DID", 90, -1.0, 1.0, 1.0)
    ud = BinSpec("UD", 90, -1.0, 1.0)
    assert float(np.max(np.abs(bin_edges(did1) - bin_edges(ud)))) <= 1e-12

    specs = [
        ud,
        BinSpec("DID", 90, -1.0, 1.0, 1.5),
        BinSpec("DID", 90, -1.0, 1.0, 2.0),
        EXPERIMENT_HEIGHT_BINS,
    ]
    for spec in specs:
        edges = bin_edges(spec)
        assert abs(edges[0] - spec.range_min) <= 1e-12
        assert abs(edges[-1] - spec.range_max) <= 1e-12
        values = np.append(
            np.arange(spec.range_min, spec.range_max, 1e-4), spec.range_max
        )
        idx = value_to_bin(values, spec)  # raises on any uncovered value
        steps = np.diff(idx)
        assert idx[0] == 0 and idx[-1] == spec.n_bins - 1
        assert steps.min() >= 0 and steps.max() <= 1  # no overlap, no gap
        assert np.unique(idx).size == spec.n_bins

    widths = [
        float(np.diff(bin_edges(BinSpec("DID", 90, -1.0, 1.0, a)))[0])
        for a in (1.0, 1.5, 2.0)
    ]
    assert widths[0] > widths[1] > widths[2]
    print(f"[PASS] discretization: alpha-1 == uniform, 4 specs tile at 1e-4, "
          f"first widths {widths[0]:.4f} > {widths[1]:.4f} > {widths[2]:.4f}")


def test_pooling_conserves_mass_linearly_and_bit_exactly():
    rng = np.random.default_rng(11)
    spec = GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, 4)
    n = 10_000
    pos = np.column_stack([
        rng.uniform(0.1, 102.3, n),
        rng.uniform(-51.1, 51.1, n),
        rng.uniform(-1.0, 3.0, n),
    ])
    feats = np.abs(rng.standard_normal((n, 4))) + 0.1
    w1 = rng.uniform(0.0, 2.0, n)
    w2 = rng.uniform(0.0, 2.0, n)

    def grid_of(w):
        return pool(points_cloud(pos, feats, w), spec).data

    g1, g2, g12 = grid_of(w1), grid_of(w2), grid_of(w1 + w2)
    total = g1.sum(axis=(0, 1))
    expect = (w1[:, None] * feats).sum(axis=0)
    cons = float(np.max(np.abs(total - expect) / expect))
    lin = float(np.max(np.abs(g12 - (g1 + g2))) / np.max(np.abs(g12)))
    assert cons <= 1e-6
    assert lin <= 1e-6
    ref = g1.tobytes()
    for _ in range(2):
        assert grid_of(w1).tobytes() == ref
    print(f"[PASS] pooling: conservation {cons:.2e}, linearity {lin:.2e}, "
          f"bit-exact over 3 runs on {n} points")


def test_pitch_disturbance_moves_depths_but_not_heights(corridor7, mast_rig):
    """One degree of pitch changes every matched point's depth but none of
    its heights beyond rounding."""
    t0 = time.perf_counter()
    tilted = perturb_rig(mast_rig, 0.0, 1.0)
    m = matched_surface_points(corridor7, mast_rig, tilted, sample_stride=8)
    elapsed = time.perf_counter() - t0
    dh = np.abs(m.height_b - m.height_a)
    dd = np.abs(m.depth_b - m.depth_a)
    moved = float(np.mean(dd > 0.0))
    assert m.height_a.size > 5000
    assert float(dh.max()) <= 1e-6
    assert moved >= 0.99
    assert elapsed < 10.0
    print(f"[PASS] pitch invariance: {m.height_a.size} matched points, "
          f"max height shift {dh.max():.2e} m, depths moved {moved:.1%}, "
          f"{elapsed:.1f}s")


def test_height_scatter_outlasts_disturbance_in_nearly_all_trials(request):
    """Across 100 sampled roll/pitch disturbances the height scatter stays
    closer to the clean one than the depth scatter in at least 95."""
    t0 = time.perf_counter()
    report = request.getfixturevalue("overlap_seed7")
    elapsed = time.perf_counter() - t0
    n = report.trial_overlap_height.size
    assert n == 100
    assert report.height_wins >= 95
    assert elapsed < 120.0
    print(f"[PASS] scatter overlap: height wins {report.height_wins}/{n} "
          f"(mean {report.overlap_height:.3f} vs {report.overlap_depth:.3f}) "
          f"in {elapsed:.1f}s")


def test_range_bias_follows_the_lever_law_and_worsens_for_low_cameras():
    """Simulated ground-range error under a height bias matches
    d*dh/(H-h) to 1e-6 relative over a 500-case matrix, and a camera at
    3.14 m always errs more than one at 5 m for the same case."""
    intr = Intrinsics(700.0, 700.0, 768.0, 432.0, 1536, 864)
    rigs = {
        3.14: CameraRig(intr, extrinsics_from_pose([0, 0, 3.14], pitch_deg=20)),
        5.0: CameraRig(intr, extrinsics_from_pose([0, 0, 5.0], pitch_deg=20)),
    }
    ds = [4.5, 6.0, 9.0, 13.0, 18.0, 25.0, 32.0, 40.0, 50.0, 60.0]
    hs = [0.0, 0.25, 0.6, 1.0, 1.4]
    dhs = [-0.15, -0.1, -0.05, -0.02, -0.01, 0.02, 0.05, 0.1, 0.15, 0.25]
    worst_rel = 0.0
    n_cases = 0
    for d in ds:
        for h in hs:
            by_h = {}
            for H, rig in rigs.items():
                pt = np.array([[d, 0.0, h]])
                u, v, _, vis = project_ego(pt, rig.intrinsics, rig.extrinsics)
                assert vis[0], "case grid must stay inside both frusta"
                for dh in dhs:
                    d_true, sim = simulate_range_bias(
                        rig, float(u[0]), float(v[0]), h, dh
                    )
                    assert abs(d_true - d) <= 1e-6  # same lever arm for both rigs
                    law = height_error_law(d, dh, H, h)
                    worst_rel = max(worst_rel, abs(sim - law) / abs(law))
                    by_h.setdefault(dh, {})[H] = abs(law)
            for dh in dhs:
                n_cases += 1
                assert by_h[dh][3.14] > by_h[dh][5.0]
    assert n_cases == 500
    assert worst_rel <= 1e-6
    print(f"[PASS] lever law: 500 cases, worst relative gap {worst_rel:.2e}, "
          f"low camera always worse")


def test_height_path_emits_fewer_points_and_benches_faster(mast_rig, tmp_path):
    """At the operating bin counts (90 height vs 206 depth hypotheses) the
    height path emits under 90/206 of the depth path's points and wins
    the lift+pool wall-time comparison on a predicted frame of the
    committed corridor."""
    stride = 8
    w = mast_rig.intrinsics.image_w // stride
    hgt = mast_rig.intrinsics.image_h // stride
    hb = BinSpec("DID", 90, -0.2, 3.6, 1.2)
    db = BinSpec("DEPTH_UD", 206, 1.0, 104.0)
    ctx = ContextMap(w, hgt, 2, np.zeros((hgt, w, 2)))
    rows, cell_weight = np.zeros((hgt, w), dtype=int), np.ones((hgt, w))
    dh = DistributionMap(w, hgt, 90, np.full((1, 90), 1.0 / 90), cell_weight, rows)
    dd = DistributionMap(w, hgt, 206, np.full((1, 206), 1.0 / 206), cell_weight, rows)
    cloud_h = build_wedge(fuse(ctx, dh), hb, mast_rig, stride)
    cloud_d = build_wedge_depth(fuse(ctx, dd), db, mast_rig, stride)
    ratio = cloud_h.n_points / cloud_d.n_points
    assert cloud_d.n_points == w * hgt * 206
    assert ratio < 90 / 206 + 1e-9

    cfg = {
        "rig": json.loads((ROOT / "configs" / "rig_default.json").read_text()),
        "scene": json.loads((ROOT / "configs" / "scenes" / "corridor_seed7.json").read_text()),
        "height_bins": {"strategy": "DID", "n_bins": 90, "range_min": -0.2,
                        "range_max": 3.6, "alpha": 1.2},
        "depth_bins": {"strategy": "DEPTH_UD", "n_bins": 206, "range_min": 1.0,
                       "range_max": 104.0},
        "sample_stride": stride,
        "context_channels": 2,
        "bev_grid": {"channels": 2},
        "bench_repeats": 3,
        "seed": 0,
    }
    cpath = tmp_path / "bench.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["bench", "--config", str(cpath), "--out", str(out)]) == 0
    rep = json.loads((out / "bench.json").read_text())
    t_h = rep["height"]["lift_seconds"] + rep["height"]["pool_seconds"]
    t_d = rep["depth"]["lift_seconds"] + rep["depth"]["pool_seconds"]
    assert rep["height"]["n_points"] == cloud_h.n_points
    assert t_h < t_d
    print(f"[PASS] point economy: ratio {ratio:.3f} < {90 / 206:.3f}, "
          f"lift+pool {t_h:.3f}s vs {t_d:.3f}s")


def test_disturbed_height_medians_beat_depth_on_all_scenes(
    request, mast_rig, intersection11, corridor13, experiment_trials
):
    """Under noisy truth-conditioned predictions and roll+pitch
    disturbance, median localization error of the height path stays below
    the depth path's on every committed scene."""
    reports = {"corridor7": request.getfixturevalue("disturbed_errors_seed7")}
    for name, scene in (("intersection11", intersection11),
                        ("corridor13", corridor13)):
        reports[name] = localization_error(
            scene, mast_rig,
            EXPERIMENT_HEIGHT_BINS, EXPERIMENT_DEPTH_BINS, EXPERIMENT_NOISE,
            experiment_trials, EXPERIMENT_STRIDE,
        )
    margins = []
    for name, report in reports.items():
        s = report.summary()
        med_h, med_d = s["height"]["median_m"], s["depth"]["median_m"]
        assert med_h < med_d, name
        margins.append(f"{name} {med_h:.4f}<{med_d:.4f}")
    print(f"[PASS] disturbed medians: {', '.join(margins)}")


def test_cli_outputs_are_byte_stable_across_runs(tmp_path):
    """Three runs of every command write byte-identical
    CSV artifacts."""
    cfg = {
        "rig": json.loads((ROOT / "configs" / "rig_default.json").read_text()),
        "scene": {
            "extent": {"x_min": 0.0, "x_max": 98.0, "y_min": -40.0, "y_max": 40.0},
            "boxes": [
                {"x": 12.0, "y": -2.0, "z": 1.25, "l": 5.0, "w": 2.5, "h": 2.5,
                 "theta": 0.0},
                {"x": 25.0, "y": 3.0, "z": 1.0, "l": 4.0, "w": 2.0, "h": 2.0,
                 "theta": 0.3},
            ],
        },
        "height_bins": {"strategy": "DID", "n_bins": 12, "range_min": -0.2,
                        "range_max": 3.6, "alpha": 1.2},
        "depth_bins": {"strategy": "DEPTH_UD", "n_bins": 30, "range_min": 1.0,
                       "range_max": 121.0},
        "noise": {"kind": "gaussian_bin_blur", "sigma_bins": 1.0},
        "disturbance": {"sigma_roll_deg": 1.0, "sigma_pitch_deg": 1.0,
                        "seed": 0, "n_trials": 3},
        "sample_stride": 32,
        "context_channels": 2,
        "bev_grid": {"channels": 2},
        "bench_repeats": 1,
        "seed": 5,
    }
    cpath = tmp_path / "exp.json"
    cpath.write_text(json.dumps(cfg))

    n_csvs = {}
    for command in ("render", "lift", "robustness", "bench"):
        runs = []
        for r in range(3):
            out = tmp_path / command / f"run{r}"
            assert main([command, "--config", str(cpath), "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
        assert runs[0].keys() == runs[1].keys() == runs[2].keys()
        for name in runs[0]:
            assert runs[1][name] == runs[0][name], f"{command}/{name}"
            assert runs[2][name] == runs[0][name], f"{command}/{name}"
        n_csvs[command] = len(runs[0])
    assert n_csvs["render"] >= 3 and n_csvs["lift"] >= 4 and n_csvs["robustness"] >= 3
    total = sum(n_csvs.values())
    print(f"[PASS] determinism: {total} CSV artifacts byte-identical over 3 runs "
          f"of {len(n_csvs)} commands")
