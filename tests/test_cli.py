"""Command-line interface tests: config resolution, exit codes, artifact
formats, and run-to-run determinism on a deliberately tiny workload."""
import json
from pathlib import Path

import numpy as np
import pytest

from bevlift.cli import config_hash, load_config, main
from bevlift.errors import ConfigError
from bevlift.io import read_csv, read_json, read_tensor

ROOT = Path(__file__).resolve().parent.parent

RIG_DOC = json.loads((ROOT / "configs" / "rig_default.json").read_text())

BASE_CONFIG = {
    "rig": RIG_DOC,
    "scene": {"template": "corridor", "n_boxes": 4, "seed": 3},
    "height_bins": {"strategy": "DID", "n_bins": 12, "range_min": -0.2,
                    "range_max": 3.6, "alpha": 1.2},
    "depth_bins": {"strategy": "DEPTH_UD", "n_bins": 30, "range_min": 1.0,
                   "range_max": 121.0},
    "noise": {"kind": "gaussian_bin_blur", "sigma_bins": 1.0},
    "disturbance": {"sigma_roll_deg": 1.0, "sigma_pitch_deg": 1.0,
                    "seed": 0, "n_trials": 2},
    "sample_stride": 64,
    "context_channels": 2,
    "bev_grid": {"channels": 2},
    "seed": 5,
}


CLOSE_BOXES_SCENE = {
    "extent": {"x_min": 0.0, "x_max": 98.0, "y_min": -40.0, "y_max": 40.0},
    "boxes": [
        {"x": 12.0, "y": -2.0, "z": 1.25, "l": 5.0, "w": 2.5, "h": 2.5, "theta": 0.0},
        {"x": 25.0, "y": 3.0, "z": 1.0, "l": 4.0, "w": 2.0, "h": 2.0, "theta": 0.3},
    ],
}


def write_config(tmp_path, name="exp.json", **overrides):
    doc = {**BASE_CONFIG, **overrides}
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


class TestLoadConfig:
    def test_resolves_inline_config(self, tmp_path):
        cfg, digest, seed = load_config(write_config(tmp_path))
        assert seed == 5
        assert cfg.rig.ground_height_H == pytest.approx(10.0)
        assert cfg.scene is not None and len(cfg.scene.boxes) == 4
        assert cfg.height_bins.n_bins == 12
        assert cfg.sample_stride == 64
        assert len(digest) == 12

    def test_seed_override_wins(self, tmp_path):
        _, _, seed = load_config(write_config(tmp_path), seed_override=99)
        assert seed == 99

    def test_seed_defaults_to_zero(self, tmp_path):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        del doc["seed"]
        path.write_text(json.dumps(doc))
        _, _, seed = load_config(path)
        assert seed == 0

    def test_scene_seed_falls_back_to_run_seed(self, tmp_path):
        path = write_config(
            tmp_path, scene={"template": "corridor", "n_boxes": 4}
        )
        cfg, _, _ = load_config(path)
        assert cfg.scene.rng_seed == 5
        cfg99, _, _ = load_config(path, seed_override=99)
        assert cfg99.scene.rng_seed == 99

    def test_hash_is_stable(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.json"))[1]
        b = load_config(write_config(tmp_path, name="b.json"))[1]
        assert a == b

    def test_hash_tracks_content_not_filenames(self, tmp_path):
        # the same rig document under two different file names hashes
        # identically once resolved, but edits to the content show up
        (tmp_path / "r1.json").write_text(json.dumps(RIG_DOC))
        (tmp_path / "r2.json").write_text(json.dumps(RIG_DOC))
        h1 = load_config(write_config(tmp_path, name="c1.json", rig="r1.json"))[1]
        h2 = load_config(write_config(tmp_path, name="c2.json", rig="r2.json"))[1]
        assert h1 == h2
        edited = dict(RIG_DOC)
        edited["intrinsics"] = {**RIG_DOC["intrinsics"], "fx": 710.0}
        (tmp_path / "r3.json").write_text(json.dumps(edited))
        h3 = load_config(write_config(tmp_path, name="c3.json", rig="r3.json"))[1]
        assert h3 != h1

    def test_hash_ignores_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(path)[1] == load_config(path, seed_override=42)[1]

    def test_missing_rig_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_grid_channel_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, bev_grid={"channels": 3})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_inline_boxes_scene(self, tmp_path):
        path = write_config(
            tmp_path,
            scene={
                "extent": {"x_min": 0.0, "x_max": 50.0, "y_min": -10.0, "y_max": 10.0},
                "boxes": [{"x": 20.0, "y": 0.0, "z": 0.8, "l": 4.0, "w": 2.0,
                           "h": 1.6, "theta": 0.0}],
            },
        )
        cfg, _, _ = load_config(path)
        assert len(cfg.scene.boxes) == 1
        assert cfg.scene.boxes[0].x == 20.0

    def test_config_hash_is_canonical(self):
        assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main([
            "render", "--config", str(write_config(tmp_path)),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_config_error_is_2(self, tmp_path, capsys):
        code = main([
            "render", "--config", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_pipeline_error_is_3(self, tmp_path, capsys):
        # height bins too shallow for the tallest rendered surface; the
        # close-by boxes guarantee object pixels even at this stride
        path = write_config(
            tmp_path,
            scene=CLOSE_BOXES_SCENE,
            height_bins={"strategy": "UD", "n_bins": 4, "range_min": 0.0,
                         "range_max": 0.5},
        )
        code = main(["lift", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "OutOfRange"

    @pytest.mark.parametrize("key, value", [("pool_mode", "fixed"), ("sampel_stride", 8)])
    def test_unknown_config_key_is_2(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, **{key: value})
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and key in err["message"]

    def test_infinite_grid_extent_is_2(self, tmp_path, capsys):
        # json.dumps writes float("inf") as the Infinity literal
        path = write_config(tmp_path, bev_grid={"channels": 2, "x_max": float("inf")})
        code = main(["lift", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_nan_noise_sigma_is_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path, noise={"kind": "gaussian_bin_blur", "sigma_bins": float("nan")}
        )
        code = main(["robustness", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_missing_scene_for_render_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, scene=None)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


class TestRenderCommand:
    def test_artifacts_and_meta(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path)
        assert main(["render", "--config", str(path), "--out", str(out)]) == 0
        meta, header, rows = read_csv(out / "maps.csv")
        _, digest, seed = load_config(path)
        assert meta == {"config_hash": digest, "seed": str(seed)}
        assert header == ["u", "v", "depth", "height", "hit_kind"]
        assert len(rows) == (1536 // 64) * (864 // 64)
        summary = read_json(out / "render_summary.json")
        assert summary["config_hash"] == digest
        assert summary["fraction_sky"] + summary["fraction_ground"] + summary[
            "fraction_object"
        ] == pytest.approx(1.0)
        assert (out / "depth_hist.csv").exists()
        assert (out / "height_hist.csv").exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path)
        main(["render", "--config", str(path), "--out", str(out), "--format", "json"])
        doc = read_json(out / "maps.json")
        assert set(doc) == {"meta", "header", "rows"}
        assert doc["header"][0] == "u"
        assert len(doc["rows"]) == (1536 // 64) * (864 // 64)

    def test_bin_format(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path)
        main(["render", "--config", str(path), "--out", str(out), "--format", "bin"])
        tensor = read_tensor(out / "maps.btf")
        assert tensor.shape == ((1536 // 64) * (864 // 64), 5)
        sidecar = read_json(out / "maps.meta.json")
        assert sidecar["header"] == ["u", "v", "depth", "height", "hit_kind"]


class TestLiftCommand:
    def test_summary_bookkeeping(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path)
        assert main(["lift", "--config", str(path), "--out", str(out)]) == 0
        summary = read_json(out / "lift_summary.json")
        cells = (1536 // 64) * (864 // 64)
        assert summary["depth"]["n_points"] == cells * 30
        held = summary["height"]["n_points"]
        assert held == (cells - summary["height"]["skipped_cells"]) * 12
        for side in ("height", "depth"):
            assert summary[side]["total_mass"] > 0
        wedge_meta, wedge_header, wedge_rows = read_csv(out / "wedge_height.csv")
        assert wedge_header == ["x", "y", "z", "weight", "f0", "f1"]
        assert len(wedge_rows) == held
        _, bev_header, bev_rows = read_csv(out / "bev_height.csv")
        assert bev_header == ["ix", "iy", "cx", "cy", "hits", "c0", "c1"]
        assert len(bev_rows) == 128 * 128

    def test_deterministic_reruns_are_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main([
                "lift", "--config", str(path), "--out", str(out),
            ]) == 0
            outs.append(out)
        for stem in ("wedge_height.csv", "wedge_depth.csv", "bev_height.csv",
                     "bev_depth.csv", "lift_summary.json"):
            assert (outs[0] / stem).read_bytes() == (outs[1] / stem).read_bytes()

    def test_seed_changes_context_features(self, tmp_path):
        path = write_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["lift", "--config", str(path), "--out", str(a)])
        main(["lift", "--config", str(path), "--out", str(b), "--seed", "6"])
        assert (a / "wedge_height.csv").read_bytes() != (b / "wedge_height.csv").read_bytes()


class TestRobustnessCommand:
    def test_artifacts(self, tmp_path):
        out = tmp_path / "out"
        # close boxes + finer stride keep every trial's objects visible
        path = write_config(tmp_path, scene=CLOSE_BOXES_SCENE, sample_stride=16)
        assert main(["robustness", "--config", str(path), "--out", str(out)]) == 0
        summary = read_json(out / "robustness_summary.json")
        assert summary["n_trials"] == 2
        assert 0.0 <= summary["overlap_depth"] <= 1.0
        assert 0.0 <= summary["overlap_height"] <= 1.0
        assert summary["law_max_abs_diff_m"] < 1e-9
        for side in ("clean", "disturbed"):
            assert {"height", "depth"} <= set(summary[side])
        overlap = read_json(out / "overlap.json")
        assert len(overlap["trials"]) == 2
        _, header, rows = read_csv(out / "errors_disturbed.csv")
        assert header[0] == "trial"
        assert {r[0] for r in rows} == {"0", "1"}
        _, _, law = read_csv(out / "law_check.csv")
        assert len(law) == 27  # 3 columns x 3 heights x 3 biases


class TestBenchCommand:
    def test_report_fields(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, bench_repeats=1, scene=None)
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        report = read_json(out / "bench.json")
        cells = (1536 // 64) * (864 // 64)
        assert report["height"]["n_bins"] == 12
        assert report["depth"]["n_bins"] == 30
        assert report["depth"]["n_points"] == cells * 30
        assert report["height"]["lift_seconds"] > 0
        assert report["point_ratio_depth_over_height"] == pytest.approx(
            report["depth"]["n_points"] / report["height"]["n_points"]
        )
