"""Command-line interface tests: config resolution, exit codes, artifact
formats, and run-to-run determinism on a deliberately tiny workload."""
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import bevlift.cli as cli
import bevlift.robustness as robustness
import bevlift.scene as scene_module
from bevlift.bevpool import GridSpec
from bevlift.binning import BinSpec
from bevlift.cli import config_hash, load_config, main
from bevlift.errors import ConfigError, PipelineError, config_float, config_object
from bevlift.geometry import load_rig
from bevlift.io import read_csv, read_json, read_tensor, write_table
from bevlift.robustness import DisturbanceSpec
from bevlift.scene import NoiseModel, load_scene

ROOT = Path(__file__).resolve().parent.parent

RIG_DOC = json.loads((ROOT / "configs" / "rig_default.json").read_text())
CORRIDOR_DOC = json.loads((ROOT / "configs" / "scenes" / "corridor_seed7.json").read_text())

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


INF = float("inf")

# Integer config fields given a value that is not a JSON integer: probe
# id -> (config overrides, the field name the error must carry).
BAD_INT_PROBES = {
    "seed-inf": ({"seed": INF}, "seed"),
    "seed-str": ({"seed": "x"}, "seed"),
    "stride-inf": ({"sample_stride": INF}, "sample_stride"),
    "stride-float": ({"sample_stride": 8.7}, "sample_stride"),
    "channels-bool": ({"context_channels": True, "bev_grid": {"channels": 1}},
                      "context_channels"),
    "repeats-float": ({"bench_repeats": 2.0}, "bench_repeats"),
    "n_trials-inf": ({"disturbance": {**BASE_CONFIG["disturbance"], "n_trials": INF}},
                     "n_trials"),
    "disturbance-seed-float": ({"disturbance": {**BASE_CONFIG["disturbance"], "seed": 1.5}},
                               "seed"),
    "noise-seed-inf": ({"noise": {**BASE_CONFIG["noise"], "seed": INF}}, "seed"),
    "n_bins-inf": ({"depth_bins": {**BASE_CONFIG["depth_bins"], "n_bins": INF}}, "n_bins"),
    "n_bins-float": ({"depth_bins": {**BASE_CONFIG["depth_bins"], "n_bins": 206.9}},
                     "n_bins"),
    "grid-channels-inf": ({"bev_grid": {"channels": INF}}, "channels"),
    "n_boxes-inf": ({"scene": {**BASE_CONFIG["scene"], "n_boxes": INF}}, "n_boxes"),
    "scene-seed-str": ({"scene": {**BASE_CONFIG["scene"], "seed": "3"}}, "seed"),
    "rng_seed-float": ({"scene": {**CLOSE_BOXES_SCENE, "rng_seed": 1.5}}, "rng_seed"),
    "image_w-float": (
        {"rig": {**RIG_DOC, "intrinsics": {**RIG_DOC["intrinsics"], "image_w": 1536.0}}},
        "image_w",
    ),
    "image_h-bool": (
        {"rig": {**RIG_DOC, "intrinsics": {**RIG_DOC["intrinsics"], "image_h": False}}},
        "image_h",
    ),
}


# Seed fields given a negative integer, which np.random.SeedSequence
# rejects: probe id -> (config overrides, the field name the error must
# carry, command-line flags).
NEGATIVE_SEED_PROBES = {
    "seed-negative": ({"seed": -1}, "seed"),
    "seed-flag-negative": ({}, "seed", "--seed", "-1"),
    "scene-seed-negative": ({"scene": {**BASE_CONFIG["scene"], "seed": -3}}, "seed"),
    "disturbance-seed-negative": (
        {"disturbance": {**BASE_CONFIG["disturbance"], "seed": -1}}, "seed",
    ),
    "noise-seed-negative": ({"noise": {**BASE_CONFIG["noise"], "seed": -2}}, "seed"),
    "rng_seed-negative": ({"scene": {**CLOSE_BOXES_SCENE, "rng_seed": -1}}, "rng_seed"),
}

FIELD_PROBES = {**BAD_INT_PROBES, **NEGATIVE_SEED_PROBES}


def _close_boxes_with(box0=None, **extent):
    """CLOSE_BOXES_SCENE with fields of its first box and of its extent
    replaced."""
    boxes = [{**CLOSE_BOXES_SCENE["boxes"][0], **(box0 or {})}, CLOSE_BOXES_SCENE["boxes"][1]]
    return {"extent": {**CLOSE_BOXES_SCENE["extent"], **extent}, "boxes": boxes}


# Scene values that are not finite numbers: probe id -> (scene document,
# the field name the error must carry).
SCENE_FLOAT_PROBES = {
    "box-h-inf": (_close_boxes_with({"h": INF}), "boxes[0].h"),
    "box-theta-nan": (_close_boxes_with({"theta": float("nan")}), "boxes[0].theta"),
    "extent-x_max-inf": (_close_boxes_with(x_max=INF), "extent.x_max"),
    "box-z-bool": (_close_boxes_with({"z": True}), "boxes[0].z"),
    "box-z-negative": (_close_boxes_with({"z": -0.5}), "boxes[0].z"),
}


# The config with a scene document, and with a generator recipe that sets
# its extent, for probes of the scene's own fields.
SCENE_BASE = {**BASE_CONFIG, "scene": CLOSE_BOXES_SCENE}
# The config with the one noise kind that reads bias_m.
BIAS_BASE = {**BASE_CONFIG, "noise": {"kind": "bias", "bias_m": 0.05}}
RECIPE_BASE = {**BASE_CONFIG,
               "scene": {**BASE_CONFIG["scene"], "extent": [0.0, 98.0, -40.0, 40.0]}}


def _field_path(keys) -> str:
    """The path a message names for the entry at keys: noise.sigma_bins,
    rig.extrinsics.translation[0]."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys)[1:]


def _overrides(base, keys, value) -> dict:
    """The top-level override of base that sets the entry at keys (object
    keys and list indices) to value, leaving base untouched."""
    top = json.loads(json.dumps(base[keys[0]]))
    node = top
    for key in keys[1:-1]:
        node = node[key]
    node[keys[-1]] = value
    return {keys[0]: top}


# Every float field of every config object: probe id -> (base config, keys
# of the field, the path its error must name).
FLOAT_FIELDS = {
    _field_path(keys): (base, keys, _field_path(keys))
    for base, keys in [
        *((BASE_CONFIG, ("height_bins", key)) for key in ("range_min", "range_max", "alpha")),
        *((BASE_CONFIG, ("depth_bins", key)) for key in ("range_min", "range_max")),
        (BASE_CONFIG, ("noise", "sigma_bins")),
        (BIAS_BASE, ("noise", "bias_m")),
        *((BASE_CONFIG, ("disturbance", key)) for key in ("sigma_roll_deg", "sigma_pitch_deg")),
        *((BASE_CONFIG, ("bev_grid", key))
          for key in ("x_min", "x_max", "y_min", "y_max", "res_x", "res_y")),
        *((BASE_CONFIG, ("rig", "intrinsics", key)) for key in ("fx", "fy", "cx", "cy")),
        (BASE_CONFIG, ("rig", "extrinsics", "rotation", 0, 1)),
        (BASE_CONFIG, ("rig", "extrinsics", "translation", 2)),
        (BASE_CONFIG, ("rig", "ground_normal", 0)),
        *((SCENE_BASE, ("scene", "boxes", 0, key)) for key in ("x", "y", "z", "l", "w", "h", "theta")),
        *((SCENE_BASE, ("scene", "extent", key)) for key in ("x_min", "x_max", "y_min", "y_max")),
    ]
}
# A recipe's extent is a list, whose entries are named like a scene's.
FLOAT_FIELDS["recipe-extent[1]"] = (RECIPE_BASE, ("scene", "extent", 1), "scene.extent.x_max")

NOT_A_FINITE_NUMBER = {"nan": float("nan"), "inf": INF, "true": True, "str": "x"}


# A misspelt key in each config object: the path its error must name ->
# (base config, keys of the misspelt key).
MISSPELT_KEYS = {
    _field_path(keys): (base, keys)
    for base, keys in [
        (BASE_CONFIG, ("noise", "sigma_bin")),
        (BASE_CONFIG, ("disturbance", "sigma_roll")),
        (BASE_CONFIG, ("height_bins", "alpah")),
        (BASE_CONFIG, ("depth_bins", "range_mx")),
        (BASE_CONFIG, ("bev_grid", "res")),
        (BASE_CONFIG, ("rig", "ground_norml")),
        (BASE_CONFIG, ("rig", "intrinsics", "f_x")),
        (BASE_CONFIG, ("rig", "extrinsics", "rotaton")),
        (SCENE_BASE, ("scene", "rng_sed")),
        (SCENE_BASE, ("scene", "boxes", 0, "hh")),
        (SCENE_BASE, ("scene", "extent", "x_mx")),
        (BASE_CONFIG, ("scene", "n_box")),
    ]
}


def write_config(tmp_path, name="exp.json", **overrides):
    doc = {**BASE_CONFIG, **overrides}
    doc = {k: v for k, v in doc.items() if v is not None}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def rig_doc(section=None, **fields):
    """RIG_DOC with the given fields replaced, in section when one is named."""
    if section is None:
        return {**RIG_DOC, **fields}
    return {**RIG_DOC, section: {**RIG_DOC[section], **fields}}


ROTATION = RIG_DOC["extrinsics"]["rotation"]

# Rig and grid fields that pass the per-field checks but whose derived
# values break a rule (arithmetic that overflows, a camera on or below the
# ground): probe id -> (config overrides, start of the message the error
# must carry).
OVERFLOW_PROBES = {
    "grid-x_max": ({"bev_grid": {"channels": 2, "x_max": 1e20}},
                   "bev_grid.x_max - x_min and y_max - y_min give"),
    "rotation": ({"rig": rig_doc("extrinsics", rotation=[[1e308, *ROTATION[0][1:]],
                                                         *ROTATION[1:]])},
                 "rig.extrinsics.rotation is not orthonormal"),
    "ground_normal": ({"rig": rig_doc(ground_normal=[1e308, 0.0, 1.0])},
                      "rig.ground_normal must be a unit vector"),
    "fx": ({"rig": rig_doc("intrinsics", fx=1e-308)},
           "rig.intrinsics.fx must make image_w / fx finite"),
    "fy": ({"rig": rig_doc("intrinsics", fy=1e-308)},
           "rig.intrinsics.fy must make image_h / fy finite"),
    "translation[0]": ({"rig": rig_doc("extrinsics", translation=[1e308, 9.0, 4.2])},
                       "rig.extrinsics place the camera center too far from the ego origin"),
    "translation[1]": ({"rig": rig_doc("extrinsics", translation=[0.0, 1e308, 4.2])},
                       "rig.extrinsics place the camera center too far from the ego origin"),
    "box-h": ({"scene": _close_boxes_with({"h": 1e308})},
              "scene.boxes[0].corners must have a finite squared distance"),
    # A camera centre on or below the ground: a flipped normal, and a
    # translation that puts the centre far below the ground while its
    # squared distance still fits a double.
    "ground_normal[2]": ({"rig": rig_doc(ground_normal=[0.0, 0.0, -1.0])},
                         "rig.extrinsics and ground_normal put the camera center"),
    "translation[2]": ({"rig": rig_doc("extrinsics", translation=[
                            *RIG_DOC["extrinsics"]["translation"][:2], -1.3e154])},
                       "rig.extrinsics and ground_normal put the camera center"),
}


class TestConfigFloat:
    @pytest.mark.parametrize("value", [0, 3, -2.5, 1e300])
    def test_accepts_finite_numbers(self, value):
        got = config_float("f", value)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("value", [
        True, False, "1.0", None, [1.0], float("nan"), INF, -INF, 10**400,
    ])
    def test_rejects_non_numbers_and_non_finite(self, value):
        with pytest.raises(ConfigError, match="field_name"):
            config_float("field_name", value)

    def test_bounds_are_inclusive(self):
        assert config_float("f", 0.0, lo=0.0, hi=1.0) == 0.0
        assert config_float("f", 1, lo=0.0, hi=1.0) == 1.0
        for value in (-1e-12, 1.0 + 1e-12):
            with pytest.raises(ConfigError, match="f must be"):
                config_float("f", value, lo=0.0, hi=1.0)


class TestConfigObject:
    def test_builds_from_keys_and_given_values(self):
        def build(a, b=2, c=3):
            return a, b, c

        assert config_object(build, {"a": 1, "c": 4}) == (1, 2, 4)
        assert config_object(build, {"a": 1}, "p", b=5) == (1, 5, 3)
        assert config_object(build, {"a": 1, "b": 6}, "p", b=5) == (1, 6, 3)

    @pytest.mark.parametrize("doc, message", [
        ([1], "p must be a JSON object, got list"),
        ({"a": 1, "d": 0}, "p.d is not a known key; expected one of a, b"),
        ({"b": 1}, "p.a is required"),
        ({"a": -1}, "p.a must be >= 0"),
    ])
    def test_errors_name_the_path(self, doc, message):
        def build(a, b=0):
            return config_float("a", a, lo=0.0)

        with pytest.raises(ConfigError) as info:
            config_object(build, doc, "p")
        assert str(info.value).startswith(message)

    def test_nested_paths_compose(self):
        def outer(inner):
            return config_object(NoiseModel, inner, "inner")

        with pytest.raises(ConfigError, match=r"^p\.inner\.sigma_bins must be >= 0"):
            config_object(outer, {"inner": {"kind": "gaussian_bin_blur", "sigma_bins": -1}}, "p")


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

    @pytest.mark.parametrize("absent", ["missing", "null"])
    def test_absent_or_null_objects_take_their_defaults(self, tmp_path, absent):
        names = ("height_bins", "depth_bins", "noise", "disturbance", "bev_grid")
        doc = {k: v for k, v in BASE_CONFIG.items() if k not in names}
        if absent == "null":
            doc.update(dict.fromkeys(names))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({**doc, "context_channels": 4}))
        cfg, _, _ = load_config(path)
        assert cfg.height_bins == BinSpec("DID", 90, -0.2, 3.6, alpha=1.2)
        assert cfg.depth_bins == BinSpec("DEPTH_UD", 206, 1.0, 104.0)
        assert cfg.noise == NoiseModel("one_hot_truth")
        assert cfg.disturbance == DisturbanceSpec(1.67, 1.67, seed=5, n_trials=100)
        assert cfg.bev_grid == GridSpec(0.0, 102.4, -51.2, 51.2, 0.8, 0.8, channels=4)

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

    def test_committed_configs_load(self):
        configs = ROOT / "configs"
        experiments = sorted(configs.glob("experiment_*.json"))
        rigs = sorted(configs.glob("rig_*.json"))
        scenes = sorted(configs.glob("scenes/*.json"))
        assert (len(experiments), len(rigs), len(scenes)) == (4, 2, 3)
        for path in experiments:
            load_config(path)
        for path in rigs:
            load_rig(path)
        for path in scenes:
            load_scene(path)

    def test_undecodable_file_rejected(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)

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

    def test_grid_too_fine_to_index_is_3(self, tmp_path, capsys):
        # 100000 cells per metre on each axis of the default extent: the BEV
        # index asks for hundreds of TiB, more than any address space holds
        grid = {"channels": 2, "res_x": 1e-5, "res_y": 1e-5}
        path = write_config(tmp_path, bev_grid=grid)
        code = main(["lift", "--config", str(path), "--out", str(tmp_path / "out")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "MemoryError" and "TiB" in err["message"]

    @pytest.mark.parametrize("command", ["lift", "bench", "robustness"])
    def test_depth_strategy_as_height_bins_is_2(self, tmp_path, capsys, command):
        # The range holds every rendered height, so only the strategy is wrong.
        height_bins = {"strategy": "DEPTH_UD", "n_bins": 12, "range_min": -0.2,
                       "range_max": 3.6}
        path = write_config(tmp_path, height_bins=height_bins)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("command", ["render", "lift", "robustness", "bench"])
    @pytest.mark.parametrize("field, spec", [
        # a DEPTH_UD range that misses every rendered height
        ("height_bins", {"strategy": "DEPTH_UD", "n_bins": 30, "range_min": 1.0,
                         "range_max": 121.0}),
        ("depth_bins", {"strategy": "UD", "n_bins": 30, "range_min": 1.0,
                        "range_max": 121.0}),
    ])
    def test_wrong_kind_bins_exit_2_before_any_work(self, tmp_path, capsys, command,
                                                    field, spec):
        path = write_config(tmp_path, **{field: spec})
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["message"].startswith(f"{field} must use")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["render", "lift", "robustness", "bench"])
    @pytest.mark.parametrize("field, spec", [
        # finite bounds whose last two bin edges sum past the largest double
        ("depth_bins", {"strategy": "DEPTH_UD", "n_bins": 6, "range_min": 1.0,
                        "range_max": 1.7e308}),
        # a LID base width past the largest double, which bins every value
        # as NaN
        ("height_bins", {"strategy": "LID", "n_bins": 1, "range_min": -1e308,
                         "range_max": 3.6}),
        # a LID range inside which 8 * (value - range_min) overflows
        ("height_bins", {"strategy": "LID", "n_bins": 6, "range_min": 0.0,
                         "range_max": 5e307}),
    ])
    def test_overflowing_bin_arithmetic_exits_2_before_any_work(self, tmp_path, capsys,
                                                                command, field, spec):
        path = write_config(tmp_path, **{field: spec})
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["message"].startswith(f"{field}.range")
        assert err["message"].endswith(f"overflows the {spec['strategy']} bin arithmetic")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["render", "lift", "robustness", "bench"])
    @pytest.mark.parametrize("probe", OVERFLOW_PROBES)
    def test_overflowing_rig_or_grid_exits_2_before_any_work(self, tmp_path, capsys, command,
                                                             probe):
        overrides, message = OVERFLOW_PROBES[probe]
        path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1 and caught == []
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError" and err["message"].startswith(message)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["lift", "bench"])
    def test_lifted_positions_that_overflow_exit_2_before_rendering(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # A height bin so far below the ground that its lifted points
        # overflow; every rendered height still fits the range.
        height_bins = {"strategy": "UD", "n_bins": 2, "range_min": -1e308, "range_max": 3.6}
        path = write_config(tmp_path, height_bins=height_bins)
        rendered = []
        monkeypatch.setattr(cli, "render", lambda *args: rendered.append(args))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1 and caught == [] and rendered == []
        assert json.loads(lines[0]) == {"error": "ConfigError",
                                        "message": "lifted positions must be finite"}
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["lift", "robustness"])
    def test_default_height_bins_hold_the_committed_scene(self, tmp_path, capsys, command):
        # Every surface of the committed corridor, boxes included, lies
        # inside the default height bins.
        path = write_config(tmp_path, scene=CORRIDOR_DOC, height_bins=None)
        code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert (code, capsys.readouterr().err) == (0, "")

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

    @pytest.mark.parametrize("command", ["lift", "robustness"])
    @pytest.mark.parametrize("sigma", [1e308, 1e-300])  # 2 sigma**2 overflows, underflows
    def test_noise_sigma_outside_the_kernel_arithmetic_exits_2_before_any_work(
            self, tmp_path, capsys, command, sigma):
        path = write_config(tmp_path, noise={"kind": "gaussian_bin_blur", "sigma_bins": sigma})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(path), "--out", str(out)])
        lines = capsys.readouterr().err.splitlines()
        assert code == 2 and len(lines) == 1 and caught == []
        err = json.loads(lines[0])
        assert err["error"] == "ConfigError"
        assert err["message"].startswith("noise.sigma_bins must make 2 * sigma_bins**2")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["lift", "robustness"])
    def test_tiny_noise_sigma_blurs_like_the_identity_without_warnings(self, tmp_path, capsys,
                                                                       command):
        # 2 sigma**2 is a positive subnormal; every off-diagonal quotient
        # overflows to -inf, so the kernel is the identity
        outs = []
        for noise in ({"kind": "gaussian_bin_blur", "sigma_bins": 1e-160},
                      {"kind": "one_hot_truth"}):
            # close boxes + finer stride keep every trial's objects visible
            path = write_config(tmp_path, noise=noise, scene=CLOSE_BOXES_SCENE,
                                sample_stride=16 if command == "robustness" else 64)
            outs.append(tmp_path / noise["kind"])
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, "--config", str(path), "--out", str(outs[-1])])
            assert (code, capsys.readouterr().err, caught) == (0, "", [])
        table = "bev_depth.csv" if command == "lift" else "errors_disturbed.csv"
        rows = [[line for line in (out / table).read_text().splitlines()
                 if not line.startswith("#")] for out in outs]
        assert rows[0] == rows[1]

    def test_infinite_depth_range_is_2(self, tmp_path, capsys):
        depth_bins = {**BASE_CONFIG["depth_bins"], "range_max": float("inf")}
        path = write_config(tmp_path, depth_bins=depth_bins)
        code = main(["lift", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "range_max" in err["message"]

    def test_nan_disturbance_sigma_is_2(self, tmp_path, capsys):
        disturbance = {**BASE_CONFIG["disturbance"], "sigma_roll_deg": float("nan")}
        path = write_config(tmp_path, disturbance=disturbance)
        code = main(["robustness", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "sigma_roll_deg" in err["message"]

    @pytest.mark.parametrize("probe", FIELD_PROBES)
    def test_non_integer_field_is_2(self, tmp_path, capsys, probe):
        overrides, field, *flags = FIELD_PROBES[probe]
        path = write_config(tmp_path, **overrides)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and field in err["message"]

    @pytest.mark.parametrize("probe", SCENE_FLOAT_PROBES)
    def test_non_finite_scene_value_is_2(self, tmp_path, capsys, probe):
        scene, field = SCENE_FLOAT_PROBES[probe]
        path = write_config(tmp_path, scene=scene)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and field in err["message"]

    @pytest.mark.parametrize("value", NOT_A_FINITE_NUMBER)
    @pytest.mark.parametrize("probe", FLOAT_FIELDS)
    def test_float_field_not_a_finite_number_is_2(self, tmp_path, capsys, probe, value):
        base, keys, field = FLOAT_FIELDS[probe]
        overrides = _overrides(base, keys, NOT_A_FINITE_NUMBER[value])
        path = write_config(tmp_path, **{**base, **overrides})
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and field in err["message"]

    @pytest.mark.parametrize("probe", MISSPELT_KEYS)
    def test_misspelt_key_is_2(self, tmp_path, capsys, probe):
        base, keys = MISSPELT_KEYS[probe]
        path = write_config(tmp_path, **{**base, **_overrides(base, keys, 1.0)})
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and f"{probe} is not a known key" in err["message"]

    def test_stride_beyond_the_image_is_2(self, tmp_path, capsys):
        # 864 rows at stride 865 would render a 0 x 0 grid
        path = write_config(tmp_path, sample_stride=865)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "sample_stride" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("name", ["height_bins", "depth_bins"])
    def test_empty_bins_object_is_2(self, tmp_path, capsys, name):
        # {} is a given object, not an absent one: it takes no default
        path = write_config(tmp_path, **{name: {}})
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{name}.strategy is required" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("under", ["file", "file/sub"])
    def test_out_that_is_not_a_directory_is_2(self, tmp_path, capsys, under):
        # --out names a file (FileExistsError), or a path under a file
        # (NotADirectoryError)
        (tmp_path / "file").write_text("")
        out = tmp_path / under
        code = main(["render", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and str(out) in err["message"]

    def test_alpha_outside_did_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, depth_bins={**BASE_CONFIG["depth_bins"], "alpha": 3.0})
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "depth_bins.alpha" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("noise, field", [
        ({"kind": "one_hot_truth", "sigma_bins": 2.0}, "noise.sigma_bins"),
        ({"kind": "bias", "bias_m": 0.1, "sigma_bins": 2.0}, "noise.sigma_bins"),
        ({"kind": "one_hot_truth", "bias_m": 0.1}, "noise.bias_m"),
        ({"kind": "gaussian_bin_blur", "sigma_bins": 1.0, "bias_m": 0.1}, "noise.bias_m"),
    ])
    def test_noise_field_its_kind_never_reads_is_2(self, tmp_path, capsys, noise, field):
        path = write_config(tmp_path, noise=noise)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{field} is read only by" in json.loads(capsys.readouterr().err)["message"]

    @pytest.mark.parametrize("command", ["robustness", "bench"])
    def test_format_is_rejected_where_not_honoured(self, tmp_path, command):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                  "--format", "bin"])
        assert exit_info.value.code == 2

    def test_missing_scene_for_render_is_2(self, tmp_path, capsys):
        path = write_config(tmp_path, scene=None)
        code = main(["render", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


# The fuzz config: every object inlined and every key given, the scene a
# box document (a generator recipe would draw a scene at load).
FUZZ_BASE = {
    **SCENE_BASE,
    "bench_repeats": 1,
    "bev_grid": {"x_min": 0.0, "x_max": 102.4, "y_min": -51.2, "y_max": 51.2,
                 "res_x": 3.2, "res_y": 3.2, "channels": 2},
}
FUZZ_FLOATS = (0.0, -1.0, 1e308, -1e308, 1e-308, 5e-324, 1e20)
FUZZ_INTS = (0, -1, 2**40)
# Counts whose run time or memory grows with their value: at 2**40 a run
# takes hours or allocates terabytes, so those cases stop at load.
FUZZ_SIZES = ("disturbance.n_trials", "bench_repeats",
              "rig.intrinsics.image_w", "rig.intrinsics.image_h")
FUZZ_COMMANDS = (("render",), ("lift", "--format", "bin"), ("robustness",), ("bench",))


def _numeric_leaves(node, keys=()):
    """The keys of every number (not a boolean) in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _numeric_leaves(child, (*keys, key))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


FUZZ_LEAVES = list(_numeric_leaves(FUZZ_BASE))


class TestFuzzNumericLeaves:
    """Each numeric leaf of a config in turn set to an edge value keeps the
    exit-code contract: 0, 2 or 3; nothing on stderr but at most one JSON
    record, and no warning; nothing in --out after an exit 2.  A case that
    fails at load ends as main ends it, with the error's JSON record and
    before --out is made, so it runs through load_config only.  A case
    that loads runs one command, the four taking turns."""

    @pytest.mark.parametrize("index", range(len(FUZZ_LEAVES)),
                             ids=[_field_path(keys) for keys in FUZZ_LEAVES])
    def test_edge_values_keep_the_exit_code_contract(self, tmp_path, capsys, index):
        keys = FUZZ_LEAVES[index]
        node = FUZZ_BASE
        for key in keys:
            node = node[key]
        values = FUZZ_INTS if isinstance(node, int) else FUZZ_FLOATS
        for turn, value in enumerate(values, start=index):
            override = _overrides(FUZZ_BASE, keys, value) if keys[1:] else {keys[0]: value}
            path = write_config(tmp_path, **{**FUZZ_BASE, **override})
            out = tmp_path / f"out{turn}"
            case = f"{_field_path(keys)} = {value!r}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    load_config(path)
                    runs = not (value == 2**40 and _field_path(keys) in FUZZ_SIZES)
                except (PipelineError, MemoryError):
                    runs = False
                assert caught == [], (case, caught)
                if not runs:
                    continue
                command, *flags = FUZZ_COMMANDS[turn % len(FUZZ_COMMANDS)]
                code = main([command, "--config", str(path), "--out", str(out), *flags])
            lines = capsys.readouterr().err.splitlines()
            assert code in (0, 2, 3) and caught == [], (case, command, code, caught)
            assert (code == 0) == (lines == []), (case, command, lines)
            if lines:
                assert len(lines) == 1 and "error" in json.loads(lines[0]), (case, lines)
            if code == 2:
                assert not out.exists() or not any(out.iterdir()), (case, command)


class TestWriteTable:
    def test_zero_row_table_keeps_its_columns(self, tmp_path):
        header = ["x", "y", "z"]
        columns = [np.empty(0), np.empty(0), np.empty(0, dtype=np.int64)]
        for fmt in ("csv", "json", "bin"):
            write_table(tmp_path, "t", fmt, header, columns, {"seed": 0})
        assert read_csv(tmp_path / "t.csv") == ({"seed": "0"}, header, [])
        assert read_json(tmp_path / "t.json")["rows"] == []
        assert read_tensor(tmp_path / "t.btf").shape == (0, 3)
        assert read_json(tmp_path / "t.meta.json")["header"] == header

    def test_unknown_format_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            write_table(tmp_path, "t", "xml", ["x"], [np.zeros(1)], {})


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

    def test_formats_agree(self, tmp_path):
        path = write_config(tmp_path)
        for fmt in ("csv", "json", "bin"):
            out = tmp_path / fmt
            assert main(["lift", "--config", str(path), "--out", str(out), "--format", fmt]) == 0
        for stem in ("wedge_height", "wedge_depth", "bev_height", "bev_depth"):
            _, header, rows = read_csv(tmp_path / "csv" / f"{stem}.csv")
            expected = [[float(v) for v in row] for row in rows]
            doc = read_json(tmp_path / "json" / f"{stem}.json")
            assert doc["header"] == header
            assert doc["rows"] == expected
            tensor = read_tensor(tmp_path / "bin" / f"{stem}.btf")
            assert tensor.shape == (len(rows), len(header))
            np.testing.assert_array_equal(tensor, np.asarray(expected, dtype=np.float32))

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
        # the overlap study samples at its own 16 px, not the config's stride
        assert overlap["sample_stride"] == 16
        _, header, rows = read_csv(out / "errors_disturbed.csv")
        assert header[0] == "trial"
        assert {r[0] for r in rows} == {"0", "1"}
        _, _, law = read_csv(out / "law_check.csv")
        assert len(law) == 27  # 3 columns x 3 heights x 3 biases

    def test_each_trial_rig_and_noise_table_is_built_once(self, tmp_path, monkeypatch):
        # Both studies share each trial's perturbed rig, and the two
        # localization runs share the height and depth noise tables.
        perturbed = []
        perturb = robustness.perturb_rig

        def spy_perturb(rig, roll, pitch):
            perturbed.append([roll, pitch])
            return perturb(rig, roll, pitch)

        monkeypatch.setattr(robustness, "perturb_rig", spy_perturb)
        scene_module._noise_table.cache_clear()
        disturbance = {**BASE_CONFIG["disturbance"], "n_trials": 3}
        path = write_config(tmp_path, scene=CLOSE_BOXES_SCENE, sample_stride=16,
                            disturbance=disturbance)
        assert main(["robustness", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        angles = robustness.sample_disturbances(DisturbanceSpec(**disturbance))
        assert perturbed == angles.tolist()
        assert scene_module._noise_table.cache_info().misses == 2

    def test_law_check_lifts_its_probes_in_two_calls(self, tmp_path, monkeypatch):
        # One lift_many_height call at the true heights and one at the
        # biased heights, each over all 27 probes.
        shapes, in_check = [], []
        lift, check = robustness.lift_many_height, robustness.law_check

        def spy_lift(us, *args):
            if in_check:
                shapes.append(np.shape(us))
            return lift(us, *args)

        def spy_check(rig):
            in_check.append(rig)
            return check(rig)

        monkeypatch.setattr(robustness, "lift_many_height", spy_lift)
        monkeypatch.setattr(cli, "law_check", spy_check)
        path = write_config(tmp_path, scene=CLOSE_BOXES_SCENE, sample_stride=16)
        assert main(["robustness", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert len(in_check) == 1 and shapes == [(27,), (27,)]


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
        assert report["height"]["plan_seconds"] > 0
        assert report["depth"]["plan_seconds"] > 0
        assert report["point_ratio_depth_over_height"] == pytest.approx(
            report["depth"]["n_points"] / report["height"]["n_points"]
        )
