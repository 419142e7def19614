"""Each workload's output check passes on real output and fails on a
corrupted copy of it."""
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def frame_case():
    wl = workloads.make("frames_sway", 3, ROOT, None, workloads.layers())
    frame = wl.run(wl.inputs(0))
    return wl, frame


def test_frame_check_passes_and_matches_the_reference(frame_case):
    wl, frame = frame_case
    assert wl.check(0, None, frame) == []


def test_frame_check_fails_a_lost_hit(frame_case):
    wl, frame = frame_case
    hits = frame.bev_d.hit_count
    ix, iy = np.argwhere(hits > 0)[0]
    hits[ix, iy] -= 1
    try:
        problems = checks.check_frame(frame, frame.rig, workloads.FRAME_STRIDE,
                                      wl.height_bins, wl.depth_bins)
    finally:
        hits[ix, iy] += 1
    assert any("hits + dropped" in p for p in problems)


def test_frame_reference_fails_a_perturbed_cell(frame_case):
    wl, frame = frame_case
    data = frame.bev_h.data
    ix, iy = np.argwhere(frame.bev_h.hit_count > 0)[0]
    saved = data[ix, iy, 0]
    data[ix, iy, 0] = saved * (1 + 1e-6) + 1e-6
    try:
        problems = checks.check_against_reference(
            frame, frame.rig, workloads.FRAME_STRIDE, wl.height_bins, wl.depth_bins, wl.grid)
    finally:
        data[ix, iy, 0] = saved
    assert any("off the reference" in p for p in problems)


def test_robustness_check_fails_a_non_finite_error(tmp_path):
    wl = workloads.make("robustness_study", 5, ROOT, tmp_path, workloads.layers())
    config = wl.inputs(0)
    code = wl.run(config)
    out = config.parent / "out"
    assert checks.check_robustness(code, out, workloads.ROBUSTNESS_TRIALS) == []

    path = out / "errors_disturbed.csv"
    lines = path.read_text().splitlines()
    col = lines[1].split(",").index("error_m")
    fields = lines[2].split(",")
    fields[col] = "nan"
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert any("non-finite" in p for p in checks.check_robustness(
        code, out, workloads.ROBUSTNESS_TRIALS))
    assert checks.check_robustness(3, out, workloads.ROBUSTNESS_TRIALS) == [
        "robustness exited 3"]


def test_lift_check_fails_a_corrupted_bin_table(tmp_path):
    # The committed lift config at a coarse stride keeps the test quick.
    doc = json.loads((ROOT / "configs/experiment_lift.json").read_text())
    doc["rig"] = str(ROOT / "configs" / doc["rig"])
    doc["scene"] = str(ROOT / "configs" / doc["scene"])
    doc["sample_stride"] = 96
    config = tmp_path / "lift.json"
    config.write_text(json.dumps(doc))
    wl = workloads.make("lift_artifacts", 2, ROOT, tmp_path, workloads.layers())
    wl.config = config
    wl.warm_up()
    assert wl.bin_digest is not None

    seed = wl.inputs(0)[0]
    csv_out, bin_out = tmp_path / "csv", tmp_path / "bin"
    assert wl.run((seed, "csv", csv_out)) == 0
    problems, csv_tables = checks.check_lift(0, csv_out, "csv", wl.n_cells)
    assert problems == []
    csv_digests = checks.float32_digests(csv_tables)
    assert wl.run((seed, "bin", bin_out)) == 0
    problems, _ = checks.check_lift(0, bin_out, "bin", wl.n_cells, csv_digests, wl.bin_digest)
    assert problems == []

    tensor = bin_out / "wedge_depth.btf"
    raw = bytearray(tensor.read_bytes())
    raw[-1] ^= 0x01
    tensor.write_bytes(bytes(raw))
    problems, _ = checks.check_lift(0, bin_out, "bin", wl.n_cells, csv_digests, wl.bin_digest)
    assert any("rounded to float32" in p for p in problems)
    assert any("same seed" in p for p in problems)

    table = csv_out / "bev_height.csv"
    table.write_text("".join(table.read_text().splitlines(keepends=True)[:-1]))
    problems, _ = checks.check_lift(0, csv_out, "csv", wl.n_cells)
    assert any("bev_height.csv" in p for p in problems)
