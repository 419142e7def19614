"""scripts/bench_trajectory.py: the benchmark medians and artifact
digests it records."""
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_results(checkout, *runs):
    """One untraced perfbench result file per (workload, seed, seconds, items_per_s)."""
    results = checkout / ".bench_out" / "results"
    results.mkdir(parents=True)
    for workload, seed, seconds, rate in runs:
        report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
                  "failed": 0, "metrics": {"items_per_s": {"value": rate}}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(report))


def test_median_of_runs_of_one_length(tmp_path):
    write_results(tmp_path, ("frames_sway", 1, 35.0, 12.0), ("frames_sway", 2, 35.0, 14.0))
    got = _bench_trajectory().benchmark_medians(tmp_path, set())
    assert got["frames_sway"]["median"] == {"items_per_s": 13.0}
    assert got["frames_sway"]["seconds"] == [35.0]


def test_runs_of_mixed_lengths_exit_naming_workload_and_lengths(tmp_path):
    write_results(tmp_path, ("frames_sway", 1, 35.0, 12.0), ("frames_sway", 2, 10.0, 14.0))
    module = _bench_trajectory()
    with pytest.raises(SystemExit, match=r"frames_sway: runs of \[10\.0, 35\.0\] s"):
        module.benchmark_medians(tmp_path, set())
    # choosing the runs of one length by seed gives their median
    assert module.benchmark_medians(tmp_path, {1})["frames_sway"]["runs"] == 1


def test_artifact_digests_cover_every_file_but_bench_json(tmp_path):
    (tmp_path / "maps.csv").write_text("u,v\n1,2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "wedge.btf").write_bytes(b"BTF1\x00")
    (tmp_path / "bench.json").write_text('{"lift_seconds": 0.1}\n')
    got = _bench_trajectory().artifact_digests(tmp_path)
    assert got == {
        "maps.csv": hashlib.sha256(b"u,v\n1,2\n").hexdigest(),
        "sub/wedge.btf": hashlib.sha256(b"BTF1\x00").hexdigest(),
    }
    assert list(got) == sorted(got)
