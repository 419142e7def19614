"""scripts/bench_trajectory.py: the benchmark medians and artifact
digests it records."""
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
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


def test_results_older_than_the_source_are_not_counted(tmp_path, capsys):
    # a result an earlier checkout left behind predates the source files
    source = tmp_path / "src" / "bevlift"
    source.mkdir(parents=True)
    (source / "scene.py").write_text("")
    write_results(tmp_path, ("frames_sway", 1, 35.0, 12.0), ("frames_sway", 2, 35.0, 14.0))
    stale = tmp_path / ".bench_out" / "results" / "frames_sway-seed1-trace0.json"
    built = (source / "scene.py").stat().st_mtime
    os.utime(stale, (built - 60.0, built - 60.0))
    got = _bench_trajectory().benchmark_medians(tmp_path, set())
    assert got["frames_sway"]["seeds"] == [2]
    assert got["frames_sway"]["median"] == {"items_per_s": 14.0}
    assert "skipped 1 result(s)" in capsys.readouterr().err


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


def test_run_order_alternates_the_side_that_runs_first():
    module = _bench_trajectory()
    assert list(module.run_order(["checkout", "parent"], 4)) == [
        (0, "checkout"), (0, "parent"), (1, "parent"), (1, "checkout"),
        (2, "checkout"), (2, "parent"), (3, "parent"), (3, "checkout"),
    ]
    assert list(module.run_order(["checkout"], 2)) == [(0, "checkout"), (1, "checkout")]


def test_cli_walls_alternate_checkouts_run_by_run(monkeypatch):
    module = _bench_trajectory()
    calls = []

    def fake_run(checkout, command, config, flags):
        calls.append((checkout.name, command, tuple(flags)))
        return float(len(calls)), 10.0 * len(calls), {"f": checkout.name}

    monkeypatch.setattr(module, "run_cli", fake_run)
    monkeypatch.setattr(module, "CLI_REPEATS", 3)
    got = module.cli_walls({"checkout": Path("new"), "parent": Path("old")})
    runs = [(name, command, tuple(flags)) for name, command, _, flags in module.CLI_RUNS]
    assert calls == [
        (side, command, flags)
        for _, command, flags in runs
        for side in ("new", "old", "old", "new", "new", "old")
    ]
    first = got["checkout"][runs[0][0]]
    assert first["runs_s"] == [1.0, 4.0, 5.0] and first["median_s"] == 4.0
    assert first["runs_peak_rss_mib"] == [10.0, 40.0, 50.0]
    assert first["median_peak_rss_mib"] == 40.0
    parent = got["parent"][runs[0][0]]
    assert parent["runs_s"] == [2.0, 3.0, 6.0]
    assert parent["runs_peak_rss_mib"] == [20.0, 30.0, 60.0]
    assert parent["median_peak_rss_mib"] == 30.0
    assert {side: got[side][runs[-1][0]]["artifacts_sha256"] for side in got} == {
        "checkout": {"f": "new"}, "parent": {"f": "old"},
    }


class FakeChild:
    """A CLI run that writes one artifact into its --out directory and a
    line to its stderr; wait4 gives its exit status."""

    pid = 4242

    def __init__(self, argv, cwd, env, stdout, stderr):
        out = Path(argv[argv.index("--out") + 1])
        (out / "maps.csv").write_text("u,v\n")
        stderr.write(b"boom\n")
        self.returncode = None


def _wait4_of(status, maxrss_kib):
    def wait4(pid, options):
        assert (pid, options) == (FakeChild.pid, 0)
        return pid, status, resource.struct_rusage((0.0, 0.0, maxrss_kib) + (0,) * 13)
    return wait4


def test_run_cli_takes_peak_rss_from_the_childs_own_rusage(monkeypatch, tmp_path):
    module = _bench_trajectory()
    monkeypatch.setattr(module.subprocess, "Popen", FakeChild)
    monkeypatch.setattr(module.os, "wait4", _wait4_of(0, 51200))
    wall, peak, digests = module.run_cli(tmp_path, "render", "experiment_render.json", ())
    assert wall >= 0.0 and peak == 50.0
    assert digests == {"maps.csv": hashlib.sha256(b"u,v\n").hexdigest()}


def test_run_cli_exits_with_the_childs_stderr_when_it_fails(monkeypatch, tmp_path):
    module = _bench_trajectory()
    monkeypatch.setattr(module.subprocess, "Popen", FakeChild)
    monkeypatch.setattr(module.os, "wait4", _wait4_of(1 << 8, 51200))
    with pytest.raises(SystemExit, match="render in .* exited 1: boom"):
        module.run_cli(tmp_path, "render", "experiment_render.json", ())


def test_git_head_labels_a_dirty_tree_uncommitted(monkeypatch, tmp_path):
    module = _bench_trajectory()
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    assert module.git_head(tmp_path) is None
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=repo,
                          capture_output=True, text=True, check=True).stdout.strip()
    assert module.git_head(repo) == head
    (repo / "a.txt").write_text("two\n")
    assert module.git_head(repo) == f"{head} + uncommitted"
    git("checkout", "-q", "a.txt")
    (repo / "new.txt").write_text("untracked\n")
    assert module.git_head(repo) == f"{head} + uncommitted"
