#!/usr/bin/env python3
"""Record one point of the BENCH_<N>.json performance trajectory.

For a checkout of bevlift (this repository by default) it writes, as JSON:

* the end-to-end benchmark metrics per workload: the median over the
  untraced perfbench runs found in the checkout's .bench_out/results/
  (optionally only the given seeds), with the seeds, run seconds and
  failed-item count.  The runs of one workload must share one length
  (--seconds); it exits naming the workload and the lengths otherwise;
* the whole-process wall time of `render`, `lift` (csv, json and bin),
  `robustness` and `bench` on their committed configs, and the sha256
  of every file one run of each writes (but `bench.json`, which holds
  timings), so two records show whether the artifacts' bits moved.
  With --parent DIR the same runs are made in the parent checkout DIR
  too, alternating with the measured checkout repeat by repeat (the side
  that runs first alternates as well), and recorded under "parent", so
  the two sides' walls share the host's drift;
* the wall time and pass count of the Tier-1 suite;
* the numpy version and CPU count of the interpreter running it all.

Run the benchmark in the checkout first, for example

    python3 perfbench/run.py --workload robustness_study --seed 1 --seconds 35

then, from this repository,

    python3 scripts/bench_trajectory.py --pr N [--checkout DIR] [--parent DIR] [--seeds 1 2 3]

Every command runs with this interpreter, PYTHONPATH set to the
checkout's src/, one after the other; the output goes to BENCH_<N>.json
at the root of this repository.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Whole-process runs per CLI command; their median is recorded.
CLI_REPEATS = 3

# (name, command, committed config, extra flags)
CLI_RUNS = (
    ("render", "render", "experiment_render.json", ()),
    ("lift_csv", "lift", "experiment_lift.json", ("--format", "csv")),
    ("lift_json", "lift", "experiment_lift.json", ("--format", "json")),
    ("lift_bin", "lift", "experiment_lift.json", ("--format", "bin")),
    ("robustness", "robustness", "experiment_robustness.json", ()),
    ("bench", "bench", "experiment_bench.json", ()),
)


def benchmark_medians(checkout: Path, seeds) -> dict:
    """Median of each end-to-end metric over the untraced runs per workload.
    Exits when one workload's runs differ in length."""
    results = checkout / ".bench_out" / "results"
    runs: dict[str, list] = {}
    for path in sorted(results.glob("*.json")):
        report = json.loads(path.read_text())
        if report["trace"] != 0 or (seeds and report["seed"] not in seeds):
            continue
        runs.setdefault(report["workload"], []).append(report)
    out = {}
    for workload, reports in sorted(runs.items()):
        seconds = sorted({r["seconds"] for r in reports})
        if len(seconds) > 1:
            raise SystemExit(f"{workload}: runs of {seconds} s in {results}; a median "
                             "takes runs of one length (pick them with --seeds)")
        names = reports[0]["metrics"].keys()
        out[workload] = {
            "runs": len(reports),
            "seeds": sorted(r["seed"] for r in reports),
            "seconds": seconds,
            "failed": sum(r["failed"] for r in reports),
            "median": {
                name: statistics.median(r["metrics"][name]["value"] for r in reports)
                for name in names
            },
        }
    return out


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def artifact_digests(out: Path) -> dict:
    """sha256 of every file under out, keyed by its path relative to out,
    except bench.json, whose timings differ from run to run."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "bench.json"
    }


def run_order(sides, repeats: int):
    """(repeat, side) in the order the runs are made: every repeat runs
    each side once, and the side that runs first alternates."""
    for repeat in range(repeats):
        for side in (sides if repeat % 2 == 0 else sides[::-1]):
            yield repeat, side


def run_cli(checkout: Path, command: str, config: str, flags) -> tuple[float, dict]:
    """Wall time of one whole-process CLI run in checkout, and the digests
    of the artifacts it wrote.  Exits when the run fails."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sys.executable, "-m", "bevlift", command,
                "--config", str(checkout / "configs" / config), "--out", tmp, *flags]
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=checkout, env=_env(checkout),
                              capture_output=True, text=True)
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"{command} in {checkout} exited {done.returncode}: "
                             f"{done.stderr.strip()}")
        return wall, artifact_digests(Path(tmp))


def cli_walls(checkouts: dict) -> dict:
    """Per checkout (a name -> path mapping), the median whole-process wall
    time of each CLI run and the digests of the artifacts of its first run.
    The checkouts take turns run by run (see run_order)."""
    out: dict = {name: {} for name in checkouts}
    for name, command, config, flags in CLI_RUNS:
        walls: dict = {side: [] for side in checkouts}
        for repeat, side in run_order(list(checkouts), CLI_REPEATS):
            wall, digests = run_cli(checkouts[side], command, config, flags)
            walls[side].append(wall)
            if repeat == 0:
                out[side][name] = {"artifacts_sha256": digests}
        for side, runs in walls.items():
            out[side][name].update(median_s=statistics.median(runs), runs_s=runs)
    return out


def tier1_wall(checkout: Path) -> dict:
    """Wall time and outcome line of one Tier-1 run."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=checkout, env=_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    outcome = lines[-1] if lines else ""
    passed = re.search(r"(\d+) passed", outcome)
    return {
        "wall_s": wall,
        "passed": int(passed.group(1)) if passed else 0,
        "outcome": outcome,
        "exit_code": done.returncode,
    }


def git_head(checkout: Path):
    """The short commit hash of checkout's HEAD, or None outside git."""
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="trajectory index N of BENCH_N.json")
    parser.add_argument("--checkout", type=Path, default=ROOT, help="bevlift checkout to measure")
    parser.add_argument("--commit", default=None, help="commit label (default: git HEAD)")
    parser.add_argument("--parent", type=Path, default=None,
                        help="parent checkout whose CLI runs alternate with the checkout's")
    parser.add_argument("--seeds", type=int, nargs="*", default=None,
                        help="only benchmark runs with these seeds")
    args = parser.parse_args(argv)

    checkout = args.checkout.resolve()
    commit = args.commit if args.commit is not None else git_head(checkout)
    checkouts = {"checkout": checkout}
    if args.parent is not None:
        checkouts["parent"] = args.parent.resolve()
    walls = cli_walls(checkouts)
    record = {
        "pr": args.pr,
        "commit": commit,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
        "benchmark": benchmark_medians(checkout, set(args.seeds or ())),
        "cli_wall": walls["checkout"],
        "tier1": tier1_wall(checkout),
    }
    if args.parent is not None:
        record["parent"] = {"commit": git_head(checkouts["parent"]),
                            "cli_wall": walls["parent"]}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
