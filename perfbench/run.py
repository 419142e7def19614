#!/usr/bin/env python3
"""bevlift benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload frames_static --seed 0 --seconds 35 --trace 0

Run from a checkout of the repository; bevlift is imported from its src/
directory.  The workload's inputs are drawn from --seed.  Set-up (imports,
input generation and one warm-up item) is repeated and its median
reported; then items run back to back until they have been busy for
--seconds, each followed by an untimed check of its output.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced
and untraced groups of items: the traced ones wrap every layer entry
point in spans and give the per-layer metrics, and the untraced ones give
the tracing overhead.  A report goes to stdout, with the environment and
each workload's computed working set; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}.  Full results and spans are
written under .bench_out/results/.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import envinfo  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Timing stops at the next group boundary after this much wall time, so a
# run ends well inside the 180 s a benchmark run may take.
WALL_LIMIT_S = 120.0
WORKLOADS = ("frames_static", "frames_sway", "robustness_study", "lift_artifacts")
END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_ms": "ms",
                    "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def measure(wl, seconds: float, trace: bool, recorder, start: float):
    """Run items until busy for `seconds` (in trace mode: and at least one
    traced and one untraced group).  Returns per-item records."""
    records = []
    k = 0
    while True:
        traced = trace and (k // wl.group_size) % 2 == 0
        for _ in range(wl.group_size):
            inp = wl.inputs(k)
            patcher = None
            if traced:
                recorder.item = k
                patcher = spans.install(recorder, wl.layers, metrics.COUNTERS)
            t0 = time.perf_counter()
            try:
                with recorder.span(metrics.ITEM_SPAN) if traced else nullcontext():
                    out = wl.run(inp)
                error = None
            except Exception:  # an item that raises is a failed item
                out, error = None, traceback.format_exc()
            finally:
                seconds_taken = time.perf_counter() - t0
                if patcher is not None:
                    patcher.restore()
            try:
                problems = [error] if error else wl.check(k, inp, out)
            except Exception:  # a check that cannot read the output fails it
                problems = [traceback.format_exc()]
            # Drop the output before the next item, so it does not count
            # towards that item's memory.
            inp = out = None
            for problem in problems:
                print(f"item {k} FAILED: {problem}", file=sys.stderr)
            records.append({"item": k, "seconds": seconds_taken, "traced": traced,
                            "ok": not problems})
            k += 1
        busy = sum(r["seconds"] for r in records)
        kinds = {r["traced"] for r in records}
        if (busy >= seconds and (not trace or len(kinds) == 2)) or \
                time.perf_counter() - start > WALL_LIMIT_S:
            return records


def unit_of(name: str) -> str:
    if name.endswith(("self_s", "wall_s")):
        return "s"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("gbps_computed"):
        return "GB/s"
    if name.endswith(("bytes_written", "bytes_computed")):
        return "B"
    if name.endswith(("_frac", "ratio_depth_over_height")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bevlift" / "__init__.py").is_file():
        print(f"perfbench: no bevlift sources in {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    envinfo.cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - _T0

    out_root = ROOT / ".bench_out"
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out_root / run_id
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench_layers = workloads.layers()
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.make(args.workload, args.seed, ROOT, work, bench_layers)
        wl.warm_up()
        prepare_s.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(prepare_s)

    recorder = spans.Recorder()
    records = measure(wl, args.seconds, bool(args.trace), recorder, _T0)
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def throughput(rows):
        busy = sum(r["seconds"] for r in rows)
        return sum(r["ok"] for r in rows) / busy if busy else 0.0

    untraced = [r for r in records if not r["traced"]]
    latencies = [r["seconds"] for r in untraced]
    if args.trace:
        traced = [r for r in records if r["traced"]]
        values = metrics.layer_metrics(recorder.spans, recorder.counts,
                                       throughput(traced), throughput(untraced))
    else:
        values = {
            "setup_s": setup_s,
            "items_per_s": throughput(untraced),
            "item_p50_ms": 1000.0 * metrics.percentile(latencies, 50),
            "peak_rss_mb": peak_rss_mb,
        }
    result_metrics = {name: {"value": value,
                             "unit": END_TO_END_UNITS.get(name) or unit_of(name)}
                      for name, value in values.items()}

    env = envinfo.describe()
    llc = max((envinfo.size_bytes(s) for s in env["caches"].values()), default=0)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "working_set_bytes": wl.working_set, "llc_bytes": llc,
        "import_s": import_s, "prepare_s": prepare_s,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "items": records, "metrics": result_metrics,
    }
    results = out_root / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        recorder.write_jsonl(results / f"{run_id}.spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"working set {wl.working_set / 2**20:.1f} MiB (computed)  "
          f"LLC {llc / 2**20:.1f} MiB")
    print(f"items {len(latencies)} timed untraced, {attempted} attempted, {failed} failed, "
          f"failed_frac {report['failed_frac']:.4f}")
    if len(latencies) >= 100:
        p90 = 1000.0 * metrics.percentile(latencies, 90)
        print(f"item_p90_ms {p90:.3f} ms ({metrics.tail_samples(len(latencies), 90)} "
              f"samples beyond it)")
    for name, entry in result_metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
