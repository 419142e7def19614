"""BENCHMARK.json names exactly the metrics run.py reports, with its units."""
import json
from pathlib import Path

import metrics
import run
import workloads
from spans import Span

DOC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_are_ones_run_accepts():
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {w["name"] for w in DOC["workloads"]} <= set(run.WORKLOADS)


def test_end_to_end_metrics_and_units():
    assert {m["name"]: m["unit"] for m in DOC["end_to_end"]} == run.END_TO_END_UNITS


def test_per_layer_metrics_and_units():
    trace = [Span(metrics.ITEM_SPAN, 0.0, 1.0, -1, 0)]
    reported = metrics.layer_metrics(trace, {}, 1.0, 1.0)
    declared = {m["name"]: m["unit"] for m in DOC["per_layer"]}
    assert declared == {name: run.unit_of(name) for name in reported}
