"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent, item): the benchmark wraps the public
functions of each bevlift layer where the caller looks the name up, so a
call records one span whose parent is the innermost open span.  Counts are
taken from return values, arguments and file sizes after the wrapped call
has returned; that bookkeeping runs inside a ``trace.bookkeeping`` child
span so it is never charged to the layer that was traced.

Self time of a span is its duration minus the part of its interval that
its child spans cover.  Summed over the spans of an item, self times
partition the item's wall time exactly.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    item: int


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.item = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.item))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn, counter=None):
        """fn wrapped in a span; counter(recorder, result, args, kwargs)
        runs afterwards in a bookkeeping span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                book = self.open(BOOKKEEPING)
                try:
                    counter(self, result, args, kwargs)
                finally:
                    self.close(book)
            return result

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "item": span.item,
                }) + "\n")


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the covered part of its children, each
    child interval clipped to the parent's."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [
        (span.end - span.start) - covered_length(children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


class Patcher:
    """Replace module attributes with traced wrappers and put them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder: Recorder, bench_layers, counters: dict) -> Patcher:
    """Wrap every traced name where bevlift and the benchmark look it up.

    bench_layers is the benchmark's own namespace of layer entry points;
    counters maps a span name to its counter function.  The import of
    bevlift modules is deferred so this module also serves the tests.
    """
    import bevlift.cli as cli
    import bevlift.io as artio
    import bevlift.robustness as robustness

    names = {
        "render": "scene.render",
        "predict_height_distribution": "scene.predict",
        "predict_depth_distribution": "scene.predict",
        "build_wedge": "lifting.build_wedge",
        "build_wedge_depth": "lifting.build_wedge_depth",
        "lift_many_height": "lifting.lift_many",
        "lift_many_depth": "lifting.lift_many",
        "pool": "bevpool.pool",
        "perturb_rig": "robustness.perturb_rig",
        "localization_error": "robustness.localization_error",
        "scatter_overlap": "robustness.scatter_overlap",
        "write_csv": "io.write_csv",
        "write_json": "io.write_json",
        "write_tensor": "io.write_tensor",
        "load_config": "cli.load_config",
        "main": "cli.main",
    }
    patcher = Patcher()
    for owner in (cli, robustness, artio, bench_layers):
        for attr, span_name in names.items():
            if hasattr(owner, attr) and (attr != "main" or owner is bench_layers):
                original = getattr(owner, attr)
                patcher.patch(owner, attr, recorder.wrap(
                    span_name, original, counters.get(span_name)))
    patcher.patch(cli, "_COMMANDS", {
        command: recorder.wrap("cli.cmd", fn) for command, fn in cli._COMMANDS.items()
    })
    return patcher
