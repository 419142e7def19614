"""Self-time, percentile and per-layer arithmetic of the benchmark."""
from types import SimpleNamespace

import numpy as np
import pytest

import metrics
import spans
from spans import Recorder, Span, covered_length, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("values", [[3.0], [5.0, 1.0], [4, 1, 3, 2], list(range(37))])
@pytest.mark.parametrize("q", [0, 10, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear_rule(values, q):
    assert metrics.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-12)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_tail_samples_counts_values_beyond_the_percentile():
    assert metrics.tail_samples(100, 90) == 10
    assert metrics.tail_samples(99, 90) == 9
    assert metrics.tail_samples(45, 50) == 22


def test_covered_length_merges_overlaps_and_gaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(0, 4), (1, 2)]) == 4.0


def test_self_time_subtracts_children_only_once():
    # item [0, 10] > cmd [1, 9] > write [2, 5] and [6, 8]; a bookkeeping span
    # under the item, after cmd, at [9, 9.5].
    trace = [
        Span("bench.item", 0.0, 10.0, -1, 0),
        Span("cli.cmd", 1.0, 9.0, 0, 0),
        Span("io.write_csv", 2.0, 5.0, 1, 0),
        Span("io.write_csv", 6.0, 8.0, 1, 0),
        Span(spans.BOOKKEEPING, 9.0, 9.5, 0, 0),
    ]
    assert self_times(trace) == pytest.approx([1.5, 3.0, 3.0, 2.0, 0.5])
    assert spans.self_time_by_name(trace) == pytest.approx(
        {"bench.item": 1.5, "cli.cmd": 3.0, "io.write_csv": 5.0, spans.BOOKKEEPING: 0.5})


def test_child_interval_is_clipped_to_its_parent():
    trace = [Span("a", 0.0, 2.0, -1, 0), Span("b", 1.0, 3.0, 0, 0)]
    assert self_times(trace) == pytest.approx([1.0, 2.0])


def test_recorder_nests_wrapped_calls_and_keeps_counting_out_of_the_layer():
    clock = FakeClock()
    rec = Recorder(clock)

    def leaf(x):
        clock.now += 2.0
        return x * 2

    def counter(recorder, result, args, kwargs):
        clock.now += 0.25
        recorder.count("leaf.calls", 1)

    traced_leaf = rec.wrap("leaf", leaf, counter)

    def outer():
        clock.now += 1.0
        value = traced_leaf(3)
        clock.now += 1.0
        return value

    rec.item = 7
    with rec.span("bench.item"):
        assert rec.wrap("outer", outer)() == 6
    own = spans.self_time_by_name(rec.spans)
    assert own == pytest.approx({"bench.item": 0.0, "outer": 2.0, "leaf": 2.0,
                                 spans.BOOKKEEPING: 0.25})
    assert rec.counts["leaf.calls"] == 1
    assert {s.item for s in rec.spans} == {7}


def test_layer_metrics_account_for_the_item_wall_time():
    trace = [
        Span("bench.item", 0.0, 4.0, -1, 0),
        Span("bevpool.pool", 1.0, 3.0, 0, 0),
        Span("bench.item", 10.0, 12.0, -1, 1),
        Span("bevpool.pool", 10.5, 11.5, 2, 1),
    ]
    counts = {"bevpool.pool.points_in": 300.0, "bevpool.pool.dropped": 30.0,
              "bevpool.pool.bytes_computed": 6e9}
    out = metrics.layer_metrics(trace, counts, traced_ips=0.9, untraced_ips=1.0)
    assert out["bench.item.wall_s"] == pytest.approx(3.0)
    assert out["bevpool.pool.self_s"] == pytest.approx(1.5)
    assert out["bench.glue.self_s"] == pytest.approx(1.5)
    assert out["trace.accounted_frac"] == pytest.approx(1.0)
    assert out["bevpool.pool.points_in"] == pytest.approx(150.0)
    assert out["bevpool.pool.kept_frac"] == pytest.approx(0.9)
    assert out["bevpool.pool.gbps_computed"] == pytest.approx(2.0)
    assert out["trace.overhead_frac"] == pytest.approx(0.1)
    assert out["io.mb_per_s"] == 0.0


def test_patcher_restores_every_attribute():
    owner = SimpleNamespace(f=lambda: 1)
    patcher = spans.Patcher()
    original = owner.f
    patcher.patch(owner, "f", lambda: 2)
    assert owner.f() == 2
    patcher.restore()
    assert owner.f is original
