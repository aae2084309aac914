"""Tests for the benchmark's own arithmetic, on synthetic inputs.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_arith.py
"""

import statistics

import pytest

from arith import (
    backlog_growing,
    covered,
    due_time_latencies,
    failed_fraction,
    goodput,
    quartiles,
    self_times,
    tail_percentile,
)
from spans import Tracer


# -- percentile rule -----------------------------------------------------------


def test_tail_percentile_picks_highest_rung_with_ten_beyond():
    samples = list(range(1, 1001))  # 1..1000
    tail = tail_percentile(samples)
    # p99.9 leaves 1 sample beyond, p99 leaves 10: p99 is the highest.
    assert tail == {"percentile": 99.0, "value": 990.0, "beyond": 10,
                    "n": 1000}


def test_tail_percentile_falls_back_as_samples_shrink():
    assert tail_percentile(range(1, 201))["percentile"] == 95.0
    assert tail_percentile(range(1, 201))["beyond"] == 10
    assert tail_percentile(range(1, 41))["percentile"] == 75.0
    assert tail_percentile(range(1, 21))["percentile"] == 50.0


def test_tail_percentile_none_without_enough_samples():
    assert tail_percentile(range(19)) is None
    assert tail_percentile([]) is None


def test_tail_percentile_ignores_input_order():
    forward = list(range(500))
    assert tail_percentile(forward) == tail_percentile(forward[::-1])


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


# -- goodput rule --------------------------------------------------------------


def _level(rate, tail, failed=0, growing=False):
    return {"rate": rate, "tail": tail, "failed": failed, "growing": growing}


def test_goodput_is_highest_rate_within_limit():
    levels = [_level(100, 0.005), _level(200, 0.009), _level(400, 0.030)]
    assert goodput(levels, limit=0.010) == 200


def test_goodput_rejects_growing_backlog_and_failures():
    levels = [_level(100, 0.005), _level(200, 0.006, growing=True),
              _level(400, 0.007, failed=1)]
    assert goodput(levels, limit=0.010) == 100


def test_goodput_zero_when_nothing_qualifies():
    assert goodput([_level(100, 0.5), _level(200, None)], limit=0.01) == 0.0


def test_backlog_growing_detects_climb_not_jitter():
    flat = [2, 3, 2, 1, 3, 2, 2, 3, 2, 1, 2, 3, 2, 2, 3, 2]
    climbing = list(range(0, 64, 4))
    assert not backlog_growing(flat)
    assert backlog_growing(climbing)
    assert not backlog_growing([0, 50, 100])  # too short to judge


# -- due-time latency and generator lateness -----------------------------------


def test_latency_counts_from_due_time_and_lateness_from_send():
    due = [0.0, 1.0, 2.0]
    sent = [0.0, 1.5, 2.0]  # the generator stalled on request 1
    done = [0.2, 1.7, 2.4]
    latency, lateness = due_time_latencies(due, sent, done)
    assert latency == pytest.approx([0.2, 0.7, 0.4])
    assert lateness == pytest.approx([0.0, 0.5, 0.0])


def test_lateness_never_negative_for_early_sends():
    _, lateness = due_time_latencies([1.0], [0.9], [1.1])
    assert lateness == [0.0]


def test_due_time_latencies_need_matching_lengths():
    with pytest.raises(ValueError):
        due_time_latencies([0.0], [0.0, 1.0], [1.0])


# -- self time of nested spans -------------------------------------------------


def _span(span_id, parent, start, end):
    return {"id": span_id, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_children_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),   # overlaps span 1 (another thread)
        _span(3, 1, 2.0, 3.0),   # grandchild: not subtracted from 0
        _span(4, 0, 9.0, 12.0),  # outlives its parent: clipped to 10
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.0)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_tracer_nests_spans_and_skips_reentry():
    tracer = Tracer()

    def inner():
        return tracer.call("inner", lambda: 7, (), {})

    def outer():
        # Re-entering the same layer is part of the outer span.
        return tracer.call("outer", lambda: tracer.call(
            "outer", inner, (), {}), (), {})

    assert outer() == 7
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 1
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["busy_s"] - summary["inner"]["busy_s"]
    )


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    assert tracer.call("layer", lambda x: x + 1, (1,), {}) == 2
    assert tracer.summary() == {}


def test_counter_adds_work_counts():
    tracer = Tracer()
    for rows in (3, 4):
        tracer.call("stats", lambda n: n, (rows,), {},
                    counter=lambda a, k, r: {"stats.rows": r})
    assert tracer.counts == {"stats.rows": 7}


# -- failed_frac ---------------------------------------------------------------


def test_failed_fraction_is_failed_over_attempted():
    assert failed_fraction(0, 30) == 0.0
    assert failed_fraction(3, 12) == 0.25


def test_failed_fraction_rejects_impossible_counts():
    with pytest.raises(ValueError):
        failed_fraction(0, 0)
    with pytest.raises(ValueError):
        failed_fraction(5, 4)
    with pytest.raises(ValueError):
        failed_fraction(-1, 4)
