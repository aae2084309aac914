"""The benchmark's own arithmetic: percentiles, goodput, lateness, self time.

Pure functions over plain numbers, so ``test_arith.py`` can pin each rule
on synthetic inputs. Nothing here imports the program under test.
"""

import math
import statistics

#: Tail percentiles tried, highest first, by :func:`tail_percentile`.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the reading of one or two outliers.
MIN_BEYOND = 10


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty list")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values):
    return quartiles(values)[1]


def tail_percentile(samples, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    Returns ``{"percentile", "value", "beyond", "n"}``; ``beyond`` counts
    the samples ranked above the nearest-rank position, so it is the
    evidence behind the value. ``None`` when even the lowest rung has too
    few samples beyond it.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    for percent in ladder:
        rank = max(1, math.ceil(percent / 100.0 * n))
        beyond = n - rank
        if beyond >= min_beyond:
            return {
                "percentile": percent,
                "value": ordered[rank - 1],
                "beyond": beyond,
                "n": n,
            }
    return None


def due_time_latencies(due, sent, done):
    """Open-loop latency and generator lateness, both from the due time.

    ``due[i]`` is when request ``i`` was scheduled, ``sent[i]`` when the
    generator actually wrote it and ``done[i]`` when its reply arrived.
    Latency counts from ``due`` so a generator stall is charged to every
    request queued behind it; lateness (``sent - due``) says how far the
    generator itself fell behind its schedule.
    """
    if not len(due) == len(sent) == len(done):
        raise ValueError("due, sent and done need one entry per request")
    latency = [d - t for t, d in zip(due, done)]
    lateness = [max(0.0, s - t) for t, s in zip(due, sent)]
    return latency, lateness


def backlog_growing(outstanding, slack=2):
    """Whether in-flight requests rose across an open-loop window.

    ``outstanding[i]`` is the number of sent-but-unanswered requests when
    request ``i`` went out. A server that keeps up holds this flat; one
    that does not lets it climb. Compares the median of the last quarter
    with the first quarter's, allowing ``slack`` requests plus half the
    first quarter's level for jitter.
    """
    n = len(outstanding)
    if n < 8:
        return False
    quarter = n // 4
    head = statistics.median(outstanding[:quarter])
    tail = statistics.median(outstanding[-quarter:])
    return tail > head + max(slack, 0.5 * head)


def goodput(levels, limit):
    """The highest offered rate that met the latency limit without backlog.

    ``levels`` is a list of dicts with ``rate``, ``tail`` (the reported
    tail latency, ``None`` when too few samples), ``failed`` and
    ``growing``. A level qualifies when its tail latency is at most
    ``limit``, nothing failed and the backlog stayed flat. Returns 0.0
    when no level qualifies.
    """
    best = 0.0
    for level in levels:
        ok = (
            level["tail"] is not None
            and level["tail"] <= limit
            and not level["failed"]
            and not level["growing"]
        )
        if ok:
            best = max(best, float(level["rate"]))
    return best


def covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    ``spans`` is a list of dicts with ``id``, ``parent`` (``None`` for a
    root), ``start`` and ``end``. Children are clipped to the parent's
    interval and overlapping children are counted once. Returns a dict
    from span id to self time.
    """
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        inner = [
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children.get(span["id"], [])
        ]
        inner = [(a, b) for a, b in inner if b > a]
        result[span["id"]] = (span["end"] - span["start"]) - covered(inner)
    return result


def failed_fraction(failed, attempted):
    """Failed operations over attempted ones; 0 attempts is an error."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted
