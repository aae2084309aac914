"""Per-link serving metrics: counters, latency histograms, energy accounts.

Two kinds of observability live here:

* **operational** — request/word counters, queue depth, shed and
  deadline-missed counts, a windowed words/s meter, and a log-bucketed
  latency histogram reporting p50/p95/p99;
* **physical** — :class:`EnergyAccount`, which accumulates the *exact*
  sufficient statistics of the physical bit stream a link has carried
  (integer transition Gram matrix, integer ones counts, the boundary
  sample between batches) and prices them with
  :class:`~repro.core.fastpower.CompiledPowerModel`. Because every
  accumulated quantity is an integer exactly representable in float64,
  the account's reported power is *bit-identical* to an offline
  ``CompiledPowerModel(BitStatistics.from_stream(stream), cap).power()``
  over the concatenation of all batches — the live coded-vs-uncoded
  savings a server reports are the paper's numbers, not an estimate.

All classes are thread-safe: the engine updates them from worker threads
while the control plane snapshots them from the event loop.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import constants
from repro.core.fastpower import CompiledPowerModel
from repro.stats.switching import BitStatistics
from repro.tsv.capmodel import LinearCapacitanceModel


#: Bucket boundaries shared by every latency histogram (seconds, 1 us ..
#: ~100 s, 8 per decade).  Module-level so fleet-level merges of
#: histograms recorded in different processes line up bucket for bucket.
_BUCKET_BOUNDS = np.logspace(-6.0, 2.0, 65)


def _percentile_from_counts(
    q: float, total: int, counts: np.ndarray, maximum: float
) -> float:
    """Percentile from one consistent (total, counts, max) snapshot."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in 0..100, got {q}")
    if total == 0:
        return 0.0
    bounds = _BUCKET_BOUNDS
    rank = q / 100.0 * total
    cumulative = 0
    for index, bucket in enumerate(counts):
        if bucket == 0:
            continue
        if cumulative + bucket >= rank:
            lo = bounds[index - 1] if index > 0 else 0.0
            hi = bounds[index] if index < len(bounds) else maximum
            fraction = (rank - cumulative) / bucket
            estimate = lo + (hi - lo) * min(max(fraction, 0.0), 1.0)
            # The true maximum is known exactly; never estimate past it.
            return float(min(estimate, maximum))
        cumulative += bucket
    return maximum


def _summary_from_counts(
    total: int, latency_sum: float, counts: np.ndarray, maximum: float
) -> Dict[str, float]:
    mean = latency_sum / total if total else 0.0
    return {
        "count": float(total),
        "mean_s": mean,
        "p50_s": _percentile_from_counts(50.0, total, counts, maximum),
        "p95_s": _percentile_from_counts(95.0, total, counts, maximum),
        "p99_s": _percentile_from_counts(99.0, total, counts, maximum),
        "max_s": maximum,
    }


def merge_latency_states(
    states: Sequence[Mapping[str, object]],
) -> Dict[str, float]:
    """Fold per-link histogram snapshots into one fleet-level summary.

    The fold is **commutative and order-invariant**: bucket counts and
    totals are integer sums, the maximum is a max, and the mean comes
    from :func:`math.fsum` over the per-histogram sums — fsum returns the
    correctly-rounded true sum, so any permutation of ``states`` (links
    arriving from workers in any order) produces the bit-identical
    summary.  That is what keeps the merge ``@deterministic`` under
    ``lint --exact`` even though workers answer stats races apart.
    """
    n_buckets = len(_BUCKET_BOUNDS) + 1
    counts = np.zeros(n_buckets, dtype=np.int64)
    total = 0
    maximum = 0.0
    sums: List[float] = []
    for state in states:
        if not isinstance(state, Mapping):
            raise ValueError(
                f"histogram state must be a mapping, "
                f"got {type(state).__name__}"
            )
        raw = state.get("counts")
        if raw is None:
            raise ValueError("histogram state is missing 'counts'")
        part = np.asarray(raw, dtype=np.int64)
        if part.shape != (n_buckets,):
            raise ValueError(
                f"histogram state needs {n_buckets} bucket counts, "
                f"got shape {part.shape}"
            )
        if (part < 0).any():
            raise ValueError("histogram bucket counts must be >= 0")
        counts += part
        total += int(state.get("total", int(part.sum())))
        maximum = max(maximum, float(state.get("max_s", 0.0)))
        sums.append(float(state.get("sum_s", 0.0)))
    return _summary_from_counts(total, math.fsum(sums), counts, maximum)


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile estimation.

    Buckets span 1 us .. ~100 s with 8 buckets per decade; percentiles
    interpolate linearly inside the bucket, which is accurate to ~15 %
    everywhere — plenty for p50/p95/p99 serving dashboards.
    """

    def __init__(self) -> None:
        self._bounds = _BUCKET_BOUNDS  # seconds
        self._counts = np.zeros(len(self._bounds) + 1, dtype=np.int64)
        self._total = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        index = int(np.searchsorted(self._bounds, seconds, side="right"))
        with self._lock:
            self._counts[index] += 1
            self._total += 1
            self._sum += float(seconds)
            if seconds > self._max:
                self._max = float(seconds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._total

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile latency in seconds (0..100)."""
        with self._lock:
            total = self._total
            counts = self._counts.copy()
            maximum = self._max
        return _percentile_from_counts(q, total, counts, maximum)

    def summary(self) -> Dict[str, float]:
        # One snapshot for everything, so p50 <= p95 <= p99 <= max even
        # while recorders are racing this reader.
        with self._lock:
            total, latency_sum = self._total, self._sum
            counts = self._counts.copy()
            maximum = self._max
        return _summary_from_counts(total, latency_sum, counts, maximum)

    def state_dict(self) -> Dict[str, object]:
        """Mergeable snapshot (see :func:`merge_latency_states`)."""
        with self._lock:
            return {
                "counts": [int(c) for c in self._counts],
                "total": int(self._total),
                "sum_s": float(self._sum),
                "max_s": float(self._max),
            }


class RateMeter:
    """Windowed event rate (words per second over the trailing window)."""

    def __init__(self, window_s: float = 10.0) -> None:
        self.window_s = float(window_s)
        self._events: List[tuple] = []  # (monotonic time, count)
        self._total = 0
        self._lock = threading.Lock()

    def add(self, count: int, now: Optional[float] = None) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._events.append((now, int(count)))
            self._total += int(count)
            self._prune(now)

    def _prune(self, now: float) -> None:
        cutoff = now - self.window_s
        drop = 0
        for stamp, _ in self._events:
            if stamp >= cutoff:
                break
            drop += 1
        if drop:
            del self._events[:drop]

    @property
    def total(self) -> int:
        with self._lock:
            return self._total

    def rate(self, now: Optional[float] = None) -> float:
        now = time.monotonic() if now is None else now
        with self._lock:
            self._prune(now)
            if not self._events:
                return 0.0
            span = now - self._events[0][0]
            count = sum(c for _, c in self._events)
        if span <= 0.0:
            return 0.0
        return count / span


class LinkMetrics:
    """Operational counters and gauges of one served link."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.batches = 0
        self.batched_requests = 0
        self.words_encoded = 0
        self.words_decoded = 0
        self.shed = 0
        self.deadline_missed = 0
        self.errors = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self.max_batch_words = 0
        self.latency = LatencyHistogram()
        self.throughput = RateMeter()
        self.created_at = time.monotonic()

    def note_submitted(self, queue_depth: int) -> None:
        with self._lock:
            self.requests += 1
            self.queue_depth = queue_depth
            if queue_depth > self.max_queue_depth:
                self.max_queue_depth = queue_depth

    def note_queue_depth(self, queue_depth: int) -> None:
        with self._lock:
            self.queue_depth = queue_depth

    def note_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def note_deadline_missed(self) -> None:
        with self._lock:
            self.deadline_missed += 1

    def note_error(self) -> None:
        with self._lock:
            self.errors += 1

    def note_batch(self, op: str, n_requests: int, n_words: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += n_requests
            if n_words > self.max_batch_words:
                self.max_batch_words = n_words
            if op == "encode":
                self.words_encoded += n_words
            else:
                self.words_decoded += n_words
        self.throughput.add(n_words)

    def snapshot(self, include_histogram: bool = False) -> Dict[str, object]:
        """Counter/gauge snapshot; ``include_histogram`` adds the raw
        latency bucket state so a fleet front can merge per-link
        histograms with :func:`merge_latency_states`."""
        with self._lock:
            uptime = time.monotonic() - self.created_at
            batches = self.batches
            data = {
                "requests": self.requests,
                "batches": batches,
                "words_encoded": self.words_encoded,
                "words_decoded": self.words_decoded,
                "shed": self.shed,
                "deadline_missed": self.deadline_missed,
                "errors": self.errors,
                "queue_depth": self.queue_depth,
                "max_queue_depth": self.max_queue_depth,
                "max_batch_words": self.max_batch_words,
                "mean_batch_requests": (
                    self.batched_requests / batches if batches else 0.0
                ),
                "uptime_s": uptime,
            }
        data["words_per_s"] = self.throughput.rate()
        data["latency"] = self.latency.summary()
        if include_histogram:
            data["latency_state"] = self.latency.state_dict()
        return data


#: Row cap per float32 Gram slab.  Partial sums inside one SGEMM are
#: integers bounded by the slab length; 2**22 keeps them two orders of
#: magnitude inside float32's exact-integer range (2**24).
_GRAM_SLAB_ROWS = 1 << 22


class EnergyAccount:
    """Exact online energy accounting of one physical bit stream.

    Accumulates, across arbitrarily-sized batches, the integer moments
    that :meth:`BitStatistics.from_stream` would compute on the whole
    stream — the transition Gram matrix ``sum_t db_t db_t^T``, the ones
    count ``sum_t b_t`` and the sample count — keeping the last sample of
    the previous batch so inter-batch transitions are counted too. All
    entries stay exactly representable in float64 (they are bounded by
    the sample count), so :meth:`normalized_power` reproduces the offline

    ``CompiledPowerModel(BitStatistics.from_stream(stream), cap).power()``

    bit for bit.
    """

    def __init__(
        self,
        n_lines: int,
        capacitance: Union[np.ndarray, LinearCapacitanceModel],
    ) -> None:
        if n_lines < 1:
            raise ValueError(f"n_lines must be >= 1, got {n_lines}")
        self.n_lines = int(n_lines)
        self._capacitance = capacitance
        self._gram = np.zeros((n_lines, n_lines), dtype=np.int64)
        self._ones = np.zeros(n_lines, dtype=np.int64)
        self._n_samples = 0
        self._last: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    def update(self, bits: np.ndarray) -> None:
        """Account one ``(batch, n_lines)`` physical bit batch."""
        bits = np.asarray(bits)
        if bits.ndim != 2 or bits.shape[1] != self.n_lines:
            raise ValueError(
                f"expected (batch, {self.n_lines}) bits, got {bits.shape}"
            )
        if bits.shape[0] == 0:
            return
        # One float32 block of transitions: a free first row for the
        # step from the previous batch's last sample, then this batch's.
        deltas = np.empty_like(bits, dtype=np.float32)
        np.subtract(bits[1:], bits[:-1], out=deltas[1:], dtype=np.float32)
        with self._lock:
            if self._last is None:
                deltas = deltas[1:]
            else:
                np.subtract(
                    bits[0], self._last, out=deltas[0], dtype=np.float32
                )
            # Accumulate the transition Gram matrix through float32
            # SGEMM.  The deltas are exactly 0/±1, every product is 0/±1,
            # and each (blocked) partial sum is an integer bounded by the
            # slab length (2**22) — far inside the 2**24 range where
            # float32 holds integers exactly — so the product is
            # bit-equal to the int64 one, summation order
            # notwithstanding, at roughly 4x the throughput.
            for lo in range(0, deltas.shape[0], _GRAM_SLAB_ROWS):
                slab = deltas[lo:lo + _GRAM_SLAB_ROWS]
                gram = slab.T @ slab
                # Integer-valued float32 sums stay < 2**24: exact in any
                # order, so the int64 cast loses nothing.
                self._gram += gram.astype(np.int64)
            self._ones += bits.sum(axis=0, dtype=np.int64)
            self._n_samples += bits.shape[0]
            self._last = bits[-1].astype(np.uint8)

    def state_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of the exact accumulated stream moments.

        Every entry is a plain int (the Gram matrix, ones counts, sample
        count and boundary sample are integers by construction), so the
        snapshot survives JSON and the checkpoint store losslessly and a
        :meth:`load_state_dict` restore continues the accounting
        bit-identically.
        """
        with self._lock:
            return {
                "n_lines": self.n_lines,
                "gram": [[int(x) for x in row] for row in self._gram],
                "ones": [int(x) for x in self._ones],
                "n_samples": int(self._n_samples),
                "last": (
                    None if self._last is None
                    else [int(x) for x in self._last]
                ),
            }

    def load_state_dict(self, state: Mapping[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot (exact inverse)."""
        if not isinstance(state, Mapping):
            raise ValueError(
                f"account state must be a mapping, got {type(state).__name__}"
            )
        n = self.n_lines
        if state.get("n_lines") != n:
            raise ValueError(
                f"account state is for {state.get('n_lines')!r} lines, "
                f"account has {n}"
            )
        # np.asarray raises TypeError on None/non-numeric input; keep
        # the whole validation surface ValueError so callers (e.g.
        # LinkSession.restore's atomic rollback) catch one family.
        try:
            gram = np.asarray(state.get("gram"), dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"account state 'gram' must be an integer matrix: {exc}"
            ) from None
        if gram.shape != (n, n):
            raise ValueError(
                f"account state 'gram' must be ({n}, {n}), "
                f"got shape {gram.shape}"
            )
        try:
            ones = np.asarray(state.get("ones"), dtype=np.int64)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"account state 'ones' must be an integer vector: {exc}"
            ) from None
        if ones.shape != (n,):
            raise ValueError(
                f"account state 'ones' must have {n} entries, "
                f"got shape {ones.shape}"
            )
        n_samples = state.get("n_samples")
        if not isinstance(n_samples, int) or isinstance(n_samples, bool) \
                or n_samples < 0:
            raise ValueError(
                f"account state 'n_samples' must be an int >= 0, "
                f"got {n_samples!r}"
            )
        if (ones < 0).any() or (ones > n_samples).any():
            raise ValueError(
                "account state 'ones' counts must be in 0..n_samples"
            )
        raw_last = state.get("last")
        last: Optional[np.ndarray] = None
        if raw_last is not None:
            try:
                last = np.asarray(raw_last, dtype=np.int64)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"account state 'last' must be a bit vector: {exc}"
                ) from None
            if last.shape != (n,) or not np.isin(last, (0, 1)).all():
                raise ValueError(
                    f"account state 'last' must be {n} bits (0/1)"
                )
            last = last.astype(np.uint8)
        if (last is None) != (n_samples == 0):
            raise ValueError(
                "account state 'last' must be present exactly when "
                "n_samples > 0"
            )
        with self._lock:
            self._gram = gram.copy()
            self._ones = ones.copy()
            self._n_samples = n_samples
            self._last = last

    @property
    def n_samples(self) -> int:
        with self._lock:
            return self._n_samples

    @property
    def n_transitions(self) -> int:
        with self._lock:
            return max(0, self._n_samples - 1)

    def statistics(self) -> Optional[BitStatistics]:
        """The accumulated stream's :class:`BitStatistics`, or ``None``.

        Identical (to the last ulp) to ``BitStatistics.from_stream`` over
        the concatenated batches; ``None`` before two samples exist.
        """
        with self._lock:
            transitions = self._n_samples - 1
            if transitions < 1:
                return None
            coupling = self._gram / float(transitions)
            probabilities = self._ones / float(self._n_samples)
            n_samples = self._n_samples
        return BitStatistics(
            self_switching=np.diag(coupling).copy(),
            coupling=coupling,
            probabilities=probabilities,
            n_samples=n_samples,
        )

    def normalized_power(self) -> Optional[float]:
        """Normalized link power ``P_n`` [F] of the accumulated stream."""
        stats = self.statistics()
        if stats is None:
            return None
        return CompiledPowerModel(stats, self._capacitance).power()

    def report(
        self,
        vdd: float = constants.V_DD,
        frequency: float = constants.F_CLOCK,
    ) -> Dict[str, object]:
        power = self.normalized_power()
        return {
            "n_samples": self.n_samples,
            "normalized_power_farad": power,
            "power_mw": (
                None if power is None
                else 1.0e3 * power * vdd * vdd * frequency / 2.0
            ),
        }


#: Concurrency facts for the ``--threads`` pass (see
#: ``docs/static_analysis.md``): these classes are updated from worker
#: threads and snapshotted from the event loop, so every mutable field is
#: guarded by its owner's lock.
REPRO_SIGNATURES = {
    "@threads": [
        "LatencyHistogram.record",
        "RateMeter.add",
        "LinkMetrics.note_batch",
        "EnergyAccount.update",
    ],
    "@guards": [
        "LatencyHistogram._counts guarded_by _lock",
        "LatencyHistogram._total guarded_by _lock",
        "LatencyHistogram._sum guarded_by _lock",
        "LatencyHistogram._max guarded_by _lock",
        "RateMeter._events guarded_by _lock",
        "RateMeter._total guarded_by _lock",
        "LinkMetrics.requests guarded_by _lock",
        "LinkMetrics.batches guarded_by _lock",
        "LinkMetrics.batched_requests guarded_by _lock",
        "LinkMetrics.words_encoded guarded_by _lock",
        "LinkMetrics.words_decoded guarded_by _lock",
        "LinkMetrics.shed guarded_by _lock",
        "LinkMetrics.deadline_missed guarded_by _lock",
        "LinkMetrics.errors guarded_by _lock",
        "LinkMetrics.queue_depth guarded_by _lock",
        "LinkMetrics.max_queue_depth guarded_by _lock",
        "LinkMetrics.max_batch_words guarded_by _lock",
        "EnergyAccount._gram guarded_by _lock",
        "EnergyAccount._ones guarded_by _lock",
        "EnergyAccount._n_samples guarded_by _lock",
        "EnergyAccount._last guarded_by _lock",
    ],
}
