"""The grid worker: claim a job, run it, record it — survivably.

``python -m repro.grid.worker <grid-root>`` runs one worker process
against a grid directory (see :mod:`repro.grid.queue`). Arbitrarily many
workers — threads, processes, hosts on a shared filesystem — can serve
one grid concurrently; the queue's atomic-rename claims keep them from
colliding and the store's insert-or-verify keeps duplicate completions
honest.

Failure semantics, from gentle to violent:

* **Graceful drain** (SIGTERM, Ctrl-C): the in-flight annealing search
  returns its best-so-far (already checkpointed), the claim is released
  back to ``pending`` *without* bumping the attempt counter, and the
  partial per-job checkpoints stay on disk — the next claimant resumes
  mid-search bit-identically instead of restarting.
* **Job failure** (the thunk raises): the attempt counter is bumped and
  the job requeues, landing in ``failed`` after ``max_attempts``.
* **Hard death** (SIGKILL, power loss, the ``worker_crash`` fault
  point): nothing runs — the lease simply goes silent and any worker's
  next :meth:`~repro.grid.queue.JobQueue.reclaim_expired` sweep returns
  the job to ``pending``. This is the chaos-tested path.
* **Determinism violation** (the store refuses the result): the job is
  parked in ``failed`` and the worker dies loudly — this is a bug in the
  experiment, not in the grid, and must never be retried into silence.
"""

from __future__ import annotations

import argparse
import logging
import shutil
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.grid.queue import JobQueue, QueueError, default_owner
from repro.grid.runners import execute_job
from repro.grid.store import DeterminismViolation, ResultStore, git_revision
from repro.runtime.faults import fault_point

logger = logging.getLogger("repro.grid")

#: Default lease timeout; a worker silent this long loses its jobs.
DEFAULT_LEASE_TIMEOUT_S = 30.0


class GridWorker:
    """One claim-and-run loop over a grid directory.

    Parameters
    ----------
    root:
        The grid directory (jobs tree + ``results.sqlite``).
    index:
        Worker slot number; feeds the lease owner id and the
        ``worker_crash`` fault point.
    lease_timeout_s:
        Silence threshold after which *other* workers' leases are
        reclaimed; this worker heartbeats at a quarter of it.
    wait:
        When False (default) the worker exits once the queue is drained;
        when True it keeps polling for new submissions until drained via
        :meth:`request_drain`.
    generation:
        Incarnation number forwarded to the ``worker_crash`` fault point
        (``once``-gated faults only fire in generation 0).
    """

    def __init__(
        self,
        root: Union[str, Path],
        index: int = 0,
        max_attempts: int = 3,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        poll_s: float = 0.2,
        wait: bool = False,
        max_jobs: Optional[int] = None,
        generation: int = 0,
    ) -> None:
        self.root = Path(root)
        self.index = index
        self.generation = generation
        self.owner = default_owner(index)
        self.queue = JobQueue(self.root, max_attempts=max_attempts)
        self.store = ResultStore(self.root / "results.sqlite")
        self.lease_timeout_s = lease_timeout_s
        self.poll_s = poll_s
        self.wait = wait
        self.max_jobs = max_jobs
        self._stop = threading.Event()

    def request_drain(self) -> None:
        """Ask the loop to stop after (or instead of) the current job."""
        self._stop.set()

    def _checkpoint_dir(self, fingerprint: str) -> Path:
        return self.root / "checkpoints" / fingerprint

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_timeout_s / 4.0)
        while not self._stop.wait(interval):
            try:
                self.queue.heartbeat_held()
            except OSError:  # pragma: no cover - disk hiccup; retry next beat
                logger.exception("heartbeat failed; retrying")

    def run(self) -> Dict[str, int]:
        """Serve the queue until drained (or stopped); returns counters."""
        stats = {
            "completed": 0, "verified": 0, "failed": 0,
            "released": 0, "reclaimed": 0,
        }
        revision = git_revision(self.root)
        heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"grid-heartbeat-{self.index}",
            daemon=True,
        )
        heartbeat.start()
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and (
                    stats["completed"] + stats["verified"] >= self.max_jobs
                ):
                    break
                stats["reclaimed"] += len(
                    self.queue.reclaim_expired(self.lease_timeout_s)
                )
                claim = self.queue.claim(self.owner)
                if claim is None:
                    if self.queue.drained() and not self.wait:
                        break
                    time.sleep(self.poll_s)
                    continue
                self._run_claim(claim, revision, stats)
        except KeyboardInterrupt:
            logger.warning("worker %s interrupted while idle", self.owner)
        finally:
            self._stop.set()
            heartbeat.join(timeout=2.0)
        return stats

    def _run_claim(self, claim, revision, stats) -> None:
        job = claim.job
        fingerprint = job.fingerprint
        checkpoint_dir = self._checkpoint_dir(fingerprint)
        # A hard worker death strikes here, with the claim held: the lease
        # goes silent and reclaim_expired() must recover the job.
        fault_point(
            "worker_crash", worker=self.index, generation=self.generation
        )
        started = time.monotonic()
        try:
            label, values = execute_job(
                job.spec, checkpoint_dir=str(checkpoint_dir)
            )
        except KeyboardInterrupt:
            # Graceful drain: no attempt burned, checkpoints kept.
            self.queue.release(fingerprint, self.owner)
            stats["released"] += 1  # repro: noqa[REP005] - run()'s counters
            logger.warning(
                "worker %s drained; released %s with partial checkpoints",
                self.owner, fingerprint[:12],
            )
            self._stop.set()
            return
        except Exception as exc:
            state = self.queue.fail_attempt(
                fingerprint, self.owner, f"{type(exc).__name__}: {exc}"
            )
            stats["failed"] += 1  # repro: noqa[REP005] - run()'s counters
            logger.warning(
                "job %s attempt failed (%s) -> %s",
                fingerprint[:12], exc, state,
            )
            return
        elapsed = time.monotonic() - started
        try:
            inserted = self.store.record(
                fingerprint, job.spec, label, values,
                worker=self.owner,
                attempts=self.queue.attempts(fingerprint),
                elapsed_s=elapsed,
                revision=revision,
            )
        except DeterminismViolation as violation:
            # Not a grid failure — the experiment reproduced differently.
            # Park the job and die loudly; retrying would only hide it.
            self.queue.fail_attempt(
                fingerprint, self.owner, str(violation)
            )
            raise
        stats[  # repro: noqa[REP005] - run()'s counters, mutated by design
            "completed" if inserted else "verified"
        ] += 1
        try:
            self.queue.complete(fingerprint, self.owner)
        except QueueError:
            # The job was reclaimed while we ran (we looked dead). The
            # result is recorded and verified, so this race is benign.
            logger.warning(
                "job %s finished after being reclaimed; result stands",
                fingerprint[:12],
            )
        shutil.rmtree(checkpoint_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.grid.worker",
        description="Serve one grid directory: claim, run and record jobs.",
    )
    parser.add_argument("root", help="grid directory (jobs + results.sqlite)")
    parser.add_argument("--index", type=int, default=0,
                        help="worker slot number (default 0)")
    parser.add_argument("--generation", type=int, default=0,
                        help="incarnation number for fault gating")
    parser.add_argument("--max-attempts", type=int, default=3)
    parser.add_argument("--lease-timeout", type=float,
                        default=DEFAULT_LEASE_TIMEOUT_S,
                        help="seconds of lease silence before reclaim")
    parser.add_argument("--poll", type=float, default=0.2,
                        help="idle poll interval in seconds")
    parser.add_argument("--max-jobs", type=int, default=None)
    parser.add_argument("--wait", action="store_true",
                        help="keep polling after the queue drains")
    args = parser.parse_args(argv)

    logging.basicConfig(
        level=logging.INFO,
        format=f"[grid-worker {args.index}] %(levelname)s %(message)s",
    )
    worker = GridWorker(
        args.root,
        index=args.index,
        max_attempts=args.max_attempts,
        lease_timeout_s=args.lease_timeout,
        poll_s=args.poll,
        wait=args.wait,
        max_jobs=args.max_jobs,
        generation=args.generation,
    )

    def _drain(signum, frame):
        worker.request_drain()
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, _drain)
    try:
        stats = worker.run()
    except KeyboardInterrupt:
        stats = {"interrupted": 1}
    logger.info("worker %s done: %s", worker.owner, stats)
    print(
        " ".join(f"{key}={value}" for key, value in sorted(stats.items()))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())


#: Concurrency facts for the ``--threads`` pass (see
#: ``docs/static_analysis.md``): the heartbeat thread only touches the
#: queue's lock-guarded held-lease set; the stop event is the sole
#: cross-thread signal.
REPRO_SIGNATURES = {
    "@threads": ["GridWorker._heartbeat_loop"],
    "@blocking": ["GridWorker.run"],
}
