"""Multi-worker serve fleet: routing, supervision, *exact* failover.

:class:`FleetServer` is a front process speaking the ordinary
:mod:`repro.serve.protocol` to clients while sharding links across a
pool of worker **processes** (:mod:`repro.serve.worker`, one
:class:`~repro.serve.engine.ServeEngine` each). Clients — including the
existing CLI ``stream --verify`` flow — cannot tell a fleet from a
single server; what they gain is that a worker death no longer loses
codec history or energy accounting.

Routing
-------
Link ids map onto worker slots with **rendezvous (HRW) hashing** over
SHA-256: each candidate slot scores ``sha256(link_id "|" slot)`` and the
highest score wins. Deterministic across processes and restarts (no
seed, no RNG), uniform in expectation, and when a slot drains only the
links that lived on it move.

Exact failover
--------------
The front gives every state-mutating request on a link (``encode``,
``decode``, ``reset``) a monotonically increasing **sequence number**
and journals it *before* forwarding. The worker folds the number into
``LinkSession.applied_seq`` under the session lock — the same lock that
guards the codec mutation — so a :meth:`LinkSession.snapshot` is always
a consistent cut: requests numbered at or below ``applied_seq`` are in
the snapshot, the rest are not.

Every ``snapshot_every`` journaled requests the front takes an **epoch
snapshot** of the link: it parks new traffic, waits until every
*forwarded* request is answered (quiesce — parked requests don't count,
they were never sent), asks the worker for the session snapshot,
persists it through a :class:`~repro.runtime.artifacts.CheckpointStore`
(envelope + SHA-256 checksum; the ``snapshot_corrupt`` fault point fires
right after the write so chaos runs can tear the file), keeps an
in-memory copy as a second line of defence, and trims the journal up to
the snapshot's cut. The quiesce is what makes the trim safe: every
trimmed entry has already delivered its response, and parked entries
always carry sequence numbers above the cut.

When a worker dies (its channel drops, or heartbeats go unanswered
``heartbeat_misses`` times in a row), the front parks the affected
links, restarts the worker with exponential backoff and a bumped
*generation* (so ``worker_crash(i,once)`` chaos stays confined to the
first incarnation), and for each link:

1. ``restore_link`` — ship the link config plus the newest usable
   snapshot (checkpoint first — a corrupt file is evicted by the
   store's checksum verification — then the in-memory copy);
2. **replay** the journal entries numbered after the snapshot's cut, in
   sequence order, flagged ``replay`` (the worker ignores deadlines
   during replay: an already-accepted request must be re-applied or the
   stream forks);
3. un-park the link and flush requests that arrived during the outage.

Requests the worker applied but never answered are answered from the
replay results; requests it never saw are simply applied. Chunk
invariance of every codec (``enc(x[:k]) ++ enc(x[k:]) == enc(x)``) plus
integer-exact energy accounting make the result **bit-identical** to an
uninterrupted run — the property ``tests/serve/test_fleet.py`` asserts
under an injected mid-stream ``worker_crash``.

An error response removes the entry from the journal: the serving stack
validates *before* mutating (word range checks at the chain boundary,
shedding at submit time), so a failed request was never part of the
stream and must not be replayed into it.

Drain
-----
:meth:`FleetServer.drain_worker` is the planned-maintenance path: park
the slot's links, settle in-flight work, take a final snapshot of each
link, move the links to surviving slots (restore + empty replay), then
terminate the worker. No request is lost; new links simply hash over
the remaining slots.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import signal
import subprocess
import sys
import tempfile
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.runtime.artifacts import CheckpointStore
from repro.runtime.faults import fault_point
from repro.runtime.supervision import Deadline
from repro.serve.client import exception_from_header
from repro.serve.engine import (
    BatchPolicy,
    EngineClosedError,
    OverloadedError,
    UnknownLinkError,
)
from repro.serve.metrics import merge_latency_states
from repro.serve.protocol import (
    error_header,
    pack_frame,
    read_frame,
)
from repro.serve.server import (
    LinkServer,
    _Connection,
    _fence_admits,
    _fence_nack,
    _fence_record,
    jsonable,
)
from repro.serve.session import LinkConfig

#: A worker's answer to a forwarded data request: response header + raw
#: payload bytes, passed through to the client without re-encoding.
_WireReply = Tuple[Dict[str, Any], bytes]

logger = logging.getLogger("repro.serve")

#: Checkpoint kind tag of fleet snapshot files.
SNAPSHOT_KIND = "fleet-link-snapshot"


def worker_for(link_id: str, slots: List[int]) -> int:
    """Rendezvous-hash ``link_id`` onto one of the candidate ``slots``.

    Highest-random-weight over SHA-256 digests: deterministic across
    processes (no RNG, no seed), uniform in expectation, and minimal
    movement — removing a slot only relocates the links that lived on
    it.
    """
    if not slots:
        raise ValueError("no worker slots available")
    best_slot, best_score = slots[0], b""
    for slot in slots:
        score = hashlib.sha256(f"{link_id}|{slot}".encode("utf-8")).digest()
        if score > best_score:
            best_slot, best_score = slot, score
    return best_slot


class _ChannelClosed(ConnectionError):
    """The worker channel dropped before this request was answered."""


class _WorkerChannel:
    """Multiplexed asyncio RPC channel to one worker process.

    :meth:`request` assigns an id, registers a future and **writes the
    frame synchronously** — the write order on the socket is the call
    order, which carries the engine's enqueue-order guarantee across
    the process boundary. A reader task matches responses by id; a read
    failure fails every pending future with :class:`_ChannelClosed`
    (distinguishable from a worker-*reported* error, which means the
    request was rejected before mutating anything).
    """

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[Any]"] = {}
        self._next_id = 0
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self.closed = False
        #: Called once, from the reader task, when the channel fails.
        self.on_failure: Optional[Callable[[], None]] = None

    async def open(self, path: str) -> None:
        self._reader, self._writer = await asyncio.open_unix_connection(path)
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    def request(
        self, header: Dict[str, Any], payload: bytes = b""
    ) -> "asyncio.Future[Any]":
        """Send one frame now (ordered); the future holds the response."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        if self.closed or self._writer is None:
            future.set_exception(_ChannelClosed("worker channel is down"))
            return future
        request_id = self._next_id
        self._next_id += 1
        self._pending[request_id] = future
        try:
            self._writer.write(pack_frame(dict(header, id=request_id), payload))
        except Exception as exc:
            self._pending.pop(request_id, None)
            future.set_exception(_ChannelClosed(str(exc)))
        return future

    async def call(
        self,
        header: Dict[str, Any],
        payload: bytes = b"",
        timeout: Optional[float] = None,
    ) -> Any:
        """Request and await the ``(header, payload)`` response."""
        return await asyncio.wait_for(self.request(header, payload), timeout)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                header, payload = await read_frame(self._reader)
                future = self._pending.pop(int(header.get("id", -1)), None)
                if future is not None and not future.done():
                    future.set_result((header, payload))
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if self.closed:
            return
        self.closed = True
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(
                    _ChannelClosed(f"worker channel lost: {exc}")
                )
        callback = self.on_failure
        if callback is not None:
            callback()

    async def close(self) -> None:
        self.closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            except Exception:  # pragma: no cover - reader died first
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:
                pass
            self._writer = None
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(_ChannelClosed("channel closed"))


class _WorkerHandle:
    """One worker slot: process, channel, lifecycle state."""

    def __init__(self, index: int, socket_path: Path) -> None:
        self.index = index
        self.socket_path = socket_path
        self.process: Optional[subprocess.Popen] = None
        self.channel = _WorkerChannel()
        #: Incarnation counter; passed to the worker at spawn so
        #: once-gated crash faults stay confined to generation 0.
        self.generation = 0
        self.restarts = 0
        #: "up" | "restarting" | "draining" | "stopped"
        self.state = "stopped"
        self.up = asyncio.Event()
        self.heartbeat_task: Optional["asyncio.Task[None]"] = None

    def kill(self) -> None:
        """Hard-stop the worker process (idempotent, blocking)."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            try:
                process.send_signal(signal.SIGKILL)
            except OSError:
                pass
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
            pass


class _JournalEntry:
    """One journaled state-mutating request (encode/decode/reset).

    The payload is the client's wire bytes, kept verbatim: the front
    never decodes the words, so forwarding and replay are byte-faithful
    and cost no array round trips. The future resolves to the worker's
    ``(response_header, body)`` pair.
    """

    __slots__ = ("seq", "op", "payload", "future", "deadline_s")

    def __init__(
        self,
        seq: int,
        op: str,
        payload: bytes,
        future: "asyncio.Future[_WireReply]",
        deadline_s: Optional[float],
    ) -> None:
        self.seq = seq
        self.op = op
        self.payload = payload
        self.future = future
        self.deadline_s = deadline_s


class _FleetLink:
    """Front-side state of one link: route, journal, snapshot."""

    def __init__(
        self, link_id: str, config: Dict[str, Any], worker_index: int
    ) -> None:
        self.link_id = link_id
        self.config = config
        self.worker_index = worker_index
        self.next_seq = 1
        #: seq -> entry, in seq order. An entry leaves the journal two
        #: ways only: an *error* response (the worker rejected it before
        #: mutating — it is not part of the stream) or a snapshot trim
        #: (it is inside the persisted cut). Everything else must stay
        #: replayable.
        self.journal: "OrderedDict[int, _JournalEntry]" = OrderedDict()
        self.since_snapshot = 0
        self.snapshot: Optional[Dict[str, Any]] = None
        self.snapshot_seq = 0
        self.snapshot_task: Optional["asyncio.Task[None]"] = None
        #: Cleared while the link cannot accept traffic (worker down,
        #: snapshot quiesce); submissions park instead of forwarding.
        self.ready = asyncio.Event()
        self.parked: List[_JournalEntry] = []
        #: Serializes install/restore so a crash-restart and a
        #: concurrent ``create_link`` cannot both install the link.
        self.install_lock = asyncio.Lock()
        self.info: Dict[str, Any] = {}

    def outstanding(self) -> List["asyncio.Future[_WireReply]"]:
        """Futures of *forwarded* but unanswered entries.

        Parked entries are excluded — they were never written to a
        worker, so quiescing must not (and could not) wait on them.
        """
        parked = {entry.seq for entry in self.parked}
        return [
            entry.future
            for entry in self.journal.values()
            if not entry.future.done() and entry.seq not in parked
        ]


class FleetServer(LinkServer):
    """Front of a worker fleet; serves the LinkServer client protocol.

    Parameters
    ----------
    n_workers:
        Worker processes to spawn (>= 1).
    runtime_dir:
        Directory for worker sockets and snapshot checkpoints; a private
        temp dir (removed on close) when omitted.
    policy:
        Batch policy shipped to every worker engine.
    snapshot_every:
        Journaled requests per link between epoch snapshots.
    heartbeat_interval_s / heartbeat_misses:
        Ping cadence per worker and consecutive misses before the front
        declares it dead. Heartbeats only catch *hangs* — a crashed
        worker closes its channel and is detected immediately — so the
        cadence can stay slow; pinging aggressively measurably taxes
        the data plane on small machines (every ping is two extra
        process wakeups competing with the stream for cores).
    backoff_base_s / backoff_max_s:
        Exponential restart backoff: ``min(base * 2**restarts, max)``.
    worker_boot_timeout_s:
        How long a spawned worker may take to accept its socket.
    park_limit:
        Requests parked per link while its worker is down; beyond it
        the front sheds with a *retriable* NACK.
    """

    def __init__(
        self,
        n_workers: int = 2,
        runtime_dir: Optional[str] = None,
        policy: Optional[BatchPolicy] = None,
        snapshot_every: int = 512,
        heartbeat_interval_s: float = 1.0,
        heartbeat_misses: int = 3,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        worker_boot_timeout_s: float = 20.0,
        park_limit: int = 256,
    ) -> None:
        # The inherited engine never sees data traffic (the front
        # forwards it); it exists so the LinkServer harness — start,
        # close, connection handling — works unchanged.
        super().__init__(policy=BatchPolicy(), max_workers=1)
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be >= 1, got {snapshot_every}"
            )
        self.n_workers = int(n_workers)
        self._policy = policy
        self.snapshot_every = int(snapshot_every)
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.heartbeat_misses = int(heartbeat_misses)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self.worker_boot_timeout_s = float(worker_boot_timeout_s)
        self.park_limit = int(park_limit)
        self._own_runtime_dir = runtime_dir is None
        self.runtime_dir = Path(
            runtime_dir
            if runtime_dir is not None
            else tempfile.mkdtemp(prefix="repro-fleet-")
        )
        self._store = CheckpointStore(
            self.runtime_dir / "snapshots", kind=SNAPSHOT_KIND
        )
        self.workers: List[_WorkerHandle] = []
        self.links: Dict[str, _FleetLink] = {}
        self._closing = False

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, handle: _WorkerHandle) -> None:
        try:
            handle.socket_path.unlink()
        except OSError:
            pass
        argv = [
            sys.executable, "-m", "repro.serve.worker",
            "--path", str(handle.socket_path),
            "--index", str(handle.index),
            "--generation", str(handle.generation),
        ]
        if self._policy is not None:
            argv += ["--policy", json.dumps(asdict(self._policy))]
        # The worker inherits the environment: PYTHONPATH so it can
        # import repro, REPRO_FAULTS so chaos plans reach the fleet's
        # data plane.
        handle.process = subprocess.Popen(argv)

    async def _wait_ready(self, handle: _WorkerHandle) -> None:
        deadline = Deadline(self.worker_boot_timeout_s)
        channel = _WorkerChannel()
        while True:
            # The socket file appears at bind(), before listen(): retry
            # until the worker accepts, not merely until the file exists.
            try:
                await channel.open(str(handle.socket_path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                pass
            process = handle.process
            if process is not None and process.poll() is not None:
                raise RuntimeError(
                    f"worker {handle.index} exited with code "
                    f"{process.returncode} before serving"
                )
            if deadline.expired():
                raise RuntimeError(
                    f"worker {handle.index} did not open "
                    f"{handle.socket_path} within "
                    f"{self.worker_boot_timeout_s:.1f}s"
                )
            await asyncio.sleep(0.01)
        channel.on_failure = lambda: self._on_worker_failure(handle)
        handle.channel = channel
        await channel.call({"op": "ping"}, timeout=self.worker_boot_timeout_s)

    async def _boot_worker(self, handle: _WorkerHandle) -> None:
        self._spawn(handle)
        await self._wait_ready(handle)
        handle.state = "up"
        handle.up.set()
        if handle.heartbeat_task is None:
            handle.heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat(handle)
            )

    async def _heartbeat(self, handle: _WorkerHandle) -> None:
        """Ping the worker; declare it dead after consecutive misses."""
        misses = 0
        while not self._closing and handle.state != "stopped":
            await asyncio.sleep(self.heartbeat_interval_s)
            if handle.state != "up":
                misses = 0
                continue
            try:
                await handle.channel.call(
                    {"op": "ping"},
                    timeout=self.heartbeat_interval_s
                    * max(1, self.heartbeat_misses),
                )
                misses = 0
            except (asyncio.TimeoutError, _ChannelClosed):
                misses += 1
                if misses >= self.heartbeat_misses and handle.state == "up":
                    logger.warning(
                        "worker %d missed %d heartbeats; declaring dead",
                        handle.index, misses,
                    )
                    misses = 0
                    self._on_worker_failure(handle)

    def _on_worker_failure(self, handle: _WorkerHandle) -> None:
        """Entry point of crash recovery (channel reader, heartbeat)."""
        if self._closing or handle.state in ("restarting", "stopped"):
            return
        handle.state = "restarting"
        handle.up.clear()
        for link in self.links.values():
            if link.worker_index == handle.index:
                link.ready.clear()
        asyncio.get_running_loop().create_task(self._restart(handle))

    async def _restart(self, handle: _WorkerHandle) -> None:
        """Kill, back off, respawn, restore every link, reopen traffic."""
        await handle.channel.close()
        await asyncio.get_running_loop().run_in_executor(None, handle.kill)
        backoff = min(
            self.backoff_base_s * (2 ** handle.restarts),
            self.backoff_max_s,
        )
        handle.restarts += 1
        logger.warning(
            "restarting worker %d (restart #%d) after %.3fs backoff",
            handle.index, handle.restarts, backoff,
        )
        await asyncio.sleep(backoff)
        if self._closing:
            return
        handle.generation += 1
        try:
            await self._boot_worker(handle)
        except RuntimeError as exc:
            logger.error("worker %d failed to restart: %s", handle.index, exc)
            handle.state = "up"  # re-arm failure detection for another try
            self._on_worker_failure(handle)
            return
        for link in list(self.links.values()):
            if link.worker_index != handle.index:
                continue
            try:
                await self._install_link(handle, link)
            except (_ChannelClosed, asyncio.TimeoutError):
                return  # crashed again; the next restart replays
            except Exception:
                logger.exception("restore of link %r failed", link.link_id)
                self._fail_link(link)

    def _fail_link(self, link: _FleetLink) -> None:
        """Exactness cannot be guaranteed: fail the link loudly."""
        self.links.pop(link.link_id, None)
        exc = EngineClosedError(
            f"link {link.link_id!r} could not be restored exactly"
        )
        for entry in list(link.journal.values()) + link.parked:
            if not entry.future.done():
                entry.future.set_exception(exc)
        link.journal.clear()
        link.parked = []

    # -- link install / restore / replay -------------------------------------

    def _snapshot_name(self, link: _FleetLink) -> str:
        digest = hashlib.sha256(link.link_id.encode("utf-8")).hexdigest()[:16]
        return f"link-{digest}"

    def _best_snapshot(self, link: _FleetLink) -> Optional[Dict[str, Any]]:
        """Newest usable snapshot: verified checkpoint, else memory.

        The checkpoint path is preferred so the store's checksum
        verification runs — a checkpoint torn by ``snapshot_corrupt``
        (or a real torn write) is evicted there and the in-memory copy
        takes over. Both carry the same ``applied_seq`` cut when valid.
        """
        checkpoint = self._store.load(self._snapshot_name(link))
        if checkpoint is not None:
            payload = checkpoint.payload
            if (
                isinstance(payload, dict)
                and payload.get("link") == link.link_id
                and isinstance(payload.get("snapshot"), dict)
                and payload["snapshot"].get("applied_seq")
                == link.snapshot_seq
            ):
                return payload["snapshot"]
            logger.warning(
                "ignoring mismatched snapshot checkpoint for link %r",
                link.link_id,
            )
        return link.snapshot

    async def _install_link(
        self, handle: _WorkerHandle, link: _FleetLink
    ) -> None:
        """Create/restore ``link`` on ``handle``, replay, reopen traffic.

        Serialized per link: the crash-restart path and a concurrent
        ``create_link`` can both land here; whoever wins installs, the
        other sees the link ready and returns.
        """
        async with link.install_lock:
            if link.ready.is_set():
                return
            snapshot = self._best_snapshot(link)
            header, _ = await handle.channel.call({
                "op": "restore_link",
                "link": link.link_id,
                "config": link.config,
                "snapshot": snapshot,
            })
            if not header.get("ok"):
                raise exception_from_header(header)
            link.info = header.get("info", {})
            restored_seq = int(header.get("applied_seq", 0))
            expected = link.snapshot_seq if snapshot is not None else 0
            if restored_seq != expected:
                raise RuntimeError(
                    f"link {link.link_id!r} restored at seq "
                    f"{restored_seq}, journal expects {expected}"
                )
            # Replay everything after the snapshot cut, in seq order.
            # Entries whose client already has the answer re-execute
            # silently (bit-identical by chunk invariance); pending
            # entries are answered from the replay responses. Parked
            # entries were never sent to the dead worker — they are not
            # replayed but flushed as fresh traffic below.
            parked = {entry.seq for entry in link.parked}
            for entry in list(link.journal.values()):
                if entry.seq <= restored_seq or entry.seq in parked:
                    continue
                self._send_entry(handle, link, entry, replay=True)
            # No await between ready.set() and the flush: the loop
            # cannot interleave a new submission ahead of parked ones.
            link.ready.set()
            flushed, link.parked = link.parked, []
            for entry in flushed:
                self._send_entry(handle, link, entry)

    # -- data plane ----------------------------------------------------------

    def _send_entry(
        self,
        handle: _WorkerHandle,
        link: _FleetLink,
        entry: _JournalEntry,
        replay: bool = False,
    ) -> None:
        """Forward one journaled request to the link's worker (ordered)."""
        header: Dict[str, Any] = {
            "op": entry.op,
            "link": link.link_id,
            "seq": entry.seq,
        }
        if entry.op != "reset":
            if replay:
                header["replay"] = True
            elif entry.deadline_s is not None:
                header["deadline_s"] = float(entry.deadline_s)
        worker_future = handle.channel.request(header, entry.payload)

        def on_response(
            wfut: "asyncio.Future[Any]", entry: _JournalEntry = entry
        ) -> None:
            if wfut.cancelled():
                return
            exc = wfut.exception()
            if isinstance(exc, _ChannelClosed):
                # The worker died with this request in flight. Leave the
                # journal entry (and its pending future) alone: the
                # restart path replays it and answers from the replay.
                return
            if exc is not None:  # pragma: no cover - local write error
                link.journal.pop(entry.seq, None)
                if not entry.future.done():
                    entry.future.set_exception(exc)
                return
            response, body = wfut.result()
            if response.get("ok"):
                if not entry.future.done():
                    entry.future.set_result((response, body))
            else:
                # Worker-reported error: validated/shed *before* any
                # mutation, so the request is not part of the stream —
                # drop it from the journal or replay would fork history.
                link.journal.pop(entry.seq, None)
                if not entry.future.done():
                    entry.future.set_exception(exception_from_header(response))

        worker_future.add_done_callback(on_response)

    def _submit_data(
        self,
        link_id: str,
        op: str,
        payload: bytes,
        header: Dict[str, Any],
        on_shed: Optional[Callable[[], None]] = None,
    ) -> "asyncio.Future[_WireReply]":
        """Journal one data request and forward (or park) it."""
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLinkError(f"unknown link {link_id!r}")
        future: "asyncio.Future[_WireReply]" = (
            asyncio.get_running_loop().create_future()
        )
        deadline_s = header.get("deadline_s")
        entry = _JournalEntry(
            self._next_seq(link), op, payload, future,
            None if deadline_s is None else float(deadline_s),
        )
        link.journal[entry.seq] = entry
        link.since_snapshot += 1
        handle = self.workers[link.worker_index]
        if link.ready.is_set() and handle.state == "up":
            self._send_entry(handle, link, entry)
            self._maybe_snapshot(link)
        else:
            self._park(link, entry, on_shed)
        return future

    def _next_seq(self, link: _FleetLink) -> int:
        seq = link.next_seq
        link.next_seq += 1
        return seq

    def _park(
        self,
        link: _FleetLink,
        entry: _JournalEntry,
        on_shed: Optional[Callable[[], None]] = None,
    ) -> None:
        """Hold a request while the link's worker is down/snapshotting."""
        if len(link.parked) >= self.park_limit:
            link.journal.pop(entry.seq, None)
            if on_shed is not None:
                # Record the shed *before* the NACK becomes visible:
                # later requests of the same pipelined stream must hit
                # the connection's order fence, or the client's re-issue
                # would be applied out of stream order.
                on_shed()
            entry.future.set_exception(OverloadedError(
                f"link {link.link_id!r} is failing over "
                f"({self.park_limit} requests already parked); retry"
            ))
            return
        link.parked.append(entry)

    # -- epoch snapshots ------------------------------------------------------

    def _maybe_snapshot(self, link: _FleetLink) -> None:
        if (
            link.since_snapshot < self.snapshot_every
            or link.snapshot_task is not None
        ):
            return
        link.since_snapshot = 0
        link.snapshot_task = asyncio.get_running_loop().create_task(
            self._snapshot_link(link)
        )

    async def _snapshot_link(self, link: _FleetLink) -> None:
        """One epoch: quiesce, snapshot, persist, trim the journal."""
        try:
            while True:
                handle = self.workers[link.worker_index]
                if handle.state != "up":
                    return  # the crash path owns the link now
                # Park new traffic and wait for forwarded requests to
                # settle. Loop: a crash-restart may reopen the link
                # mid-wait, letting fresh requests through — re-quiesce
                # until nothing forwarded is unanswered, so the trim
                # below never discards an unanswered entry.
                link.ready.clear()
                outstanding = link.outstanding()
                if not outstanding:
                    break
                await asyncio.wait(outstanding)
            header, _ = await handle.channel.call(
                {"op": "snapshot", "link": link.link_id}
            )
            if not header.get("ok"):
                raise exception_from_header(header)
            snapshot = header.get("snapshot")
            if not isinstance(snapshot, dict):
                raise ValueError("worker returned a malformed snapshot")
            self._commit_snapshot(link, snapshot)
        except (_ChannelClosed, asyncio.TimeoutError):
            pass  # the crash path owns recovery
        except Exception:
            logger.exception("epoch snapshot of link %r failed", link.link_id)
        finally:
            link.snapshot_task = None
            handle = self.workers[link.worker_index]
            if handle.state == "up" and not link.ready.is_set():
                link.ready.set()
                flushed, link.parked = link.parked, []
                for entry in flushed:
                    self._send_entry(handle, link, entry)

    def _commit_snapshot(
        self, link: _FleetLink, snapshot: Dict[str, Any]
    ) -> None:
        """Persist a snapshot and trim the journal up to its cut."""
        cut = int(snapshot.get("applied_seq", 0))
        path = self._store.save(
            self._snapshot_name(link),
            {"link": link.link_id, "snapshot": snapshot},
            step=cut,
        )
        # Chaos hook: snapshot_corrupt truncates the file we just
        # wrote; restore must evict it and fall back to memory.
        fault_point("snapshot_corrupt", path=path)
        link.snapshot = snapshot
        link.snapshot_seq = cut
        for seq in [s for s in link.journal if s <= cut]:
            del link.journal[seq]

    # -- protocol glue --------------------------------------------------------

    def _dispatch(
        self,
        header: Dict[str, Any],
        payload: bytes,
        reply: Any,
        conn: Optional[_Connection] = None,
    ) -> Optional["asyncio.Task[None]"]:
        op = header.get("op")
        if op not in ("encode", "decode"):
            return super()._dispatch(header, payload, reply, conn)
        # Same shape as LinkServer's data branch — synchronous journal
        # and forward in frame order — but the future comes from the
        # fleet path instead of a local engine.
        request_id = header.get("id")
        loop = asyncio.get_running_loop()
        session = conn.session if conn is not None else None
        if session is not None:
            cached = session.recall(request_id)
            if cached is not None:
                return loop.create_task(reply(cached[0], cached[1]))
            pending = session.begin(request_id)
            if pending is not None:
                # Replay raced the original (still executing): answer
                # from its future instead of journaling a second copy.
                return loop.create_task(
                    self._answer_pending(pending, reply)
                )

        async def finish(response: Dict[str, Any], body: bytes = b"") -> None:
            if session is not None:
                session.complete(request_id, response, body)
            await reply(response, body)

        link_key = str(header.get("link"))
        on_shed: Optional[Callable[[], None]] = None
        if session is not None and conn is not None:
            if not _fence_admits(conn, link_key, request_id):
                _fence_record(conn, link_key, request_id)
                return loop.create_task(
                    finish(_fence_nack(link_key, request_id))
                )
            fence_conn = conn

            def on_shed() -> None:
                _fence_record(fence_conn, link_key, request_id)

        try:
            future = self._submit_data(
                link_key, op, payload, header, on_shed
            )
        except Exception as exc:
            return loop.create_task(finish(_error(request_id, exc)))

        async def respond() -> None:
            try:
                worker_response, body = await future
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                await finish(_error(request_id, exc))
                return
            # The worker already validated the payload and priced the
            # batch; pass its count and coded bytes through verbatim.
            await finish(
                {
                    "id": request_id,
                    "ok": True,
                    "count": worker_response.get("count", 0),
                },
                body,
            )

        return loop.create_task(respond())

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"links": sorted(self.links)}
        if op == "create_link":
            return await self._create_link(header)
        if op == "drop_link":
            return await self._drop_link(str(header.get("link")))
        if op == "reset":
            return await self._reset_link(str(header.get("link")))
        if op == "stats":
            link = header.get("link")
            return await self._stats(None if link is None else str(link))
        if op == "fleet":
            return {"fleet": self.describe()}
        raise ValueError(
            f"unknown op {op!r}; known: ['ping', 'create_link', "
            f"'drop_link', 'encode', 'decode', 'stats', 'reset', "
            f"'hello', 'fleet']"
        )

    async def _create_link(self, header: Dict[str, Any]) -> Dict[str, Any]:
        link_id = str(header.get("link"))
        config = LinkConfig.from_dict(header.get("config"))
        if link_id in self.links:
            raise ValueError(f"link {link_id!r} already exists")
        slots = [
            h.index for h in self.workers
            if h.state not in ("stopped", "draining")
        ]
        index = worker_for(link_id, slots)
        link = _FleetLink(link_id, config.to_dict(), index)
        self.links[link_id] = link
        handle = self.workers[index]
        try:
            await asyncio.wait_for(
                handle.up.wait(), self.worker_boot_timeout_s
            )
            await self._install_link(handle, link)
        except (_ChannelClosed, asyncio.TimeoutError):
            # The worker died mid-create; the restart path installs the
            # link from its (empty) journal. Wait for that instead.
            try:
                await asyncio.wait_for(
                    link.ready.wait(), self.worker_boot_timeout_s
                )
            except asyncio.TimeoutError:
                self.links.pop(link_id, None)
                raise RuntimeError(
                    f"link {link_id!r} could not be created: worker "
                    f"{index} did not come back"
                ) from None
        except Exception:
            self.links.pop(link_id, None)
            raise
        return {"link": link_id, "info": link.info, "worker": index}

    async def _drop_link(self, link_id: str) -> Dict[str, Any]:
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLinkError(f"unknown link {link_id!r}")
        del self.links[link_id]
        self._store.discard(self._snapshot_name(link))
        exc = EngineClosedError("link dropped before request ran")
        for entry in list(link.journal.values()) + link.parked:
            if not entry.future.done():
                entry.future.set_exception(exc)
        handle = self.workers[link.worker_index]
        if handle.state == "up":
            try:
                await handle.channel.call(
                    {"op": "drop_link", "link": link_id}
                )
            except (_ChannelClosed, asyncio.TimeoutError):
                pass
        return {}

    async def _reset_link(self, link_id: str) -> Dict[str, Any]:
        """Journal a reset and apply it between batches (quiesced)."""
        link = self.links.get(link_id)
        if link is None:
            raise UnknownLinkError(f"unknown link {link_id!r}")
        future: "asyncio.Future[_WireReply]" = (
            asyncio.get_running_loop().create_future()
        )
        entry = _JournalEntry(self._next_seq(link), "reset", b"", future, None)
        link.journal[entry.seq] = entry
        handle = self.workers[link.worker_index]
        if not (link.ready.is_set() and handle.state == "up"):
            self._park(link, entry)
        else:
            # The worker applies reset inline (not through the batch
            # queue), so order it behind in-flight data by quiescing.
            outstanding = [f for f in link.outstanding() if f is not future]
            if outstanding:
                link.ready.clear()
                await asyncio.wait(outstanding)
                handle = self.workers[link.worker_index]
                if handle.state == "up":
                    link.ready.set()
                    flushed, link.parked = link.parked, []
                    self._send_entry(handle, link, entry)
                    for parked_entry in flushed:
                        self._send_entry(handle, link, parked_entry)
                else:
                    self._park(link, entry)
            else:
                self._send_entry(handle, link, entry)
        await future
        return {}

    async def _stats(self, link_id: Optional[str]) -> Dict[str, Any]:
        """Aggregate worker stats; merge per-link latency histograms."""
        if link_id is not None:
            link = self.links.get(link_id)
            if link is None:
                raise UnknownLinkError(f"unknown link {link_id!r}")
            handle = self.workers[link.worker_index]
            header, _ = await handle.channel.call(
                {"op": "stats", "link": link_id, "latency_state": True}
            )
            if not header.get("ok"):
                raise exception_from_header(header)
            stats = dict(header.get("stats", {}))
            stats["worker"] = link.worker_index
            return {"stats": stats}
        links: Dict[str, Any] = {}
        latency_states: List[Dict[str, Any]] = []
        for handle in self.workers:
            if handle.state != "up":
                continue
            try:
                header, _ = await handle.channel.call(
                    {"op": "stats", "latency_state": True}
                )
            except (_ChannelClosed, asyncio.TimeoutError):
                continue
            if not header.get("ok"):
                continue
            for name, entry in header.get("stats", {}).get(
                "links", {}
            ).items():
                entry["worker"] = handle.index
                links[name] = entry
                state = entry.get("metrics", {}).pop("latency_state", None)
                if state is not None:
                    latency_states.append(state)
        fleet: Dict[str, Any] = {"workers": self.describe()["workers"]}
        if latency_states:
            # Commutative fold — any worker/link order gives the same
            # bits (see merge_latency_states).
            fleet["latency"] = merge_latency_states(latency_states)
        return {"stats": {"links": links, "fleet": fleet}}

    def describe(self) -> Dict[str, Any]:
        """Control-plane view of the fleet (workers, links, routing)."""
        return {
            "n_workers": self.n_workers,
            "workers": [
                {
                    "index": handle.index,
                    "state": handle.state,
                    "generation": handle.generation,
                    "restarts": handle.restarts,
                    "pid": (
                        handle.process.pid
                        if handle.process is not None else None
                    ),
                }
                for handle in self.workers
            ],
            "links": {
                link_id: {
                    "worker": link.worker_index,
                    "next_seq": link.next_seq,
                    "snapshot_seq": link.snapshot_seq,
                    "journal_depth": len(link.journal),
                }
                for link_id, link in self.links.items()
            },
        }

    # -- drain ----------------------------------------------------------------

    async def drain_worker(self, index: int) -> None:
        """Gracefully retire worker ``index``: settle, move links, stop.

        Every link on the slot is parked, its in-flight requests
        settle, a final snapshot is taken, and the link is restored
        onto a surviving slot (the journal is empty after the snapshot,
        so the replay step is a no-op). Requests parked during the move
        are flushed to the new worker. Raises when this is the last
        live worker.
        """
        handle = self.workers[index]
        if handle.state != "up":
            raise RuntimeError(
                f"worker {index} is {handle.state}, cannot drain"
            )
        survivors = [
            h.index for h in self.workers
            if h.index != index and h.state == "up"
        ]
        if not survivors:
            raise RuntimeError("cannot drain the last live worker")
        handle.state = "draining"
        affected = [
            link for link in self.links.values()
            if link.worker_index == index
        ]
        for link in affected:
            link.ready.clear()
        for link in affected:
            outstanding = link.outstanding()
            if outstanding:
                await asyncio.wait(outstanding)
            header, _ = await handle.channel.call(
                {"op": "snapshot", "link": link.link_id}
            )
            if not header.get("ok"):
                raise exception_from_header(header)
            snapshot = header.get("snapshot")
            if not isinstance(snapshot, dict):
                raise ValueError("worker returned a malformed snapshot")
            self._commit_snapshot(link, snapshot)
            link.worker_index = worker_for(link.link_id, survivors)
            await self._install_link(self.workers[link.worker_index], link)
        handle.state = "stopped"
        handle.up.clear()
        await handle.channel.close()
        process = handle.process
        if process is not None and process.poll() is None:
            process.terminate()
            await asyncio.get_running_loop().run_in_executor(
                None, handle.kill
            )
        logger.info("worker %d drained and stopped", index)

    # -- lifecycle ------------------------------------------------------------

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
    ) -> None:
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        for index in range(self.n_workers):
            self.workers.append(_WorkerHandle(
                index, self.runtime_dir / f"worker-{index}.sock"
            ))
        await asyncio.gather(
            *(self._boot_worker(handle) for handle in self.workers)
        )
        await super().start(host=host, port=port, path=path)
        logger.info(
            "fleet front serving %d workers from %s",
            self.n_workers, self.runtime_dir,
        )

    async def close(self) -> None:
        self._closing = True
        loop = asyncio.get_running_loop()
        for handle in self.workers:
            handle.state = "stopped"
            if handle.heartbeat_task is not None:
                handle.heartbeat_task.cancel()
                try:
                    await handle.heartbeat_task
                except asyncio.CancelledError:
                    pass
                handle.heartbeat_task = None
            await handle.channel.close()
            process = handle.process
            if process is not None and process.poll() is None:
                process.terminate()
        for handle in self.workers:
            if handle.process is not None:
                await loop.run_in_executor(None, handle.kill)
            try:
                handle.socket_path.unlink()
            except OSError:
                pass
        exc = EngineClosedError("fleet closed")
        for link in self.links.values():
            for entry in list(link.journal.values()) + link.parked:
                if not entry.future.done():
                    entry.future.set_exception(exc)
        self.links.clear()
        await super().close()
        if self._own_runtime_dir:
            import shutil

            shutil.rmtree(self.runtime_dir, ignore_errors=True)


def _error(request_id: Any, exc: Exception) -> Dict[str, Any]:
    """An error response header; overload NACKs are marked retriable."""
    retriable = isinstance(exc, OverloadedError)
    return jsonable(error_header(request_id, exc, retriable=retriable))
