"""Asyncio link server speaking the :mod:`repro.serve.protocol` framing.

:class:`LinkServer` accepts TCP or unix-socket connections, parses frames
and drives a shared :class:`~repro.serve.engine.ServeEngine`. The read
loop enqueues ``encode``/``decode`` requests *synchronously* (stream
order = arrival order, see :meth:`ServeEngine.enqueue`) and answers each
one from a detached task as its batch completes, so a pipelining client
is never serialized on the slowest batch; control ops (``create_link``,
``stats``, ...) are answered inline.

:class:`BackgroundServer` runs a :class:`LinkServer` on a private event
loop in a daemon thread — the shape tests, benchmarks and examples use
to talk to a *real* server over a real socket from ordinary synchronous
code.
"""

from __future__ import annotations

import asyncio
import logging
import os
import sys
import threading
import traceback
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.serve.engine import (
    BatchPolicy,
    OverloadedError,
    ServeEngine,
    ServeEngineError,
)
from repro.serve.protocol import (
    ProtocolError,
    error_header,
    payload_to_words,
    read_frame,
    words_to_payload,
    write_frame,
)
from repro.serve.session import LinkConfig, LinkConfigError, LinkSession

logger = logging.getLogger("repro.serve")

#: ``op`` values the server answers.
OPS = (
    "ping", "create_link", "drop_link", "encode", "decode", "stats",
    "reset", "hello",
)

#: Responses remembered per client session (for reconnect replay).
SESSION_CACHE_LIMIT = 1024
#: Client sessions remembered per server (LRU beyond this).
MAX_CLIENT_SESSIONS = 64


def jsonable(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays for JSON serialization."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


class _SessionCache:
    """Recent and in-flight responses of one client session.

    A client that said ``hello`` with a session token may lose its
    connection after the server executed a request but before the
    response arrived. The cache answers the re-issued request with the
    *original* response instead of re-executing it — re-encoding would
    advance the codec history twice and corrupt the stream. Bounded LRU:
    a client window deeper than the bound cannot be replayed safely and
    surfaces as an ordinary unknown-request execution.

    The cache also tracks ids that are *still executing*: a reconnect
    can replay an id while the previous connection's dispatch task is
    mid-flight (the client's read timed out, but the server is merely
    slow), and only the responses of finished requests are in the LRU.
    :meth:`begin` hands such a replay the original's pending future so
    it waits for the one execution instead of starting a second.
    """

    def __init__(self, limit: int = SESSION_CACHE_LIMIT) -> None:
        self._responses: "OrderedDict[int, Tuple[Dict[str, Any], bytes]]" = (
            OrderedDict()
        )
        self._limit = limit
        self._inflight: Dict[
            int, "asyncio.Future[Tuple[Dict[str, Any], bytes]]"
        ] = {}

    def remember(
        self, request_id: Any, header: Dict[str, Any], payload: bytes
    ) -> None:
        if not isinstance(request_id, int):
            return
        self._responses[request_id] = (header, payload)
        self._responses.move_to_end(request_id)
        while len(self._responses) > self._limit:
            self._responses.popitem(last=False)

    def recall(
        self, request_id: Any
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        if not isinstance(request_id, int):
            return None
        return self._responses.get(request_id)

    def begin(
        self, request_id: Any
    ) -> Optional["asyncio.Future[Tuple[Dict[str, Any], bytes]]"]:
        """Mark ``request_id`` as executing; owner must :meth:`complete`.

        Returns the original's pending future when the id is already in
        flight — the caller must answer from that future rather than
        execute the request a second time (exactly-once across replay).
        Returns ``None`` when the caller owns the (single) execution.
        """
        if not isinstance(request_id, int):
            return None
        pending = self._inflight.get(request_id)
        if pending is not None:
            return pending
        self._inflight[request_id] = (
            asyncio.get_running_loop().create_future()
        )
        return None

    def complete(
        self, request_id: Any, header: Dict[str, Any], payload: bytes
    ) -> None:
        """Record a finished execution and wake replay waiters.

        Retriable NACKs are deliberately *not* remembered: they promise
        the request was never applied, so its re-issue under the same id
        must execute fresh instead of being answered with the stale NACK
        forever.
        """
        if not header.get("retriable"):
            self.remember(request_id, header, payload)
        if not isinstance(request_id, int):
            return
        pending = self._inflight.pop(request_id, None)
        if pending is not None and not pending.done():
            pending.set_result((header, payload))


class _Connection:
    """Per-connection state threaded through the dispatch path."""

    __slots__ = ("session", "shed")

    def __init__(self) -> None:
        self.session: Optional[_SessionCache] = None
        #: link id -> client request ids shed with a retriable NACK whose
        #: re-issue has not been admitted yet. While non-empty the link's
        #: stream is *fenced* on this connection: every later data/reset
        #: request is shed too, so a pipelining client can re-issue the
        #: shed requests in id order without forking the codec history.
        self.shed: Dict[str, set] = {}


def _fence_admits(conn: _Connection, link: str, request_id: Any) -> bool:
    """Whether the connection's order fence lets this request through.

    Admitted: no fence on the link, or the in-order re-issue of the
    lowest shed id (which steps out of the fence). Everything else must
    be shed again — applying it would put it ahead of a request the
    client sent earlier but the server never applied, forking a stateful
    codec's history.
    """
    shed = conn.shed.get(link)
    if not shed:
        return True
    if (
        isinstance(request_id, int)
        and request_id in shed
        and request_id == min(shed)
    ):
        shed.discard(request_id)
        if not shed:
            del conn.shed[link]
        return True
    return False


def _fence_record(conn: _Connection, link: str, request_id: Any) -> None:
    """Mark ``request_id`` shed: the link is fenced until its re-issue."""
    if isinstance(request_id, int):
        conn.shed.setdefault(link, set()).add(request_id)


def _fence_nack(link: str, request_id: Any) -> Dict[str, Any]:
    """The retriable NACK answering a request the order fence shed."""
    return error_header(
        request_id,
        OverloadedError(
            f"link {link!r}: an earlier request of this stream was "
            f"shed; re-issue the shed requests in id order"
        ),
        retriable=True,
    )


class LinkServer:
    """One engine behind one listening socket (TCP or unix)."""

    def __init__(
        self,
        engine: Optional[ServeEngine] = None,
        policy: Optional[BatchPolicy] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.engine = engine or ServeEngine(
            policy=policy, max_workers=max_workers
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Union[Tuple[str, int], str]] = None
        self._client_sessions: "OrderedDict[str, _SessionCache]" = (
            OrderedDict()
        )
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        #: Inode of the unix socket file this server bound.
        self._socket_ino: Optional[int] = None

    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
    ) -> None:
        """Listen on ``path`` (unix socket) or ``host:port`` (TCP).

        ``port=0`` binds an ephemeral port; :attr:`address` holds the
        actual endpoint either way.
        """
        if path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=path
            )
            self.address = path
            self._socket_ino = os.stat(path).st_ino
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=host, port=port
            )
            sockname = self._server.sockets[0].getsockname()
            self.address = (sockname[0], sockname[1])
        logger.info("serving coded links on %s", self.address)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            # One loop turn first, so an accept the loop already scheduled
            # attaches its transport while the server is open: Python 3.11
            # drops a transport that attaches after close() with its
            # socket still open.
            await asyncio.sleep(0)
            self._server.close()
            await self._server.wait_closed()
            self._server = None
            # Remove our socket file, unless another server rebound it.
            if self._socket_ino is not None:
                try:
                    if os.stat(str(self.address)).st_ino == self._socket_ino:
                        os.unlink(str(self.address))
                except OSError:
                    pass
        # wait_closed() does not cover handler coroutines on 3.11: a
        # client parked in read_frame would outlive the loop and leak a
        # GeneratorExit warning at GC. Cancel and reap them explicitly.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *self._conn_tasks, return_exceptions=True
            )
            self._conn_tasks.clear()
        await self.engine.close()

    # -- connection handling ------------------------------------------------

    def _client_session(self, token: str) -> _SessionCache:
        """The (possibly new) response cache of client session ``token``."""
        session = self._client_sessions.get(token)
        if session is None:
            session = _SessionCache()
            self._client_sessions[token] = session
        self._client_sessions.move_to_end(token)
        while len(self._client_sessions) > MAX_CLIENT_SESSIONS:
            self._client_sessions.popitem(last=False)
        return session

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
            me.add_done_callback(self._conn_tasks.discard)
        write_lock = asyncio.Lock()
        tasks = set()
        conn = _Connection()

        async def reply(
            header: Dict[str, Any], payload: bytes = b""
        ) -> None:
            # Best-effort: a peer that vanished mid-response loses the
            # frame, not the server. Session connections rely on this —
            # their in-flight tasks drain into the response cache after
            # the writer is gone, so the reconnecting client replays.
            try:
                async with write_lock:
                    await write_frame(writer, header, payload)
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                logger.debug("response write failed: %s", exc)

        try:
            while True:
                try:
                    header, payload = await read_frame(reader)
                except EOFError:
                    break
                task = self._dispatch(header, payload, reply, conn)
                if task is not None:
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
        except (ProtocolError, ConnectionResetError) as exc:
            logger.warning("dropping connection: %s", exc)
        except asyncio.CancelledError:
            # close() reaps parked handlers; end the task cleanly so the
            # stream wrapper's done-callback doesn't log the cancel.
            pass
        finally:
            if conn.session is None:
                for task in list(tasks):
                    task.cancel()
            # else: let in-flight responses finish into the session
            # cache; their replies to the dead writer are swallowed.
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            except asyncio.CancelledError:
                # Loop teardown cancels a handler that started after
                # close() reaped the others; writer.close() above already
                # releases the socket, so end as cleanly as a cancel in
                # the read loop does.
                pass

    def _dispatch(
        self,
        header: Dict[str, Any],
        payload: bytes,
        reply: Any,
        conn: Optional[_Connection] = None,
    ) -> Optional["asyncio.Task[None]"]:
        """Handle one request frame; returns the detached response task.

        Data-plane requests are enqueued synchronously *here*, in frame
        arrival order, before any await — that is what makes a client's
        stream order the codec's stream order.
        """
        request_id = header.get("id")
        op = header.get("op")
        loop = asyncio.get_running_loop()
        conn = conn or _Connection()
        session = conn.session

        if session is not None:
            cached = session.recall(request_id)
            if cached is not None:
                # Reconnect replay: the previous connection already
                # executed this id; answer with the original response.
                return loop.create_task(reply(cached[0], cached[1]))
            pending = session.begin(request_id)
            if pending is not None:
                # Replay raced the original (still executing, e.g. the
                # client's read timed out on a slow server): answer from
                # the one execution instead of starting a second, which
                # would advance the codec history twice.
                return loop.create_task(
                    self._answer_pending(pending, reply)
                )

        async def finish(
            response: Dict[str, Any], body: bytes = b""
        ) -> None:
            if session is not None:
                session.complete(request_id, response, body)
            await reply(response, body)

        async def fail(exc: Exception) -> None:
            await finish(error_header(request_id, exc))

        if session is not None and op in ("encode", "decode", "reset"):
            link_key = str(header.get("link"))
            if not _fence_admits(conn, link_key, request_id):
                _fence_record(conn, link_key, request_id)
                return loop.create_task(
                    finish(_fence_nack(link_key, request_id))
                )

        if op == "hello":
            token = header.get("session")
            if not isinstance(token, str) or not token:
                return loop.create_task(fail(
                    ValueError("hello needs a non-empty 'session' token")
                ))
            conn.session = self._client_session(token)
            return loop.create_task(reply({"id": request_id, "ok": True}))

        if op in ("encode", "decode"):
            link = header.get("link")
            deadline_s = header.get("deadline_s")
            if header.get("replay"):
                # Replayed requests were already accepted once; expiring
                # them now would fork the restored stream from history.
                deadline_s = None
            try:
                seq = header.get("seq")
                words = payload_to_words(payload)
                future = self.engine.enqueue(
                    str(link), op, words,
                    deadline_s=deadline_s,
                    seq=None if seq is None else int(seq),
                )
            except (
                ServeEngineError, ProtocolError, ValueError, TypeError
            ) as exc:
                if isinstance(exc, OverloadedError) and session is not None:
                    # Overload shed of a session (retrying) client: the
                    # request was never applied, so NACK it retriably —
                    # and fence the link so later pipelined requests are
                    # shed too and the re-issues land in stream order.
                    _fence_record(conn, str(link), request_id)
                    return loop.create_task(finish(
                        error_header(request_id, exc, retriable=True)
                    ))
                return loop.create_task(fail(exc))

            async def respond() -> None:
                try:
                    result = await future
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    await fail(exc)
                    return
                await finish(
                    {"id": request_id, "ok": True, "count": len(result)},
                    words_to_payload(result),
                )

            return loop.create_task(respond())
        return loop.create_task(
            self._control(op, header, request_id, finish, conn)
        )

    @staticmethod
    async def _answer_pending(
        pending: "asyncio.Future[Tuple[Dict[str, Any], bytes]]", reply: Any
    ) -> None:
        """Answer a replayed request from its original's future."""
        header, payload = await pending
        await reply(header, payload)

    async def _control(
        self,
        op: Optional[str],
        header: Dict[str, Any],
        request_id: Any,
        reply: Any,
        conn: Optional[_Connection] = None,
    ) -> None:
        try:
            result = await self._run_control(op, header)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # Always answer the frame — an unanswered id hangs blocking
            # clients. Expected errors are the client's fault; anything
            # else is a server bug worth a traceback in the log.
            if not isinstance(
                exc, (ServeEngineError, LinkConfigError, ValueError, KeyError)
            ):
                logger.exception("control op %r failed", op)
            # Overload NACKs are retriable on the control path too (a
            # fleet reset can be shed at the park limit): the request
            # was never applied and the client may re-issue it.
            retriable = isinstance(exc, OverloadedError)
            if (
                retriable
                and conn is not None
                and conn.session is not None
                and header.get("link") is not None
            ):
                _fence_record(conn, str(header["link"]), request_id)
            await reply(error_header(request_id, exc, retriable=retriable))
            return
        response = {"id": request_id, "ok": True}
        response.update(result)
        await reply(jsonable(response))

    async def _run_control(
        self, op: Optional[str], header: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"links": self.engine.link_ids}
        if op == "create_link":
            link_id = str(header.get("link"))
            config = LinkConfig.from_dict(header.get("config"))
            # The first session on a geometry fits the capacitance
            # model; keep that off the event loop.
            session = await asyncio.get_running_loop().run_in_executor(
                None, LinkSession, config
            )
            self.engine.add_link(link_id, session)
            return {"link": link_id, "info": session.info()}
        if op == "drop_link":
            await self.engine.drop_link(str(header.get("link")))
            return {}
        if op == "stats":
            link = header.get("link")
            return {
                "stats": self.engine.stats(
                    None if link is None else str(link),
                    include_histogram=bool(header.get("latency_state")),
                )
            }
        if op == "reset":
            seq = header.get("seq")
            self.engine.session(str(header.get("link"))).reset(
                seq=None if seq is None else int(seq)
            )
            return {}
        raise ValueError(f"unknown op {op!r}; known: {list(OPS)}")


class BackgroundServer:
    """A :class:`LinkServer` on a private event loop in a daemon thread.

    .. code-block:: python

        with BackgroundServer() as server:
            client = LinkClient.connect(server.address)

    The context manager guarantees the server is accepting connections on
    entry and fully torn down (engine included) on exit.
    """

    def __init__(
        self,
        policy: Optional[BatchPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        path: Optional[str] = None,
        max_workers: Optional[int] = None,
        server_factory: Optional[Callable[[], Any]] = None,
        stop_timeout_s: float = 30.0,
    ) -> None:
        self._policy = policy
        self._host = host
        self._port = port
        self._path = path
        self._max_workers = max_workers
        #: Builds the server object on the loop thread. Anything with
        #: the LinkServer surface (async start/close, .address) works —
        #: the fleet front rides the same harness.
        self._server_factory = server_factory
        self._stop_timeout_s = float(stop_timeout_s)
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Future] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[Any] = None

    @property
    def address(self) -> Union[Tuple[str, int], str]:
        if self.server is None or self.server.address is None:
            raise RuntimeError("server not running")
        return self.server.address

    def start(self) -> "BackgroundServer":
        if self._thread is not None:
            raise RuntimeError("already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError(
                f"server failed to start: {self._startup_error}"
            )
        return self

    def _run(self) -> None:
        # asyncio.run, not a bare run_until_complete: its teardown cancels
        # the tasks still pending (a connection that raced stop) and runs
        # the loop until their transports have closed their sockets.
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        if self._server_factory is not None:
            server = self._server_factory()
        else:
            server = LinkServer(
                policy=self._policy, max_workers=self._max_workers
            )
        try:
            await server.start(
                host=self._host, port=self._port, path=self._path
            )
        except Exception as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self.server = server
        self._stop = asyncio.get_running_loop().create_future()
        self._ready.set()
        try:
            await self._stop
        finally:
            await server.close()

    def stop(self) -> None:
        """Stop the loop and join its thread.

        Raises :class:`RuntimeError` — with the stuck thread's current
        stack — when the thread outlives ``stop_timeout_s``: a hung
        teardown must never masquerade as a clean stop (the daemon
        thread would keep mutating engine state behind the caller's
        back). The thread reference is kept so a later ``stop()`` can
        retry the join.
        """
        loop, stop = self._loop, self._stop
        if loop is None or self._thread is None:
            return
        thread = self._thread
        if stop is not None:
            def _finish() -> None:
                if not stop.done():
                    stop.set_result(None)
            try:
                loop.call_soon_threadsafe(_finish)
            except RuntimeError:
                # Loop already closed: the thread is past its teardown
                # (a retried stop() after a hang) — just join below.
                pass
        thread.join(timeout=self._stop_timeout_s)
        if thread.is_alive():
            frame = sys._current_frames().get(thread.ident)
            stack = (
                "".join(traceback.format_stack(frame))
                if frame is not None else "  <stack unavailable>\n"
            )
            message = (
                f"server thread {thread.name!r} still alive "
                f"{self._stop_timeout_s:.1f}s after stop was requested; "
                f"stuck at:\n{stack.rstrip()}"
            )
            logger.error("%s", message)
            raise RuntimeError(message)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()


#: Concurrency facts for the ``--threads`` pass: the serve loop runs on
#: the background thread; everything it touches is event-loop-confined or
#: handed over via call_soon_threadsafe.
REPRO_SIGNATURES = {"@threads": ["BackgroundServer._run"]}
