"""The endpoint core: one HTTP front door (DESIGN.md §14).

``repro serve`` and ``repro fleet`` speak the same wire protocol, so
what they do identically lives here once: :class:`HTTPEndpoint` binds
the listener, runs the keep-alive connection loop and the route table,
and owns the lifecycle — ``start()`` on a background thread or
``run()`` under SIGTERM/SIGINT, then the graceful drain.
:class:`~repro.service.QueryService` and
:class:`~repro.fleet.FleetRouter` subclass it and supply only what
differs between them (the methods under "Override points").

The drain, stated once: stop accepting → wait until in-flight HTTP and
whatever else the subclass calls busy reach zero (bounded by
``drain_grace_s``) → close the keep-alive writers → :meth:`close` →
flush the registry snapshot to ``metrics_flush_path`` → one
``# repro-<role> drained: …`` line on stderr.  Requests arriving on
already-open connections meanwhile are answered (``/query`` with 503)
and told ``Connection: close``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
import traceback
from typing import Any, Dict, Optional, Set, Tuple, TypeVar

from ..telemetry import MetricsRecorder, MetricsRegistry, get_registry
from .http import (
    BadRequest,
    HTTPRequest,
    Response,
    json_response,
    read_request,
    write_response,
)

_E = TypeVar("_E", bound="HTTPEndpoint")


class HTTPEndpoint:
    """A long-lived HTTP/1.1 endpoint: listener, routes, drain.

    ``config`` is the subclass's own config record; the core reads its
    ``host``, ``port``, ``drain_grace_s`` and ``metrics_flush_path``.
    """

    #: Names the serving thread and the stderr lines (``repro-<role>``).
    role = "endpoint"

    def __init__(self, config: Any, registry: Optional[MetricsRegistry]) -> None:
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        #: Monotone counters; the subclass exports them under its prefix.
        self.metrics = MetricsRecorder()
        self._lock = threading.Lock()
        self._active_http = 0     # requests between parse and response
        self._draining = False
        self._drain_requested = False
        self._drain_async: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._ready = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        #: ``(host, port)`` once the listener is bound.
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Override points
    # ------------------------------------------------------------------
    async def _handle_query(self, request: HTTPRequest) -> Response:
        """Answer one ``POST /query``."""
        raise NotImplementedError

    def status(self) -> Dict[str, Any]:
        """The JSON snapshot behind ``GET /status``."""
        raise NotImplementedError

    def _health(self) -> Dict[str, Any]:
        """The ``GET /healthz`` payload."""
        return {"status": "draining" if self._draining else "ok"}

    def _busy(self) -> int:
        """Whether a drain must keep waiting (called under ``self._lock``)."""
        return self._active_http

    def _listening(self) -> None:
        """Start what runs beside the listener (``address`` is set)."""

    def close(self) -> None:
        """Release what outlives the drain (idempotent)."""

    def _drain_line(self, counters: Dict[str, int]) -> str:
        """The counters named on the ``drained:`` stderr line."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _amain(self, install_signals: bool = False) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop  # lock: set once before serving
        self._drain_async = asyncio.Event()  # lock: set once before serving
        if self._drain_requested:
            self._drain_async.set()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_drain)
                except (NotImplementedError, RuntimeError):
                    pass
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._listening()
        self._ready.set()
        try:
            await self._drain_async.wait()
            self._draining = True  # lock: monotonic flag, single writer
            server.close()
            await self._wait_idle(self.config.drain_grace_s)
            # Kick idle keep-alive connections so their handlers unwind
            # (their next read sees EOF); in-flight responses are done.
            for writer in list(self._writers):
                writer.close()
            await asyncio.sleep(0)
            await server.wait_closed()
        finally:
            self.close()
            self._flush_metrics()

    async def _wait_idle(self, grace_s: float) -> None:
        deadline = time.perf_counter() + grace_s
        while time.perf_counter() < deadline:
            with self._lock:
                busy = self._busy()
            if not busy:
                return
            await asyncio.sleep(0.02)

    def request_drain(self) -> None:
        """Begin a graceful drain (signal handlers land here).

        Safe from any thread and idempotent; the serving coroutine
        stops accepting, finishes in-flight work, flushes metrics.
        """
        self._draining = True  # lock: monotonic flag
        self._drain_requested = True  # lock: monotonic flag
        loop, event = self._loop, self._drain_async
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed: the drain has happened

    def run(self, install_signals: bool = True) -> int:
        """Serve until a drain completes (the ``repro <role>`` body);
        SIGTERM/SIGINT begin the drain."""
        asyncio.run(self._amain(install_signals))
        return 0

    def start(self: _E) -> _E:
        """Serve on a background thread (tests, in-process benchmarks)."""
        if self._serve_thread is not None:
            raise RuntimeError(f"repro-{self.role} already started")
        thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name=f"repro-{self.role}",
            daemon=True,
        )
        self._serve_thread = thread  # lock: set before the thread starts
        thread.start()
        if not self.wait_ready(15):
            raise RuntimeError(f"repro-{self.role} did not come up within 15s")
        return self

    def wait_ready(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the listener is bound (``address`` is readable)."""
        return self._ready.wait(timeout_s)

    def stop(self, timeout_s: float = 60.0) -> None:
        """Drain and wait for the serving thread (which calls :meth:`close`)."""
        self.request_drain()
        thread = self._serve_thread
        if thread is not None:
            thread.join(timeout_s)
            self._serve_thread = None  # lock: serving thread has exited

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError(f"repro-{self.role} is not listening yet")
        host, port = self.address
        return f"http://{host}:{port}"

    def _flush_metrics(self) -> None:
        """The drain-time metrics flush (file snapshot + stderr line)."""
        path = self.config.metrics_flush_path
        if path:
            try:
                with open(path, "w", encoding="utf-8") as sink:
                    json.dump(self.registry.snapshot(), sink, indent=2)
            except OSError as error:  # pragma: no cover - disk trouble
                print(
                    f"# repro-{self.role}: metrics flush failed: {error}",
                    file=sys.stderr,
                )
        counters = self.metrics.as_dict()["counters"]
        print(
            f"# repro-{self.role} drained: {self._drain_line(counters)}",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as error:
                    self.metrics.inc("rejected.bad_request")
                    response = json_response(400, {"error": str(error)})
                    await write_response(writer, *response, keep_alive=False)
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if request is None:
                    return
                with self._lock:
                    self._active_http += 1
                try:
                    try:
                        response = await self._dispatch(request)
                    except Exception:  # a handler bug must not drop the connection
                        traceback.print_exc(file=sys.stderr)
                        self.metrics.inc("errors.internal")
                        response = json_response(
                            500, {"error": "internal server error", "code": "internal"}
                        )
                    keep = request.keep_alive and not self._draining
                    await write_response(writer, *response, keep_alive=keep)
                finally:
                    with self._lock:
                        self._active_http -= 1
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(self, request: HTTPRequest) -> Response:
        if request.path == "/query":
            if request.method != "POST":
                return json_response(405, {"error": "POST /query"}, {"Allow": "POST"})
            return await self._handle_query(request)
        if request.method != "GET":
            return json_response(
                405, {"error": "method not allowed"}, {"Allow": "GET"}
            )
        if request.path == "/metrics":
            text = self.registry.render_text()
            return 200, text.encode("utf-8"), "text/plain; charset=utf-8", {}
        if request.path == "/healthz":
            return json_response(200, self._health())
        if request.path == "/status":
            return json_response(200, self.status())
        return json_response(404, {"error": f"no route {request.path}"})
