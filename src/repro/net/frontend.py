"""The asyncio front door: many clients, one router, bounded in-flight.

:class:`ClusterFrontend` is what sits at the edge of a DESKS deployment.
It accepts client connections on an asyncio event loop (thousands of
mostly-idle connections cost coroutines, not threads), speaks the same
:mod:`repro.net.protocol` frames as the shard servers, and funnels
search requests into a :class:`~repro.cluster.ShardRouter` — local
shards or :class:`~repro.net.RemoteReplicaSet` transports, the front
door cannot tell.

The event loop never blocks: searches run on a bounded worker pool via
``run_in_executor``, and *admission control happens before the hop* — at
``max_inflight`` concurrent searches the front door answers with a typed
``OVERLOAD`` frame immediately instead of queueing unboundedly.  A shed
request costs microseconds; an accepted request's deadline budget rides
the request into the router, across the wire to the shard servers, and
back as ``partial=True`` when it runs out.  Replica failover is the
router's transport's job; the front door only has to not fall over.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..cluster import ShardRouter
from ..core import QueryResult
from ..lang import DqlError, DqlExecutor, DqlSyntaxError, RouterBackend
from ..service import MetricsRegistry
from . import protocol
from .protocol import ErrorCode, MessageType


class ClusterFrontend:
    """Serve a router's scatter-gather over asyncio with backpressure."""

    def __init__(self, router: ShardRouter,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 64,
                 num_workers: int = 8,
                 default_timeout: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1: {num_workers}")
        self.router = router
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.default_timeout = default_timeout
        self.metrics = metrics if metrics is not None else router.metrics
        #: Bound once the listener is up; ``(host, port)``.
        self.address: Optional[Tuple[str, int]] = None
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="desks-frontdoor")
        # Text statements run the same scatter-gather as binary frames;
        # the executor seam (repro.lang) is what makes that one line.
        self._statements = DqlExecutor(RouterBackend(router))
        # Touched only on the event loop thread, so a plain counter is
        # race-free; admission must not await (a queued acquire *is* the
        # unbounded queue this class exists to prevent).
        self._active = 0
        self._started = time.monotonic()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Open connections: handler task -> its writer (loop thread only).
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stop_requested: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ClusterFrontend":
        """Run the event loop on a background thread until :meth:`stop`."""
        ready = threading.Event()
        failure: list = []
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready, failure),
            name="desks-frontdoor-loop", daemon=True)
        self._thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return self

    def _run_loop(self, ready: threading.Event, failure: list) -> None:
        try:
            asyncio.run(self._serve_async(ready))
        except Exception as exc:  # desks: noqa-DAL011 - cause surfaced to start() via the failure list
            failure.append(exc)
        finally:
            ready.set()

    async def _serve_async(self, ready: threading.Event) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_requested = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.address = server.sockets[0].getsockname()[:2]
        ready.set()
        try:
            await self._stop_requested.wait()
        finally:
            server.close()
            # Close the connections still open and let their handlers
            # return: a handler the loop cancels on exit would have its
            # CancelledError logged by asyncio's stream callback.
            for writer in self._connections.values():
                writer.close()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await server.wait_closed()

    def stop(self) -> None:
        """Stop accepting, drain the loop, shut the worker pool down."""
        loop, stop_requested = self._loop, self._stop_requested
        if loop is not None and stop_requested is not None:
            try:
                loop.call_soon_threadsafe(stop_requested.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ClusterFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.metrics.counter("net_frontend_connections_total").increment()
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while True:
                try:
                    header = await reader.readexactly(protocol.HEADER_SIZE)
                    msg_type, length, crc = protocol.parse_header(header)
                    payload = (await reader.readexactly(length)
                               if length else b"")
                    protocol.check_payload(payload, crc, msg_type)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # client went away between/within frames
                except protocol.ProtocolError as exc:
                    self.metrics.counter(
                        "net_protocol_errors_total").increment()
                    await self._send(writer, protocol.encode_frame(
                        MessageType.ERROR, protocol.encode_error(
                            ErrorCode.BAD_REQUEST, str(exc))))
                    return
                frame = await self._dispatch(msg_type, payload)
                if not await self._send(writer, frame):
                    return
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, frame: bytes) -> bool:
        try:
            writer.write(frame)
            await writer.drain()
            return True
        except (ConnectionError, OSError):
            return False

    # -- request dispatch ----------------------------------------------------

    async def _dispatch(self, msg_type: MessageType,
                        payload: bytes) -> bytes:
        self.metrics.counter("net_frontend_requests_total").increment()
        try:
            if msg_type is MessageType.SEARCH_REQUEST:
                return await self._handle_search(payload)
            if msg_type is MessageType.HEALTH_REQUEST:
                return self._handle_health()
            if msg_type is MessageType.STATS_REQUEST:
                return self._handle_stats()
            if msg_type is MessageType.STATEMENT_REQUEST:
                return await self._handle_statement(payload)
        except protocol.ProtocolError as exc:
            self.metrics.counter("net_protocol_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.BAD_REQUEST, str(exc)))
        except Exception as exc:  # noqa: BLE001 - typed to the peer
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"))
        return protocol.encode_frame(
            MessageType.ERROR,
            protocol.encode_error(
                ErrorCode.BAD_REQUEST,
                f"{msg_type.name} is not a request type"))

    async def _handle_search(self, payload: bytes) -> bytes:
        query, budget = protocol.decode_search_request(payload)
        if budget is None:
            budget = self.default_timeout
        if budget is not None and budget <= 0.0:
            self.metrics.counter("net_deadline_expired_total").increment()
            return protocol.encode_frame(
                MessageType.SEARCH_RESPONSE,
                protocol.encode_search_response(
                    QueryResult([], partial=True)))
        if self._active >= self.max_inflight:
            self.metrics.counter("net_overload_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.OVERLOAD,
                    f"front door at its {self.max_inflight} in-flight "
                    "search limit"))
        self._active += 1
        try:
            response = await asyncio.get_running_loop().run_in_executor(
                self._executor, self.router.execute, query, budget)
        finally:
            self._active -= 1
        failure_cause = None
        if response.degraded:
            # Brownout: answer with what the surviving shards produced,
            # typed as a partial naming exactly which shards were lost,
            # instead of failing the whole query.
            failure_cause = ("shards unavailable: "
                            + ",".join(map(str, response.failed_shards)))
            self.metrics.counter("net_frontend_brownouts_total").increment()
        return protocol.encode_frame(
            MessageType.SEARCH_RESPONSE,
            protocol.encode_search_response(
                response.result,
                server_latency=response.latency_seconds,
                degraded=response.degraded,
                failure_cause=failure_cause,
                unavailable_shards=response.unavailable_shards))

    async def _handle_statement(self, payload: bytes) -> bytes:
        """Parse and execute one DQL statement frame off the event loop.

        Statements share the search path's admission control (parsing is
        microseconds, but a ``SELECT``/``EXPLAIN`` is a full scatter-
        gather) and run on the worker pool via ``run_in_executor`` so the
        loop never blocks.  Parse failures answer ``BAD_REQUEST`` with
        the caret rendering; ``EXPLAIN`` here is plan-only (the router
        cannot reconcile spans across shard processes).
        """
        statement, budget = protocol.decode_statement_request(payload)
        self.metrics.counter("net_frontend_statements_total").increment()
        if budget is None:
            budget = self.default_timeout
        if self._active >= self.max_inflight:
            self.metrics.counter("net_overload_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(
                    ErrorCode.OVERLOAD,
                    f"front door at its {self.max_inflight} in-flight "
                    "search limit"))
        self._active += 1
        try:
            outcome = await asyncio.get_running_loop().run_in_executor(
                self._executor, self._statements.execute, statement,
                budget)
        except DqlSyntaxError as exc:
            self.metrics.counter(
                "net_frontend_statement_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.BAD_REQUEST, exc.render()))
        except DqlError as exc:
            self.metrics.counter(
                "net_frontend_statement_errors_total").increment()
            return protocol.encode_frame(
                MessageType.ERROR,
                protocol.encode_error(ErrorCode.INTERNAL, str(exc)))
        finally:
            self._active -= 1
        return protocol.encode_frame(
            MessageType.STATEMENT_RESPONSE,
            protocol.encode_statement_outcome(outcome))

    def _handle_health(self) -> bytes:
        report = protocol.HealthReport(
            ok=True,
            shard_id=self.router.num_shards,
            generation=0,
            num_pois=sum(len(shard.spec)
                         for shard in self.router.shards),
            requests_total=self.metrics.counter(
                "net_frontend_requests_total").value,
            uptime_seconds=time.monotonic() - self._started)
        return protocol.encode_frame(MessageType.HEALTH_RESPONSE,
                                     protocol.encode_health_response(report))

    def _handle_stats(self) -> bytes:
        snapshot = self.metrics.to_dict()
        values = {"uptime_seconds": snapshot["uptime_seconds"],
                  "num_shards": self.router.num_shards,
                  "max_inflight": self.max_inflight}
        for name, value in snapshot["counters"].items():
            values[name] = value
        latency = snapshot["histograms"].get(
            "cluster_query_latency_seconds")
        if latency:
            for key in ("count", "mean", "p50", "p95", "p99"):
                values[f"cluster_latency_{key}"] = latency[key]
        return protocol.encode_frame(MessageType.STATS_RESPONSE,
                                     protocol.encode_stats_response(values))
