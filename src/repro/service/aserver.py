"""The asyncio front-end: thousands of connections, one event loop.

The threading front-end (:mod:`repro.service.server`) spends one OS thread
per connection, so its concurrency ceiling is the thread scheduler -- warm
throughput *falls* as client counts rise, and a long-running request holds a
thread hostage for its whole duration.  This module replaces the transport
tier with a single-threaded ``asyncio`` server (stdlib only) while keeping
**every** matching semantic untouched:

* **Non-blocking accept/parse.**  An incremental HTTP/1.1 parser over
  ``asyncio`` streams: request heads are read with
  :meth:`~asyncio.StreamReader.readuntil`, bodies with
  :meth:`~asyncio.StreamReader.readexactly`, both under a read timeout so a
  slow-loris client (drip-feeding a request forever) is answered with 408
  and dropped instead of pinning resources.  Keep-alive is the default and
  *pipelined* requests are answered strictly in order -- the next request is
  parsed from the buffered stream as soon as the previous response is
  written.

* **Pool handoff.**  Requests are dispatched with
  ``loop.run_in_executor`` onto a small thread pool that calls the same
  transport-agnostic :meth:`MatchService.handle_request
  <repro.service.server.MatchService.handle_request>` the sync front-end
  uses; match execution still happens on the existing
  :class:`~repro.service.pool.SessionPool` /
  :class:`~repro.parallel.pool.ProcessSessionPool` shards, so responses are
  byte-identical across front-ends (locked down by
  ``tests/test_service_differential.py``).

* **Bounded queues with backpressure.**  At most ``max_queue`` requests may
  be admitted (executing or waiting for an executor thread) at once; the
  next request is answered ``429 Too Many Requests`` with a ``Retry-After``
  header *immediately* -- the event loop never queues unbounded work.
  During graceful drain idle keep-alive connections are closed at once,
  in-flight work runs to completion, and a request that still arrives gets
  ``503`` + ``Connection: close``.

* **Streaming jobs.**  ``GET /jobs/<id>/events`` responses are chunked
  NDJSON tails of a background job's event log
  (:mod:`repro.service.jobs`); a subscriber disconnect is detected promptly
  (an EOF watcher on the connection's read side) and reported to the job
  manager, which cancels ``cancel_on_disconnect`` jobs so their next chunk
  never runs.

Run it with ``coma serve --frontend async`` (the sync front-end stays the
default until an operator opts in), embed it via :func:`create_async_server`
/ :meth:`AsyncMatchServiceServer.run_in_thread`, or drive a whole process
with :func:`serve_async`.  See ``docs/service.md`` ("Async front-end and the
jobs API") for the operator guide.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from repro.exceptions import ServiceError
from repro.service.jobs import JobEventStream
from repro.service.server import MAX_BODY_BYTES, MatchService, __version__

#: Upper bound on one request head (request line + headers).
MAX_HEAD_BYTES = 64 * 1024
#: Default bound on admitted (executing + executor-queued) requests.
DEFAULT_MAX_QUEUE = 64
#: Default seconds a client may take to deliver a request head or body.
DEFAULT_READ_TIMEOUT = 30.0
#: Seconds the graceful shutdown waits for in-flight work before cutting.
DEFAULT_DRAIN_TIMEOUT = 30.0
#: Event-loop poll interval while tailing job events for a stream consumer.
_EVENT_POLL_SECONDS = 0.05

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 408: "Request Timeout",
    411: "Length Required", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _ConnectionClosed(Exception):
    """The client went away (EOF/reset) -- unwind the connection quietly."""


class _BadRequest(Exception):
    """An unparseable request; carries the (status, message) to answer with."""

    def __init__(self, status: int, message: str, close: bool = True):
        super().__init__(message)
        self.status = status
        self.close = close


class _ParsedRequest:
    """One parsed request: method, path, headers, decoded JSON payload."""

    __slots__ = ("method", "path", "headers", "payload", "keep_alive")

    def __init__(self, method: str, path: str, headers: Dict[str, str],
                 payload: Optional[dict], keep_alive: bool):
        self.method = method
        self.path = path
        self.headers = headers
        self.payload = payload
        self.keep_alive = keep_alive


class AsyncMatchServiceServer:
    """The asyncio HTTP shell around one :class:`MatchService`.

    Parameters
    ----------
    service:
        The transport-agnostic service core (shared vocabulary with the sync
        front-end: same endpoints, same bytes).
    host / port:
        The bind address (``port=0`` picks an ephemeral port; read the real
        one off :attr:`url` after :meth:`start`).
    max_queue:
        Backpressure bound: the maximum number of requests admitted at once
        (executing on the dispatch pool or waiting for a thread).  Request
        ``max_queue + 1`` is answered 429 with ``Retry-After`` immediately.
    executor_workers:
        Dispatch-pool threads (default: pool size + 2 -- enough to keep
        every worker shard busy plus cheap registry requests in flight).
    read_timeout:
        Seconds a client may take to deliver a request head or body before
        the connection is answered 408 and closed (the slow-loris guard).
        Also bounds how long an idle keep-alive connection is retained.
    verbose:
        Log request lines to stderr (default quiet; the CLI flips this).
    """

    def __init__(
        self,
        service: MatchService,
        host: str = "127.0.0.1",
        port: int = 8765,
        max_queue: int = DEFAULT_MAX_QUEUE,
        executor_workers: Optional[int] = None,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        verbose: bool = False,
    ):
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        if read_timeout <= 0:
            raise ServiceError(f"read_timeout must be > 0, got {read_timeout}")
        self.service = service
        self._host = host
        self._port = port
        self._max_queue = max_queue
        self._read_timeout = read_timeout
        self._verbose = verbose
        self._executor_workers = (
            executor_workers if executor_workers is not None
            else service.pool.size + 2
        )
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._in_flight = 0
        self._rejected_429 = 0
        self._rejected_503 = 0
        self._requests_served = 0
        self._connections: set = set()
        self._answering: set = set()  # connections with an admitted request
        self._draining = False
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def url(self) -> str:
        """The base URL clients should talk to (valid after :meth:`start`)."""
        return f"http://{self._host}:{self._port}"

    @property
    def port(self) -> int:
        """The bound port (the chosen one when constructed with ``port=0``)."""
        return self._port

    async def start(self) -> None:
        """Bind the listening socket and start accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_workers,
            thread_name_prefix="coma-async-dispatch",
        )
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port, limit=MAX_HEAD_BYTES
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self.service.frontend_name = "async"
        self.service.frontend_stats = self.frontend_stats

    def frontend_stats(self) -> dict:
        """The ``/stats`` ``frontend`` block: queue occupancy and rejections."""
        return {
            "kind": "async",
            "in_flight": self._in_flight,
            "max_queue": self._max_queue,
            "queue_free": max(0, self._max_queue - self._in_flight),
            "connections": len(self._connections),
            "requests_served": self._requests_served,
            "rejected_429": self._rejected_429,
            "rejected_503": self._rejected_503,
            "draining": self._draining,
        }

    def request_shutdown(self) -> None:
        """Begin a graceful shutdown from any thread (idempotent)."""
        loop, stop = self._loop, self._stop_event
        if loop is None or stop is None:
            return
        loop.call_soon_threadsafe(stop.set)

    async def close(self, drain_timeout: float = DEFAULT_DRAIN_TIMEOUT) -> None:
        """Graceful shutdown: drain in-flight work, then release everything.

        New connections are refused (listener closed) and idle keep-alive
        connections are closed at once.  Every already admitted request runs
        to completion (bounded by ``drain_timeout``), and its connection
        closes after the response.  A request on a connection accepted just
        before the listener closed is answered 503.  Then the dispatch pool
        and the service's persistent resources are closed.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for task in self._connections - self._answering:
            task.cancel()  # waiting for a next request: nothing to drain
        pending = {task for task in self._connections if not task.done()}
        if pending:
            done, still_running = await asyncio.wait(pending, timeout=drain_timeout)
            for task in still_running:  # cut stragglers past the deadline
                task.cancel()
            if still_running:
                await asyncio.wait(still_running, timeout=1.0)
        if self._server is not None:
            # From Python 3.12.1 this also waits for open connections, which
            # is why idle ones are closed first.
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.service.frontend_stats == self.frontend_stats:
            self.service.frontend_stats = None
        self.service.close()

    async def serve_until_stopped(self) -> None:
        """Start, serve until :meth:`request_shutdown` (or POST /shutdown), drain."""
        await self.start()
        try:
            await self._stop_event.wait()
        finally:
            await self.close()

    def _run_blocking(self, started: threading.Event) -> None:
        async def main() -> None:
            try:
                await self.start()
            except BaseException as error:  # bind failures surface to the caller
                self._startup_error = error
                started.set()
                return
            started.set()
            try:
                await self._stop_event.wait()
            finally:
                await self.close()

        asyncio.run(main())

    def run_in_thread(self) -> threading.Thread:
        """Run the server on a daemon thread with its own event loop.

        Blocks until the listening socket is bound (so :attr:`url` is valid
        on return) and re-raises any startup failure -- e.g. address in use
        -- in the calling thread.  Stop it with :meth:`request_shutdown`
        (thread-safe) and join the returned thread.
        """
        started = threading.Event()
        thread = threading.Thread(
            target=self._run_blocking, args=(started,),
            name="coma-async-server", daemon=True,
        )
        thread.start()
        if not started.wait(timeout=30):  # pragma: no cover - hung loop guard
            raise ServiceError("the async server did not start within 30s")
        if self._startup_error is not None:
            raise self._startup_error
        return thread

    # -- connection handling ---------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (_ConnectionClosed, ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        except Exception:  # pragma: no cover - defensive: never kill the loop
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except _BadRequest as bad:
                await self._write_json(
                    writer, bad.status, {"error": str(bad)}, keep_alive=not bad.close
                )
                if bad.close:
                    return
                continue
            if request is None:  # clean EOF between requests
                return
            task = asyncio.current_task()
            self._answering.add(task)
            try:
                keep_alive = await self._answer(reader, writer, request)
            finally:
                self._answering.discard(task)
            if not keep_alive or self._draining:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_ParsedRequest]:
        """Incrementally parse one request off the stream (None on clean EOF).

        Raises :class:`_BadRequest` for malformed/oversized/timed-out input
        and :class:`_ConnectionClosed` when the client vanished mid-request.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self._read_timeout
            )
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean close between keep-alive requests
            raise _BadRequest(400, "truncated request head")
        except asyncio.LimitOverrunError:
            raise _BadRequest(
                431, f"request head exceeds the {MAX_HEAD_BYTES} byte limit"
            )
        except (asyncio.TimeoutError, TimeoutError):
            raise _BadRequest(
                408,
                f"request head not received within {self._read_timeout}s "
                f"(slow client or stalled request)",
            )
        try:
            head_text = head.decode("latin-1")
            request_line, *header_lines = head_text.split("\r\n")
            method, target, version = request_line.split(" ", 2)
        except ValueError:
            raise _BadRequest(400, "malformed HTTP request line")
        if not version.startswith("HTTP/1."):
            raise _BadRequest(400, f"unsupported protocol {version!r}")
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, separator, value = line.partition(":")
            if not separator:
                raise _BadRequest(400, f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        keep_alive = version != "HTTP/1.0"
        connection = headers.get("connection", "").lower()
        if "close" in connection:
            keep_alive = False
        elif "keep-alive" in connection:
            keep_alive = True
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _BadRequest(
                411, "chunked request bodies are not supported; send a "
                     "Content-Length"
            )
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
            if length < 0:
                raise ValueError
        except ValueError:
            raise _BadRequest(400, f"invalid Content-Length {raw_length!r}")
        payload: Optional[dict] = None
        if length > MAX_BODY_BYTES:
            # Mirror the sync front-end: drain moderately oversized bodies so
            # the 413 is readable on the keep-alive connection; truly huge
            # declarations are cut off instead of read.
            close = True
            if length <= 4 * MAX_BODY_BYTES:
                close = not await self._drain_body(reader, length)
            raise _BadRequest(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES} byte limit", close=close,
            )
        if length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self._read_timeout
                )
            except asyncio.IncompleteReadError:
                raise _ConnectionClosed()
            except (asyncio.TimeoutError, TimeoutError):
                raise _BadRequest(
                    408,
                    f"request body not received within {self._read_timeout}s "
                    f"(slow client or stalled request)",
                )
            try:
                decoded = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise _BadRequest(
                    400, f"request body is not valid JSON: {error}", close=False
                )
            if not isinstance(decoded, dict):
                raise _BadRequest(
                    400, "the request body must be a JSON object", close=False
                )
            payload = decoded
        return _ParsedRequest(method.upper(), target, headers, payload, keep_alive)

    async def _drain_body(self, reader: asyncio.StreamReader, length: int) -> bool:
        """Read and discard ``length`` body bytes; False when the client quit."""
        remaining = length
        try:
            while remaining > 0:
                chunk = await asyncio.wait_for(
                    reader.read(min(remaining, 1 << 20)), self._read_timeout
                )
                if not chunk:
                    return False
                remaining -= len(chunk)
        except (asyncio.TimeoutError, TimeoutError):
            return False
        return True

    # -- dispatch --------------------------------------------------------------

    async def _answer(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: _ParsedRequest,
    ) -> bool:
        """Dispatch one parsed request and write its response.

        Returns whether the connection should be kept alive for the next
        (possibly already pipelined) request.
        """
        if self._verbose:  # pragma: no cover - ops aid
            print(f"{request.method} {request.path}", file=sys.stderr)
        bare_path = request.path.split("?")[0].rstrip("/")
        if request.method == "POST" and bare_path == "/shutdown":
            await self._write_json(
                writer, 200, {"status": "shutting down"}, keep_alive=False
            )
            self.request_shutdown()
            return False
        if self._draining:
            self._rejected_503 += 1
            await self._write_json(
                writer, 503,
                {"error": "the service is draining for shutdown"},
                keep_alive=False,
            )
            return False
        if self._in_flight >= self._max_queue:
            # Backpressure: reject *immediately* instead of queueing
            # unbounded work behind a saturated dispatch pool.
            self._rejected_429 += 1
            await self._write_json(
                writer, 429,
                {"error": f"the service is at capacity ({self._max_queue} "
                          f"requests admitted); retry shortly"},
                keep_alive=request.keep_alive,
                extra_headers={"Retry-After": "1"},
            )
            return request.keep_alive
        self._in_flight += 1
        try:
            status, response = await self._loop.run_in_executor(
                self._executor,
                self.service.handle_request,
                request.method, request.path, request.payload,
            )
        except Exception as error:  # pragma: no cover - defensive 500 path
            status, response = (500, {"error": f"internal error: {error}"})
        finally:
            self._in_flight -= 1
            self._requests_served += 1
        if isinstance(response, JobEventStream):
            await self._stream_events(reader, writer, response)
            return False  # event streams always close (tail semantics)
        # A shutdown that began meanwhile closes the connection after this.
        keep_alive = request.keep_alive and not self._draining
        await self._write_json(writer, status, response, keep_alive=keep_alive)
        return keep_alive

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Server: coma-match-service/{__version__} (async)",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            raise _ConnectionClosed()

    # -- job event streaming ---------------------------------------------------

    async def _stream_events(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        stream: JobEventStream,
    ) -> None:
        """Tail a job's event log to the client as chunked NDJSON.

        The loop polls the (thread-written) event log from the event loop --
        no executor thread is parked per subscriber -- and an EOF watcher on
        the connection's read side notices a dropped client promptly, even
        between events, so ``cancel_on_disconnect`` jobs stop before their
        next chunk is dispatched.
        """
        head = (
            f"HTTP/1.1 200 OK\r\n"
            f"Server: coma-match-service/{__version__} (async)\r\n"
            f"Content-Type: {stream.content_type}\r\n"
            f"Transfer-Encoding: chunked\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        eof_watch = asyncio.ensure_future(reader.read(1))
        try:
            while True:
                lines, finished = stream.poll()
                for line in lines:
                    writer.write(b"%x\r\n" % len(line) + line + b"\r\n")
                if lines:
                    await writer.drain()
                if finished and stream.drained:
                    break
                if eof_watch.done() or writer.is_closing():
                    raise _ConnectionClosed()
                await asyncio.sleep(_EVENT_POLL_SECONDS)
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (_ConnectionClosed, ConnectionResetError, BrokenPipeError, OSError):
            stream.disconnected()
        finally:
            eof_watch.cancel()


def create_async_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    service: Optional[MatchService] = None,
    verbose: bool = False,
    max_queue: int = DEFAULT_MAX_QUEUE,
    executor_workers: Optional[int] = None,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    **service_kwargs,
) -> AsyncMatchServiceServer:
    """Build a not-yet-started :class:`AsyncMatchServiceServer`.

    Mirrors :func:`repro.service.server.create_server`: pass an existing
    :class:`MatchService` or let one be built from ``service_kwargs``
    (``pool_size``, ``backend``, ``store_path``, ...).  Start it with
    :meth:`~AsyncMatchServiceServer.run_in_thread` (tests, embedding) or
    await :meth:`~AsyncMatchServiceServer.serve_until_stopped` on a loop you
    own.

    Examples
    --------
    >>> server = create_async_server(port=0, pool_size=1)
    >>> thread = server.run_in_thread()
    >>> server.url.startswith("http://127.0.0.1:")
    True
    >>> server.request_shutdown(); thread.join(timeout=10)
    """
    if service is None:
        service = MatchService(**service_kwargs)
    elif service_kwargs:
        raise ServiceError(
            f"pass either a service instance or service keyword arguments, "
            f"not both (got {sorted(service_kwargs)})"
        )
    return AsyncMatchServiceServer(
        service, host=host, port=port, max_queue=max_queue,
        executor_workers=executor_workers, read_timeout=read_timeout,
        verbose=verbose,
    )


def serve_async(
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = True,
    max_queue: int = DEFAULT_MAX_QUEUE,
    executor_workers: Optional[int] = None,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    **service_kwargs,
) -> None:
    """Run the async front-end until interrupted (``coma serve --frontend async``)."""
    server = create_async_server(
        host=host, port=port, verbose=verbose, max_queue=max_queue,
        executor_workers=executor_workers, read_timeout=read_timeout,
        **service_kwargs,
    )

    async def main() -> None:
        await server.start()
        print(f"coma match service listening on {server.url} "
              f"(frontend=async, backend={server.service.backend}, "
              f"workers={server.service.pool.size}, "
              f"max_queue={max_queue}); Ctrl-C to stop")
        try:
            await server._stop_event.wait()
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
