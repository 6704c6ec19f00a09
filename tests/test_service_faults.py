"""Fault injection against the HTTP front-end: misbehaving clients and load.

The differential suite proves the happy paths are byte-identical; this suite
proves the threaded server *fails* the way it promises to:

* a slow-loris client (drip-feeding a request head or body forever) is
  answered 408 and dropped within the read timeout, never pinning a worker;
* malformed request lines / invalid JSON / oversized bodies get clean 4xx
  JSON answers (and recoverable ones keep the connection alive);
* a saturated dispatch queue answers ``429`` + ``Retry-After`` immediately
  instead of queueing unbounded work, and a draining server answers 503;
* pipelined requests are answered strictly in order;
* a client that disconnects mid-event-stream gets its
  ``cancel_on_disconnect`` job cancelled -- and the pool is idle again
  afterwards (no leak);
* handler exceptions never leak a running match (``pool.idle`` equals
  ``pool.size`` again after 100 raising requests).
"""

from __future__ import annotations

import http.client
import json
import select
import socket
import struct
import threading
import time

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import MatchService, ServiceClient, SessionPool, create_server
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES, _ServiceRequestHandler


def _serve_then_drain(server) -> None:
    server.serve_forever()
    server.server_close()


def _start(read_timeout=30.0, max_queue=64, **service_kwargs):
    server = create_server(
        port=0, read_timeout=read_timeout, max_queue=max_queue, **service_kwargs
    )
    thread = threading.Thread(target=_serve_then_drain, args=(server,), daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    thread.join(timeout=10)


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _Unbuffered:
    """A socket view whose reader stops at the end of the current response.

    ``HTTPResponse(sock)`` reads through a buffered file, which can swallow
    the start of the next pipelined response along with this one.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def makefile(self, mode: str):
        return self._sock.makefile(mode, buffering=0)


def _read_response(sock: socket.socket) -> tuple:
    """One (status, headers, body) parsed off a raw socket."""
    response = http.client.HTTPResponse(_Unbuffered(sock))
    response.begin()
    body = response.read()
    return response.status, dict(response.getheaders()), body


class TestSlowLoris:
    def test_stalled_request_head_is_answered_408_and_dropped(self):
        server, thread = _start(read_timeout=0.5, pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"GET /health HT")  # ...and then never finish
            status, _, body = _read_response(sock)
            assert status == 408
            assert b"slow client or stalled request" in body
            assert sock.recv(64) == b""  # server closed the connection
            sock.close()
        finally:
            _stop(server, thread)

    def test_stalled_request_body_is_answered_408(self):
        server, thread = _start(read_timeout=0.5, pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(
                b"POST /match HTTP/1.1\r\nContent-Length: 50\r\n"
                b"Content-Type: application/json\r\n\r\n{\"so"
            )
            status, _, body = _read_response(sock)
            assert status == 408
            assert b"request body" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_a_stalled_connection_does_not_block_other_clients(self):
        server, thread = _start(read_timeout=5.0, pool_size=1)
        try:
            stalled = _connect(server.server_port)
            stalled.sendall(b"GET /heal")  # parked mid-request-line
            client = ServiceClient(server.url)
            start = time.monotonic()
            assert client.health()["status"] == "ok"
            assert time.monotonic() - start < 2.0  # served while one stalls
            stalled.close()
            client.close()
        finally:
            _stop(server, thread)


class TestMalformedInput:
    def test_garbage_request_line_is_a_400(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"NONSENSE\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 400
            assert b"malformed" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_invalid_json_body_is_a_400_and_keeps_the_connection(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            bad = b"{not json"
            sock.sendall(
                b"POST /match HTTP/1.1\r\n"
                + b"Content-Length: %d\r\n\r\n" % len(bad) + bad
            )
            status, headers, body = _read_response(sock)
            assert status == 400
            assert b"not valid JSON" in body
            assert headers["Connection"] == "keep-alive"
            # The same connection still serves the next (valid) request.
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            sock.close()
        finally:
            _stop(server, thread)

    def test_oversized_body_is_a_413_without_reading_it(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            declared = 5 * MAX_BODY_BYTES  # over the drain threshold: cut off
            sock.sendall(
                b"POST /schemas HTTP/1.1\r\n"
                + b"Content-Length: %d\r\n\r\n" % declared
            )
            status, headers, body = _read_response(sock)
            assert status == 413
            assert str(MAX_BODY_BYTES).encode() in body
            assert headers["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)

    def test_negative_content_length_is_a_400(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"POST /match HTTP/1.1\r\nContent-Length: -5\r\n\r\n")
            status, _, body = _read_response(sock)
            assert status == 400
            assert b"Content-Length" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_chunked_request_bodies_are_refused_with_411(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(
                b"POST /match HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
            status, _, body = _read_response(sock)
            assert status == 411
            sock.close()
        finally:
            _stop(server, thread)

    def test_an_http_0_9_request_line_gets_a_status_line_and_headers(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"GET /nowhere HTTP/0.9\r\n\r\n")
            answer = b""
            while chunk := sock.recv(65536):  # the server closes after the answer
                answer += chunk
            head, _, body = answer.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 404 ")
            assert b"Connection: close" in head
            assert json.loads(body) == {"error": "unknown route /nowhere"}
            sock.close()
        finally:
            _stop(server, thread)


class TestBackpressure:
    def test_queue_full_answers_429_with_retry_after_immediately(self):
        server, thread = _start(max_queue=3, pool_size=1)
        release = threading.Event()
        original = server.service.handle_request

        def blocking(method, path, payload=None):
            if path.rstrip("/") == "/block":
                release.wait(timeout=30)
                return 200, {"blocked": True}
            return original(method, path, payload)

        server.service.handle_request = blocking
        try:
            # Saturate every admission slot with parked requests.
            def park():
                sock = _connect(server.server_port)
                sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
                return sock

            parked = [park() for _ in range(3)]
            deadline = time.monotonic() + 10
            while server._in_flight < 3:
                assert time.monotonic() < deadline, "requests never admitted"
                time.sleep(0.01)

            # The next request must be rejected *now*, not queued.
            start = time.monotonic()
            sock = _connect(server.server_port)
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(sock)
            elapsed = time.monotonic() - start
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert b"at capacity" in body
            assert elapsed < 2.0  # rejected immediately, not after the stall
            # 429 keeps the keep-alive connection usable for the retry.
            assert headers["Connection"] == "keep-alive"

            release.set()
            for parked_sock in parked:  # the admitted requests all complete
                status, _, body = _read_response(parked_sock)
                assert status == 200 and json.loads(body)["blocked"]
                parked_sock.close()
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")  # the retry succeeds
            status, _, _ = _read_response(sock)
            assert status == 200
            sock.close()
            assert server._rejected_429 >= 1
        finally:
            release.set()
            server.service.handle_request = original
            _stop(server, thread)

    def test_draining_server_answers_503_and_closes(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)  # established before the drain
            server._draining = True  # what close() flips first during shutdown
            sock.sendall(b"GET /health HTTP/1.1\r\n\r\n")
            status, headers, body = _read_response(sock)
            assert status == 503
            assert b"draining" in body
            assert headers["Connection"] == "close"
            sock.close()
            assert server._rejected_503 >= 1
        finally:
            server._draining = False
            _stop(server, thread)


class TestGracefulShutdown:
    def test_idle_keep_alive_client_does_not_delay_shutdown(self):
        server, thread = _start(pool_size=1)
        client = ServiceClient(server.url)
        assert client.health()["status"] == "ok"  # its connection stays open, idle
        start = time.monotonic()
        server.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - start < 2.0
        client.close()

    def test_admitted_request_is_drained_then_its_connection_closes(self):
        server, thread = _start(pool_size=1)
        release = threading.Event()
        original = server.service.handle_request

        def blocking(method, path, payload=None):
            if path.rstrip("/") == "/block":
                release.wait(timeout=30)
                return 200, {"blocked": True}
            return original(method, path, payload)

        server.service.handle_request = blocking
        sock = _connect(server.server_port)
        try:
            sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            deadline = time.monotonic() + 10
            while server._in_flight < 1:
                assert time.monotonic() < deadline, "the request was never admitted"
                time.sleep(0.01)
            server.shutdown()
            threading.Timer(0.5, release.set).start()
            status, headers, body = _read_response(sock)
            assert status == 200 and json.loads(body)["blocked"]
            assert headers["Connection"] == "close"
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            release.set()
            sock.close()
            server.service.handle_request = original
            if thread.is_alive():
                _stop(server, thread)


class TestPipelining:
    def test_pipelined_requests_are_answered_strictly_in_order(self):
        server, thread = _start(pool_size=2)
        try:
            sock = _connect(server.server_port)
            sock.sendall(
                b"GET /health HTTP/1.1\r\n\r\n"
                b"GET /stats HTTP/1.1\r\n\r\n"
                b"GET /schemas HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            first = _read_response(sock)
            second = _read_response(sock)
            third = _read_response(sock)
            assert json.loads(first[2])["status"] == "ok"
            assert "uptime_seconds" in json.loads(second[2])
            assert json.loads(third[2]) == {"schemas": []}
            assert third[1]["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)


class TestDisconnectReapsJobs:
    def test_mid_stream_disconnect_cancels_the_job_without_leaking_a_shard(self):
        server, thread = _start(pool_size=1)
        service = server.service
        pool = service.pool
        slow_original = pool.match_many

        def slow_match_many(items):
            time.sleep(0.15)  # stretch each chunk so the stream outlives us
            return slow_original(items)

        pool.match_many = slow_match_many
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 200,
                chunk_size=1, cancel_on_disconnect=True,
            )

            sock = _connect(server.server_port)
            sock.sendall(
                f"GET /jobs/{job['job']}/events HTTP/1.1\r\n\r\n".encode()
            )
            head = sock.recv(4096)  # the 200 + at least the accepted event
            assert b"200 OK" in head
            # Hard disconnect: SO_LINGER(on, 0) turns close() into a RST,
            # which is what a crashed consumer looks like to the server.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()

            final = client.wait_job(job["job"], timeout=30.0)
            assert final["state"] == "cancelled"
            assert final["done"] < final["total"]  # stopped mid-campaign

            # The reap invariant: no shard left checked out by the dead job.
            deadline = time.monotonic() + 10
            while pool.idle != pool.size:
                assert time.monotonic() < deadline, (
                    f"leaked a shard: idle={pool.idle} size={pool.size}"
                )
                time.sleep(0.05)
            # ...and the pool still serves new work.
            assert client.match("PO1", "PO2")["correspondences"]
            client.close()
        finally:
            pool.match_many = slow_original
            _stop(server, thread)

    def test_disconnect_leaves_jobs_without_the_flag_running(self):
        server, thread = _start(pool_size=1)
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 6,
                chunk_size=2,  # default cancel_on_disconnect=False
            )
            sock = _connect(server.server_port)
            sock.sendall(
                f"GET /jobs/{job['job']}/events HTTP/1.1\r\n\r\n".encode()
            )
            assert b"200 OK" in sock.recv(4096)
            sock.close()  # polite FIN, job must keep running
            final = client.wait_job(job["job"], timeout=60.0)
            assert final["state"] == "done"
            assert final["done"] == 6
            client.close()
        finally:
            _stop(server, thread)


class _CountingWriter:
    """A handler's socket writer that records every write."""

    def __init__(self, inner, log: list):
        self._inner, self._log = inner, log

    def write(self, data):
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def writes(monkeypatch) -> list:
    """Every write the server's request handlers make, in order."""
    log: list = []
    setup = _ServiceRequestHandler.setup

    def counting_setup(self):
        setup(self)
        self.wfile = _CountingWriter(self.wfile, log)

    monkeypatch.setattr(_ServiceRequestHandler, "setup", counting_setup)
    return log


def _uploaded_client(server) -> ServiceClient:
    client = ServiceClient(server.url)
    client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
    client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
    return client


class TestOneWrite:
    """A JSON answer leaves in one write: status line, headers and body together."""

    def test_keep_alive_answers_and_errors_are_one_write_each(self, writes, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 1024)  # drained below 4x
        server, thread = _start(pool_size=1)
        try:
            _uploaded_client(server).close()
            body = json.dumps({"source": "PO1", "target": "PO2"}).encode()
            match = b"POST /match HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
            oversized = b"POST /match HTTP/1.1\r\nContent-Length: 2048\r\n\r\n" + b" " * 2048
            sock = _connect(server.server_port)
            for request, expected in (
                (match, 200), (match, 200), (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
                (oversized, 413), (match, 200),
            ):
                del writes[:]
                sock.sendall(request)
                status, headers, answer = _read_response(sock)
                assert (status, headers["Connection"]) == (expected, "keep-alive")
                assert len(writes) == 1
                assert writes[0].startswith(b"HTTP/1.1 %d " % expected)
                assert writes[0].endswith(b"\r\n\r\n" + answer)
            sock.close()
        finally:
            _stop(server, thread)

    def test_an_http_0_9_request_line_is_answered_in_one_write(self, writes):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"GET /health HTTP/0.9\r\n\r\n")
            answer = b""
            while chunk := sock.recv(65536):
                answer += chunk
            assert b'"status": "ok"' in answer
            assert writes == [answer]
            sock.close()
        finally:
            _stop(server, thread)

    def test_event_stream_delivers_each_chunk_while_the_job_runs(self):
        server, thread = _start(pool_size=1)
        pool = server.service.pool
        original = pool.match_many
        gate = threading.Event()
        chunks = []

        def gated_match_many(items):
            chunks.append(items)
            if len(chunks) > 1:  # hold the second chunk until the first is seen
                assert gate.wait(timeout=30)
            return original(items)

        pool.match_many = gated_match_many
        try:
            client = _uploaded_client(server)
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 3, chunk_size=1)
            events = client.stream_job(job["job"])
            assert next(events)["event"] == "accepted"
            first = next(events)
            assert (first["event"], first["chunk"]) == ("progress", 1)
            assert client.job(job["job"])["state"] == "running"
            gate.set()
            assert [event["event"] for event in events] == ["progress", "progress", "result"]
            client.close()
        finally:
            gate.set()
            pool.match_many = original
            _stop(server, thread)


class TestShardLeakOnHandlerExceptions:
    def test_pool_free_list_survives_raising_sessions(self):
        pool = SessionPool(size=2)

        class Boom(RuntimeError):
            pass

        failures = 0
        for _ in range(100):
            try:
                with pool.session():
                    raise Boom("handler blew up mid-request")
            except Boom:
                failures += 1
        assert failures == 100
        assert pool.idle == pool.size  # every shard released despite the raise

    def test_100_raising_requests_leave_the_service_pool_intact(self):
        server, thread = _start(pool_size=2, max_queue=8)
        service = server.service
        pool = service.pool
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")

            # The session's match() raises mid-request from now on.
            with pool.session() as session:
                pass

            def exploding(*args, **kwargs):
                raise RuntimeError("injected session failure")

            session.match = exploding
            try:
                for _ in range(100):
                    with pytest.raises(ServiceError) as failure:
                        client.match("PO1", "PO2")
                    assert failure.value.status == 500
            finally:
                del session.match

            assert pool.idle == pool.size  # no running match leaked
            # And the service still works with the session restored.
            assert client.match("PO1", "PO2")["correspondences"]
            client.close()
        finally:
            _stop(server, thread)


def _park_blocking_route(server):
    """Route ``/block`` to a handler that waits; returns (release, restore)."""
    release = threading.Event()
    original = server.service.handle_request

    def blocking(method, path, payload=None):
        if path.rstrip("/") == "/block":
            release.wait(timeout=30)
            return 200, {"blocked": True}
        return original(method, path, payload)

    server.service.handle_request = blocking

    def restore():
        release.set()
        server.service.handle_request = original

    return release, restore


def _wait_for(condition, message: str) -> None:
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline, message
        time.sleep(0.01)


class TestFraming:
    def test_non_numeric_content_length_is_a_400_and_closes(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"POST /match HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            status, headers, body = _read_response(sock)
            assert status == 400
            assert json.loads(body)["error"] == "invalid Content-Length 'abc'"
            assert headers["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)

    def test_chunked_body_is_not_left_to_desynchronise_the_connection(self):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(
                b"POST /match HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"2\r\n{}\r\n0\r\n\r\n"
                b"GET /health HTTP/1.1\r\n\r\n"
            )
            status, headers, _ = _read_response(sock)
            assert status == 411
            assert headers["Connection"] == "close"
            assert sock.recv(64) == b""  # nothing parsed out of the chunked body
            sock.close()
        finally:
            _stop(server, thread)

    @pytest.mark.parametrize("request_bytes,status", [
        (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
        (b"GET /health HTTP/1.1\r\nX-Big: " + b"a" * 65536 + b"\r\n\r\n", 431),
        (b"PUT /health HTTP/1.1\r\n\r\n", 501),
        (b"GET /health HTTP/2.0\r\n\r\n", 505),
    ])
    def test_parser_errors_are_json(self, request_bytes, status):
        server, thread = _start(pool_size=1)
        try:
            sock = _connect(server.server_port)
            sock.sendall(request_bytes)
            answered, headers, body = _read_response(sock)
            assert answered == status
            assert headers["Content-Type"] == "application/json"
            assert json.loads(body)["error"]
            assert headers["Connection"] == "close"
            sock.close()
        finally:
            _stop(server, thread)

    def test_client_hanging_up_before_its_response_is_dropped_quietly(self, capsys):
        server, thread = _start(pool_size=1)
        release, restore = _park_blocking_route(server)
        try:
            sock = _connect(server.server_port)
            sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            _wait_for(lambda: server._in_flight == 1, "the request was never admitted")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset: the response write fails
            release.set()
            _wait_for(lambda: server.frontend_stats()["connections"] == 0,
                      "the handler never finished")
            assert "Traceback" not in capsys.readouterr().err
        finally:
            restore()
            _stop(server, thread)


class TestAdmission:
    def test_stats_report_the_front_end_counters(self):
        server, thread = _start(max_queue=5, pool_size=1)
        try:
            client = ServiceClient(server.url)
            assert client.health()["frontend"] == "sync"
            assert client.stats()["frontend"] == {
                "kind": "sync", "in_flight": 1, "max_queue": 5, "queue_free": 4,
                "connections": 1, "requests_served": 1, "rejected_429": 0,
                "rejected_503": 0, "draining": False,
            }
            client.close()
        finally:
            _stop(server, thread)

    def test_a_release_hands_the_slot_to_the_oldest_waiter(self):
        from repro.service.server import _FifoSlots

        slots = _FifoSlots(1)
        order = []

        def queued():
            with slots:
                order.append("queued")

        slots.__enter__()
        waiter = threading.Thread(target=queued)
        waiter.start()
        _wait_for(lambda: len(slots._waiters) == 1, "the waiter never queued")
        slots.__exit__(None, None, None)
        with slots:  # re-entering at once must not overtake the waiter
            order.append("newcomer")
        waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert order == ["queued", "newcomer"]

    def test_slots_never_admit_more_holders_than_they_have(self):
        import sys

        from repro.service.server import _FifoSlots

        slots, holders, peak, lock = _FifoSlots(3), [0], [0], threading.Lock()

        def hammer():
            for _ in range(200):
                with slots:
                    with lock:
                        holders[0] += 1
                        peak[0] = max(peak[0], holders[0])
                    with lock:
                        holders[0] -= 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert peak[0] <= 3
        assert (slots._free, slots._waiters) == (3, [])

    def test_event_streams_and_shutdown_hold_no_slot(self):
        server, thread = _start(max_queue=1, pool_size=1)
        pool = server.service.pool
        original_match_many = pool.match_many

        def slow_match_many(items):
            time.sleep(0.1)
            return original_match_many(items)

        pool.match_many = slow_match_many
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            job = client.submit_job(
                requests=[{"source": "PO1", "target": "PO2"}] * 100, chunk_size=1
            )
            events = client.stream_job(job["job"])
            assert next(events)["event"] == "accepted"
            assert client.health()["status"] == "ok"  # admitted beside the stream
            client.cancel_job(job["job"])
            assert list(events)[-1]["event"] == "cancelled"

            release, restore = _park_blocking_route(server)
            parked = _connect(server.server_port)
            parked.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            _wait_for(lambda: server._in_flight == 1, "the request was never admitted")
            with pytest.raises(ServiceError) as refused:
                client.health()
            assert refused.value.status == 429
            assert client.shutdown() == {"status": "shutting down"}
            release.set()
            assert _read_response(parked)[0] == 200
            parked.close()
            thread.join(timeout=10)
            assert not thread.is_alive()
            restore()
            client.close()
        finally:
            pool.match_many = original_match_many
            _stop(server, thread)

    def test_the_service_closes_only_after_admitted_requests_finish(self):
        server, thread = _start(pool_size=1)
        release, restore = _park_blocking_route(server)
        in_flight_at_close = []
        close = server.service.close

        def recording_close():
            in_flight_at_close.append(server._in_flight)
            close()

        server.service.close = recording_close
        sock = _connect(server.server_port)
        try:
            sock.sendall(b"GET /block HTTP/1.1\r\n\r\n")
            _wait_for(lambda: server._in_flight == 1, "the request was never admitted")
            server.shutdown()
            _wait_for(lambda: server._draining, "the drain never began")
            time.sleep(0.2)
            assert in_flight_at_close == []  # still waiting for /block
            release.set()
            assert _read_response(sock)[0] == 200
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert in_flight_at_close == [0]
        finally:
            sock.close()
            restore()
            if thread.is_alive():
                _stop(server, thread)


class TestBind:
    def test_a_port_in_use_raises_the_bind_error_and_closes_the_service(self):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            service = MatchService(pool_size=1)
            closed = []
            close = service.close
            service.close = lambda: (closed.append(True), close())
            with pytest.raises(OSError):
                create_server(port=taken.getsockname()[1], service=service)
            assert closed == [True]


class TestReadDeadline:
    def test_drip_fed_request_head_is_cut_off_at_the_deadline(self):
        server, thread = _start(read_timeout=0.5, pool_size=1)
        try:
            sock = _connect(server.server_port)
            start = time.monotonic()
            for byte in b"GET /health HTTP/1.1\r\nX-Slow: " + b"a" * 100:
                sock.sendall(bytes([byte]))
                if select.select([sock], [], [], 0.05)[0]:
                    break  # answered: stop dripping
            assert time.monotonic() - start < 3.0  # 100 bytes take 5s to drip
            status, _, body = _read_response(sock)
            assert status == 408
            assert b"request head" in body
            sock.close()
        finally:
            _stop(server, thread)

    def test_idle_keep_alive_connection_outlives_the_read_timeout(self):
        server, thread = _start(read_timeout=0.3, pool_size=1)
        try:
            client = ServiceClient(server.url)
            client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
            client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
            time.sleep(1.0)  # idle on the keep-alive connection
            assert client.match("PO1", "PO2")["correspondences"]
            assert server.frontend_stats()["connections"] == 1  # the same one
            client.close()
        finally:
            _stop(server, thread)
