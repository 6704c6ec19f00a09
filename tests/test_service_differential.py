"""Differential harness: front-ends and backends serve identical bytes.

One HTTP front-end serves both execution backends, and every matching
semantic must be byte-identical between them.  This suite locks that down
the strong way: one *request script* covering every endpoint (schemas,
match, batch -- valid and invalid --, strategies, search, corpus, jobs with
their event streams, plus the 404/405 error paths) is executed against a
thread-backend server and a process-backend server of equal pool size, and
each step's canonical JSON response is sha256-hashed.  The two hash
transcripts must be equal, and so must the raw NDJSON bytes of a job's
event stream.

The HTTP front-end is a transport tier only (admission, FIFO dispatch
slots, read deadlines, framing, chunked event streams): the same script run
over HTTP and straight through ``MatchService.handle_request`` in-process
must give the same transcript, for the thread *and* the process backend.

Volatile fields that legitimately differ between two server instances
(wall-clock uptimes/durations, worker pids, and the ``backend`` name whose
difference is the whole point) are normalised out before hashing, and
``/health`` components compare by status; everything else -- float
similarities included -- must match to the byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import threading
import time

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import MatchService, ServiceClient, create_server

#: Both backends run this many workers.
POOL_SIZE = 2

#: Response keys that legitimately differ between two separately started
#: servers: wall-clock readings, process ids, the frontend stats block, and
#: the backend name (which *must* differ -- that is what the differential
#: isolates away).
VOLATILE_KEYS = frozenset(
    {"uptime_seconds", "duration_seconds", "pid", "workers", "frontend", "backend"}
)


def _normalise(value):
    """Strip volatile keys recursively so hashes compare only semantics."""
    if isinstance(value, dict):
        return {
            key: _normalise(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [_normalise(item) for item in value]
    return value


def _digest(step_result) -> str:
    canonical = json.dumps(_normalise(step_result), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _call(client: ServiceClient, method: str, path: str, payload=None):
    """One scripted request as a canonicalisable (status, payload) pair.

    Error responses are part of the differential contract too: the status,
    message and structured details must match across front-ends.
    """
    try:
        return ("ok", client.request(method, path, payload))
    except ServiceError as error:
        return ("error", error.status, str(error), error.details)


@contextlib.contextmanager
def _chunks_held(service: MatchService):
    """Hold every chunk the service's pool runs until the block exits.

    A job submitted inside the block waits in its first chunk, so a DELETE
    sent inside the block always finds it running.  The wrapper is removed
    on exit.
    """
    pool = service.pool
    released = threading.Event()
    match_many = pool.match_many

    def held(*args, **kwargs):
        released.wait(timeout=60)
        return match_many(*args, **kwargs)

    pool.match_many = held
    try:
        yield
    finally:
        released.set()
        del pool.match_many


def _run_script(client: ServiceClient, service: MatchService):
    """The full endpoint sweep; returns ``[(label, result), ...]``.

    ``service`` is the service ``client`` drives; the cancel step holds its
    pool's chunks.
    """
    steps = []

    def step(label, result):
        steps.append((label, result))

    health = _call(client, "GET", "/health")
    # The pool's health evidence is per backend (the process pool adds its
    # breaker and respawn counters); each component's status must match.
    components = health[1]["components"]
    health[1]["components"] = {name: entry["status"] for name, entry in components.items()}
    step("health", health)
    step("upload-po1", _call(client, "POST", "/schemas", {
        "name": "PO1", "text": PO1_DDL, "format": "sql"}))
    step("upload-po2", _call(client, "POST", "/schemas", {
        "name": "PO2", "text": PO2_XSD, "format": "xsd"}))
    step("upload-conflict", _call(client, "POST", "/schemas", {
        "name": "PO1", "text": PO1_DDL, "format": "sql"}))
    step("list-schemas", _call(client, "GET", "/schemas"))
    step("get-schema", _call(client, "GET", "/schemas/PO1"))
    step("get-missing-schema", _call(client, "GET", "/schemas/NOPE"))

    step("match-default", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2"}))
    step("match-strategy", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2",
        "strategy": "Name+Leaves(Average,Both,Thr(0.6),Dice)"}))
    step("match-threshold", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2", "min_similarity": 0.5}))

    step("batch-valid", _call(client, "POST", "/match/batch", {
        "requests": [
            {"source": "PO1", "target": "PO2"},
            {"source": "PO2", "target": "PO1",
             "strategy": "All(Max,Both,Thr(0.5)+MaxN(1),Average)"},
            {"source": "PO1", "target": "PO2", "min_similarity": 0.7},
        ]}))
    step("batch-all-invalid-indices", _call(client, "POST", "/match/batch", {
        "requests": [
            {"source": "PO1", "target": "MISSING"},
            {"target": "PO2"},
            {"source": "PO1", "target": "PO2"},
            {"source": "PO1", "target": "PO2", "strategy": "Bogus("},
        ]}))

    step("save-strategy", _call(client, "POST", "/strategies", {
        "name": "tuned", "spec": "All(Average,Both,Thr(0.5)+Delta(0.02),Average)"}))
    step("list-strategies", _call(client, "GET", "/strategies"))
    step("match-saved-strategy", _call(client, "POST", "/match", {
        "source": "PO1", "target": "PO2", "strategy": "tuned"}))

    step("corpus-info", _call(client, "GET", "/corpus"))
    step("search", _call(client, "POST", "/search", {
        "name": "PO1", "k": 1}))

    # -- jobs: submission, polling, streaming, cancellation -------------------
    accepted = _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}] * 5,
        "chunk_size": 2})
    step("job-submit", accepted)
    job_id = accepted[1]["job"]
    step("job-events", ("stream", list(client.stream_job(job_id))))
    final = client.wait_job(job_id)
    step("job-final-status", ("ok", final))
    step("job-unknown", _call(client, "GET", "/jobs/j999"))
    step("job-invalid-chunk", _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}], "chunk_size": 0}))
    step("job-invalid-batch", _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "NOPE"}, {"source": "PO1"}]}))

    # The job's chunks are held until its DELETE has answered, so the
    # cancel always lands while the job is still running.
    with _chunks_held(service):
        cancelled = _call(client, "POST", "/jobs", {
            "requests": [{"source": "PO1", "target": "PO2"}] * 4,
            "chunk_size": 1, "cancel_on_disconnect": True})
        step("job-submit-2", cancelled)
        step("job-cancel", _call(client, "DELETE", f"/jobs/{cancelled[1]['job']}"))
    terminal = client.wait_job(cancelled[1]["job"])
    # A cancel races the chunk loop: `done` depends on how many chunks ran
    # before the flag was seen.  The *state* is the deterministic part.
    step("job-cancelled-state", ("ok", terminal["state"]))
    step("jobs-table-states",
         ("ok", _call(client, "GET", "/jobs")[1]["by_state"]))

    step("unknown-route", _call(client, "GET", "/no/such/route"))
    step("bad-method", _call(client, "DELETE", "/stats"))
    step("delete-schema", _call(client, "DELETE", "/schemas/PO2"))
    # /stats carries per-run timing artifacts beyond the volatile keys (poll
    # counts from wait_job, cache totals from however many chunks the
    # cancelled job completed), so only its timing-free slice is hashed.
    stats = _call(client, "GET", "/stats")[1]
    step("stats-stable", ("ok", {
        key: stats[key] for key in ("backend", "schemas", "strategies")}))
    step("stats-pool-shape", ("ok", {
        "size": stats["pool"]["size"], "idle": stats["pool"]["idle"]}))
    return steps


def _transcript(client: ServiceClient, service: MatchService):
    return [(label, _digest(result)) for label, result in _run_script(client, service)]


def _start(backend: str, pool_size: int = POOL_SIZE):
    server = create_server(
        port=0, pool_size=pool_size, backend=backend, corpus_path=":memory:"
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def _stop(server, thread) -> None:
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()


class _InProcessClient:
    """The script's client calls answered by ``MatchService.handle_request``.

    No HTTP in between: responses take the JSON round trip the HTTP shell
    gives them, errors raise the :class:`ServiceError` a ``ServiceClient``
    would, and a job's event stream is read from the same
    :class:`~repro.service.jobs.JobEventStream` the shell renders.
    """

    def __init__(self, service: MatchService):
        self._service = service

    def request(self, method: str, path: str, payload=None) -> dict:
        status, response = self._service.handle_request(method, path, payload)
        decoded = json.loads(json.dumps(response))
        if status >= 400:
            message = decoded.pop("error")
            raise ServiceError(message, status=status, details=decoded or None)
        return decoded

    def health(self) -> dict:
        return self.request("GET", "/health")

    def stream_job(self, job_id: str):
        _, stream = self._service.handle_request("GET", f"/jobs/{job_id}/events", None)
        finished = False
        while not finished:
            lines, finished = stream.tail()
            for line in lines:
                yield json.loads(line.decode("utf-8"))

    def wait_job(self, job_id: str) -> dict:
        while True:
            snapshot = self.request("GET", f"/jobs/{job_id}")
            if snapshot["state"] != "running":
                return snapshot
            time.sleep(0.2)


@pytest.mark.parametrize("backend,pool_size", [("thread", 2), ("process", 1)])
def test_front_ends_serve_sha256_identical_transcripts(backend, pool_size):
    server, thread = _start(backend, pool_size)
    local = MatchService(pool_size=pool_size, backend=backend, corpus_path=":memory:")
    try:
        http_client = ServiceClient(server.url)
        local_client = _InProcessClient(local)
        assert http_client.health()["backend"] == backend
        assert local_client.health()["backend"] == backend

        http_steps = _transcript(http_client, server.service)
        local_steps = _transcript(local_client, local)

        assert [label for label, _ in http_steps] == \
               [label for label, _ in local_steps]
        mismatches = [
            label
            for (label, http_hash), (_, local_hash)
            in zip(http_steps, local_steps)
            if http_hash != local_hash
        ]
        assert not mismatches, (
            f"HTTP and in-process front-ends disagree on: {mismatches}"
        )
    finally:
        _stop(server, thread)
        local.close()


def test_backends_serve_sha256_identical_transcripts():
    servers = [_start("thread"), _start("process")]
    try:
        thread_client, process_client = (
            ServiceClient(server.url) for server, _ in servers
        )
        assert thread_client.health()["backend"] == "thread"
        assert process_client.health()["backend"] == "process"

        (thread_server, _), (process_server, _) = servers
        thread_steps = _transcript(thread_client, thread_server.service)
        process_steps = _transcript(process_client, process_server.service)

        assert [label for label, _ in thread_steps] == \
               [label for label, _ in process_steps]
        mismatches = [
            label
            for (label, thread_hash), (_, process_hash)
            in zip(thread_steps, process_steps)
            if thread_hash != process_hash
        ]
        assert not mismatches, (
            f"thread and process backends disagree on: {mismatches}"
        )
    finally:
        for server, thread in servers:
            _stop(server, thread)


def test_event_stream_lines_are_byte_identical_across_backends():
    """The raw NDJSON lines (not just parsed dicts) must match exactly."""

    def raw_event_lines(port: int) -> bytes:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
        client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
        job = client.submit_job(
            requests=[{"source": "PO1", "target": "PO2"}] * 3, chunk_size=2
        )
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", f"/jobs/{job['job']}/events")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "application/x-ndjson"
            return response.read()
        finally:
            connection.close()
            client.close()

    servers = [_start("thread"), _start("process")]
    try:
        thread_bytes, process_bytes = (
            raw_event_lines(server.server_port) for server, _ in servers
        )
        assert thread_bytes == process_bytes
        assert hashlib.sha256(thread_bytes).hexdigest() == \
               hashlib.sha256(process_bytes).hexdigest()
    finally:
        for server, thread in servers:
            _stop(server, thread)
