"""Differential harness: the sync and async front-ends serve identical bytes.

The async front-end (``repro/service/aserver.py``) replaces the transport
tier only -- every matching semantic must stay byte-identical to the
threading front-end.  This suite locks that down the strong way: one
*request script* covering every endpoint (schemas, match, batch -- valid and
invalid --, strategies, search, corpus, jobs with their event streams, plus
the 404/405 error paths) is executed against a sync server and an async
server built from the same configuration, and each step's canonical JSON
response is sha256-hashed.  The two hash transcripts must be equal, for the
thread *and* the process backend.

Volatile fields that legitimately differ between two server instances
(wall-clock uptimes/durations, worker pids, and the ``frontend`` stats block
whose difference is the whole point) are normalised out before hashing;
everything else -- float similarities included -- must match to the byte.
"""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ServiceError
from repro.service import ServiceClient, create_async_server, create_server

#: Response keys that legitimately differ between two separately started
#: servers: wall-clock readings, process ids, and the frontend stats block
#: (which *must* differ -- that is what the differential isolates away).
VOLATILE_KEYS = frozenset(
    {"uptime_seconds", "duration_seconds", "pid", "workers", "frontend"}
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


def _run_script(client: ServiceClient):
    """The full endpoint sweep; returns ``[(label, result), ...]``."""
    steps = []

    def step(label, result):
        steps.append((label, result))

    step("health", _call(client, "GET", "/health"))
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

    # Long enough (a warm PO1/PO2 match is well under a millisecond) that
    # the DELETE below always lands while the job is still running.
    cancelled = _call(client, "POST", "/jobs", {
        "requests": [{"source": "PO1", "target": "PO2"}] * 1024,
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


def _transcript(client: ServiceClient):
    return [(label, _digest(result)) for label, result in _run_script(client)]


@pytest.mark.parametrize("backend,pool_size", [("thread", 2), ("process", 1)])
def test_front_ends_serve_sha256_identical_transcripts(backend, pool_size):
    sync_server = create_server(
        port=0, pool_size=pool_size, backend=backend, corpus_path=":memory:"
    )
    sync_thread = threading.Thread(target=sync_server.serve_forever, daemon=True)
    sync_thread.start()
    async_server = create_async_server(
        port=0, pool_size=pool_size, backend=backend, corpus_path=":memory:"
    )
    async_thread = async_server.run_in_thread()
    try:
        sync_client = ServiceClient(sync_server.url)
        async_client = ServiceClient(async_server.url)
        assert sync_client.health()["frontend"] == "sync"
        assert async_client.health()["frontend"] == "async"

        sync_steps = _transcript(sync_client)
        async_steps = _transcript(async_client)

        assert [label for label, _ in sync_steps] == \
               [label for label, _ in async_steps]
        mismatches = [
            label
            for (label, sync_hash), (_, async_hash)
            in zip(sync_steps, async_steps)
            if sync_hash != async_hash
        ]
        assert not mismatches, (
            f"sync and async front-ends disagree on: {mismatches}"
        )
    finally:
        sync_server.shutdown()
        sync_thread.join(timeout=10)
        assert not sync_thread.is_alive()
        sync_server.server_close()
        async_server.request_shutdown()
        async_thread.join(timeout=10)
        assert not async_thread.is_alive()


def test_event_stream_lines_are_byte_identical_across_front_ends():
    """The raw NDJSON lines (not just parsed dicts) must match exactly."""
    import http.client

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

    sync_server = create_server(port=0, pool_size=1)
    sync_thread = threading.Thread(target=sync_server.serve_forever, daemon=True)
    sync_thread.start()
    async_server = create_async_server(port=0, pool_size=1)
    async_thread = async_server.run_in_thread()
    try:
        sync_bytes = raw_event_lines(sync_server.server_address[1])
        async_bytes = raw_event_lines(async_server.port)
        assert sync_bytes == async_bytes
        assert hashlib.sha256(sync_bytes).hexdigest() == \
               hashlib.sha256(async_bytes).hexdigest()
    finally:
        sync_server.shutdown()
        sync_thread.join(timeout=10)
        assert not sync_thread.is_alive()
        sync_server.server_close()
        async_server.request_shutdown()
        async_thread.join(timeout=10)
        assert not async_thread.is_alive()
