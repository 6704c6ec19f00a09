"""Background jobs: long-running match campaigns behind the service API.

Corpus-scale work -- a thousand-pair batch, a top-K search over a large
corpus -- takes minutes, and holding an HTTP connection (plus its server
thread) open for the whole run does not survive real networks.  The job
subsystem turns those requests into *background campaigns*:

* ``POST /jobs`` validates the campaign up front (every invalid entry is
  reported with its index, like ``/match/batch``), registers a :class:`Job`
  and starts it on a worker thread -- the response is an immediate ``202``
  with the job id;
* the job thread splits the campaign into chunks and runs each chunk through
  the service's worker pool (thread or process backend alike), so a running
  job holds no worker between chunks and a cancelled job stops at the next
  chunk boundary;
* every state change appends a JSON **event** (``accepted`` -> ``progress``
  per chunk -> ``result`` | ``error`` | ``cancelled``) to the job's ordered
  event log.  ``GET /jobs/<id>/events`` replays the log and live-tails it as
  newline-delimited JSON (NDJSON); ``GET /jobs/<id>`` is the poll-style
  snapshot of the same state.

Events are deterministic -- sequence numbers and counts, no timestamps -- so
the same campaign streams byte-identical event lines on the thread and
process backends (the differential suite compares the raw bytes).
Wall-clock timing lives only in the ``GET /jobs/<id>`` snapshot
(``duration_seconds``).

A job submitted with ``"cancel_on_disconnect": true`` is cancelled when the
client streaming its events disconnects mid-stream -- the fault-injection
suite asserts the pool is idle again when that happens.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.exceptions import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import MatchService

#: Default number of pairs matched per pool acquisition.
DEFAULT_CHUNK_SIZE = 8
#: Upper bound on the per-chunk size a submission may request.
MAX_CHUNK_SIZE = 1024
#: Finished jobs kept for status/event queries before eviction (FIFO).
MAX_FINISHED_JOBS = 64

#: Job lifecycle states.
JOB_STATES = ("running", "done", "error", "cancelled")


class Job:
    """One background campaign: state, progress counters and the event log.

    All mutation happens under one condition variable; readers take
    consistent snapshots (:meth:`status`) and blocking consumers wait on the
    condition (:meth:`wait_events`), so the HTTP shell tails events without
    polling.
    """

    def __init__(self, job_id: str, kind: str, total: int, chunks: int,
                 cancel_on_disconnect: bool):
        self.id = job_id
        self.kind = kind
        self.total = total
        self.chunks = chunks
        self.cancel_on_disconnect = cancel_on_disconnect
        self.state = "running"
        self.done = 0
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self._events: List[dict] = []
        self._condition = threading.Condition()
        self._cancel = threading.Event()
        self._started = time.monotonic()
        self._finished_at: Optional[float] = None

    # -- event log -------------------------------------------------------------

    def publish(self, event: dict) -> None:
        """Append one event (stamped with its sequence number) and wake tails."""
        with self._condition:
            self._events.append({"seq": len(self._events), **event})
            self._condition.notify_all()

    def finish(self, state: str, *, result: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        """Transition to a terminal state and publish the terminal event.

        Both happen under one lock, so a reader that sees the job finished
        has also seen its terminal event.
        """
        with self._condition:
            if self.state != "running":  # already terminal (e.g. cancel race)
                return
            self.state = state
            self.result = result
            self.error = error
            self._finished_at = time.monotonic()
            terminal = {"event": "cancelled" if state == "cancelled" else state,
                        "job": self.id, "done": self.done, "total": self.total}
            if state == "done":
                terminal = {"event": "result", "job": self.id, **(result or {})}
            elif state == "error":
                terminal = {"event": "error", "job": self.id, "error": error}
            self.publish(terminal)

    @property
    def finished(self) -> bool:
        """True once the job reached a terminal state."""
        return self.state != "running"

    def cancel(self) -> bool:
        """Request cancellation; True when the job was still running.

        The job thread honours the request at the next chunk boundary, so the
        current chunk's pool match always finishes and releases its worker --
        cancellation never leaks one.
        """
        with self._condition:
            running = self.state == "running"
        self._cancel.set()
        return running

    @property
    def cancelled(self) -> bool:
        """True when cancellation has been requested."""
        return self._cancel.is_set()

    def wait_events(self, seq: int, timeout: float = 1.0) -> Tuple[List[dict], bool]:
        """Block up to ``timeout`` for events past ``seq``."""
        with self._condition:
            if len(self._events) <= seq and self.state == "running":
                self._condition.wait(timeout)
            return list(self._events[seq:]), self.state != "running"

    def status(self, include_result: bool = True) -> dict:
        """The ``GET /jobs/<id>`` snapshot of this job."""
        with self._condition:
            payload = {
                "job": self.id,
                "kind": self.kind,
                "state": self.state,
                "done": self.done,
                "total": self.total,
                "chunks": self.chunks,
                "events": len(self._events),
                "cancel_on_disconnect": self.cancel_on_disconnect,
                "duration_seconds": round(
                    (self._finished_at or time.monotonic()) - self._started, 3
                ),
            }
            if self.error is not None:
                payload["error"] = self.error
            if include_result and self.result is not None:
                payload["result"] = self.result
            return payload


class JobManager:
    """The service's jobs table: submission, execution, eviction.

    One manager per :class:`~repro.service.server.MatchService`; jobs run on
    daemon worker threads and execute their chunks through the service's
    worker pool, so the thread and process backends serve jobs identically.
    """

    def __init__(self, service: "MatchService"):
        self._service = service
        self._jobs: Dict[str, Job] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._next_id = 0

    # -- registry --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job registered under ``job_id`` (404 when unknown/evicted)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(
                f"no job named {job_id!r} (unknown id, or an old finished "
                f"job already evicted from the table)", status=404,
            )
        return job

    def jobs(self) -> List[Job]:
        """All registered jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def info(self) -> dict:
        """The ``/stats`` summary: per-state counts plus the jobs table."""
        jobs = self.jobs()
        by_state = {state: 0 for state in JOB_STATES}
        for job in jobs:
            by_state[job.state] += 1
        return {
            "total": len(jobs),
            "by_state": by_state,
            "jobs": [job.status(include_result=False) for job in jobs],
        }

    def _evict_finished(self) -> None:
        # caller holds self._lock
        finished = [job_id for job_id, job in self._jobs.items() if job.finished]
        while len(finished) > MAX_FINISHED_JOBS:
            evicted = finished.pop(0)
            self._jobs.pop(evicted, None)
            self._threads.pop(evicted, None)

    # -- submission ------------------------------------------------------------

    def submit(self, payload: dict) -> Tuple[int, dict]:
        """Validate and start one campaign; the ``POST /jobs`` entry point.

        Returns ``(202, acceptance payload)``.  Validation is all-or-nothing
        and exhaustive: every invalid batch entry is reported with its index
        (the same contract as ``POST /match/batch``), and no job is
        registered unless the whole campaign resolved.
        """
        if not isinstance(payload, dict):
            raise ServiceError("the job payload must be a JSON object", status=400)
        kind = payload.get("kind", "batch")
        if kind not in ("batch", "search"):
            raise ServiceError(
                f"unknown job kind {kind!r}: choose 'batch' or 'search'",
                status=400,
            )
        chunk_size = payload.get("chunk_size", DEFAULT_CHUNK_SIZE)
        if not isinstance(chunk_size, int) or isinstance(chunk_size, bool) \
                or not 1 <= chunk_size <= MAX_CHUNK_SIZE:
            raise ServiceError(
                f"'chunk_size' must be an integer in [1, {MAX_CHUNK_SIZE}], "
                f"got {chunk_size!r}", status=400,
            )
        cancel_on_disconnect = bool(payload.get("cancel_on_disconnect", False))
        if kind == "batch":
            items, thresholds = self._service.resolve_batch(payload)
            total = len(items)
            chunks = (total + chunk_size - 1) // chunk_size
            runner_args = (items, thresholds, chunk_size)
        else:
            search_payload = self._service.validate_search(payload)
            total, chunks = 1, 1
            runner_args = (search_payload,)
        with self._lock:
            self._next_id += 1
            job_id = f"j{self._next_id}"
            job = Job(job_id, kind, total, chunks, cancel_on_disconnect)
            self._jobs[job_id] = job
            self._evict_finished()
            thread = threading.Thread(
                target=self._run, args=(job, kind, runner_args),
                name=f"coma-job-{job_id}", daemon=True,
            )
            self._threads[job_id] = thread
        job.publish({"event": "accepted", "job": job_id, "kind": kind,
                     "total": total, "chunks": chunks})
        thread.start()
        return 202, {"job": job_id, "state": "running", "kind": kind,
                     "total": total, "chunks": chunks}

    # -- execution -------------------------------------------------------------

    def _run(self, job: Job, kind: str, runner_args: tuple) -> None:
        try:
            if kind == "batch":
                self._run_batch(job, *runner_args)
            else:
                self._run_search(job, *runner_args)
        except Exception as error:  # noqa: BLE001 - job errors become events
            job.finish("error", error=str(error))

    def _run_batch(self, job: Job, items, thresholds, chunk_size: int) -> None:
        results: List[dict] = []
        for chunk_index in range(job.chunks):
            if job.cancelled:
                job.finish("cancelled")
                return
            start = chunk_index * chunk_size
            chunk = items[start:start + chunk_size]
            outcomes = self._service.pool.match_many(chunk)
            for outcome, threshold in zip(outcomes, thresholds[start:start + len(chunk)]):
                results.append(self._service.outcome_payload(outcome, threshold))
            job.done += len(chunk)
            job.publish({"event": "progress", "job": job.id, "done": job.done,
                         "total": job.total, "chunk": chunk_index + 1,
                         "chunks": job.chunks})
        job.finish("done", result={"count": len(results), "results": results})

    def _run_search(self, job: Job, payload: dict) -> None:
        if job.cancelled:
            job.finish("cancelled")
            return
        job.publish({"event": "progress", "job": job.id, "done": 0,
                     "total": 1, "chunk": 1, "chunks": 1})
        result = self._service.run_search(payload)
        job.done = 1
        if job.cancelled:
            job.finish("cancelled")
            return
        job.finish("done", result=result)

    def close(self, timeout: float = 10.0) -> None:
        """Cancel every running job and wait briefly for the job threads."""
        for job in self.jobs():
            job.cancel()
        with self._lock:
            threads = list(self._threads.values())
        deadline = time.monotonic() + timeout
        for thread in threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))


class JobEventStream:
    """A streamed ``GET /jobs/<id>/events`` response body.

    The transport-agnostic :meth:`MatchService.handle_request
    <repro.service.server.MatchService.handle_request>` returns this object
    instead of a JSON dict for the events endpoint; the HTTP handler renders
    it as chunked NDJSON from :meth:`tail` and reports a dropped consumer
    through :meth:`disconnected`.
    """

    content_type = "application/x-ndjson"

    def __init__(self, job: Job):
        self.job = job
        self._seq = 0

    def tail(self, timeout: float = 1.0) -> Tuple[List[bytes], bool]:
        """Encoded lines published since the last call + the finished flag.

        Blocks up to ``timeout`` for the next event when none is pending.
        Once the flag is True, the terminal event has been handed out.
        """
        events, finished = self.job.wait_events(self._seq, timeout)
        self._seq += len(events)
        return [(json.dumps(event) + "\n").encode("utf-8") for event in events], finished

    def disconnected(self) -> bool:
        """Report a consumer disconnect; True when it cancelled the job."""
        job = self.job
        return job.cancel_on_disconnect and not job.finished and job.cancel()
