"""The process session pool: N worker processes matching for one session.

The thread-backed :class:`~repro.service.pool.SessionPool` keeps every match
on one interpreter, so on a multi-core machine warm service throughput flat-
lines at the GIL instead of scaling with the hardware.  A
:class:`ProcessSessionPool` breaks that ceiling: ``size`` spawned worker
processes (see :mod:`repro.parallel.worker`) each hold a private warm
:class:`~repro.session.session.MatchSession`, and requests travel over pipes
as compact codec frames (:mod:`repro.parallel.codec`) -- schemas shipped once
per worker by content digest, similarity layers returned as raw ``float64``
buffers.  Results are **byte-identical** to the serial in-process path; the
differential suite in ``tests/test_parallel_equivalence.py`` enforces it.

The pool matches for the session it is built with: workers open their own
connections to that session's repository and persistent
:class:`~repro.repository.store.SimilarityStore` files (so they start warm
from cubes any earlier process stored), and must run its match
configuration.  Workers are spawned (never forked), so the pool is safe to
create from a threaded server process.

Scheduling: free workers live on a LIFO free-list behind a condition
variable, an acquirer takes *any* free worker (the most recently released),
and a worker is held exclusively for one round trip (pipes are not
multiplexed).

Failure handling (PR 9) layers three defences over that scheduling:

* **replay-once** -- a worker that dies mid-request (broken pipe) is
  respawned and the request replayed once; match execution is
  side-effect-free outside the worker's own caches, so the replay is safe;
* **deadlines + watchdog** -- ``match`` / ``match_many`` accept
  ``timeout=`` seconds; a worker that holds a frame past the deadline is
  SIGKILLed by the watchdog and the call fails with a typed
  :class:`~repro.exceptions.PoolTimeoutError` (never replayed -- a replay
  would double the wait), while a *background* thread respawns the slot so
  the caller returns within deadline + grace.  Respawns back off
  exponentially (:data:`RESPAWN_BACKOFF_BASE` doubling to
  :data:`RESPAWN_BACKOFF_CAP`) so a crash-looping worker cannot start a
  spawn storm;
* **circuit breaker** -- :data:`BREAKER_THRESHOLD` *consecutive* worker
  failures open the breaker: chunks run on the pool's session (without
  feedback, as in the workers, so results stay byte-identical) and every
  :data:`BREAKER_PROBE_EVERY`-th chunk probes the workers, closing the
  breaker on the first success.  Counters for all of it surface through
  :meth:`ProcessSessionPool.resilience_info` into ``/health``.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro import faults
from repro.exceptions import PoolTimeoutError, ServiceError
from repro.parallel import codec
from repro.parallel.worker import worker_main
from repro.repository.store import _DigestMemo
from repro.session.session import MatchSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.match_operation import MatchOutcome
    from repro.core.strategy import MatchStrategy
    from repro.model.schema import Schema

#: One fan-out item: ``(source, target, strategy)`` where the strategy is any
#: reference the pool's session resolves (``None``: the session's default).
PoolRequest = Tuple["Schema", "Schema", object]

#: Seconds to wait for a spawned worker's ready handshake before giving up.
HANDSHAKE_TIMEOUT = 120.0

#: First respawn-backoff sleep; doubles per consecutive respawn of a slot.
RESPAWN_BACKOFF_BASE = 0.05

#: Ceiling of the per-slot respawn backoff (a crash-looping worker respawns
#: at most every couple of seconds, not in a tight spawn storm).
RESPAWN_BACKOFF_CAP = 2.0

#: Consecutive worker failures (deaths or watchdog kills) that open the
#: circuit breaker.
BREAKER_THRESHOLD = 3

#: While the breaker is open, every Nth chunk probes the workers instead of
#: running locally; the first successful probe closes the breaker.  Count
#: based, so breaker behaviour is deterministic for a given request sequence.
BREAKER_PROBE_EVERY = 4


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("process", "connection", "shipped", "requests", "pid")

    def __init__(self, process, connection):
        self.process = process
        self.connection = connection
        #: Content digests of schemas this worker is known to hold.
        self.shipped: set = set()
        #: Match pairs dispatched to this worker (parent-side counter).
        self.requests = 0
        self.pid: Optional[int] = None


class _WorkerDied(Exception):
    """Internal signal: the pipe broke mid round trip (worker respawned)."""


class _WorkerTimedOut(Exception):
    """Internal signal: the watchdog killed a worker that blew the deadline.

    The held slot is re-released by the background respawner, *not* by the
    calling chunk -- the caller must convert this to
    :class:`~repro.exceptions.PoolTimeoutError` without releasing.
    """


class ProcessSessionPool:
    """A fixed pool of spawned worker processes matching for one session.

    Parameters
    ----------
    size:
        The number of worker processes.  On an N-core machine, N workers let
        warm match throughput scale with the cores instead of the GIL.
    session:
        The :class:`~repro.session.session.MatchSession` the pool matches
        for (default: ``MatchSession()``; the pool never closes it).  Workers
        open its repository and store files (not an in-memory store); it
        resolves each request's strategy, builds each outcome's context and
        runs the chunks kept in this process.

    Raises
    ------
    ServiceError
        If ``size`` is below 1, a worker fails its ready handshake, or the
        workers' match-configuration digest differs from the session's.

    Examples
    --------
    >>> from repro.datasets.figure1 import load_po1, load_po2
    >>> with ProcessSessionPool(size=1) as pool:            # doctest: +SKIP
    ...     outcome = pool.match(load_po1(), load_po2())
    ...     len(outcome.result) > 0
    True
    """

    #: Matches the service pool's vocabulary (``/stats`` reports it).
    backend = "process"

    def __init__(
        self,
        size: int = 2,
        session: Optional[MatchSession] = None,
        schema_cache_bound: Optional[int] = None,
        fault_plan: Optional[Dict[str, object]] = None,
    ):
        if size < 1:
            raise ServiceError(f"a process pool needs size >= 1, got {size}")
        self._session = session if session is not None else MatchSession()
        store, repository = self._session.store, self._session.repository
        self._context = multiprocessing.get_context("spawn")
        self._options: Dict[str, object] = {
            "store_path": store.path if store is not None and store.path != ":memory:" else None,
            "repository_path": repository.path if repository is not None else None,
            "schema_cache_bound": schema_cache_bound,
            # An explicit plan document, or None: _spawn() then ships the
            # plan armed in this process, so workers (and respawns) always
            # run under the same fault model as their parent.
            "fault_plan": dict(fault_plan) if fault_plan else None,
        }
        self._closed = False
        self._condition = threading.Condition()
        self._free: List[int] = []
        # -- resilience state (all guarded by _resilience_lock) --------------
        self._resilience_lock = threading.Lock()
        self._backoff = [0.0] * size  # next respawn sleep per slot
        self._respawns = 0
        self._watchdog_kills = 0
        self._consecutive_failures = 0
        self._breaker_open = False
        self._breaker_trips = 0
        self._breaker_probes = 0
        self._routed_local = 0
        # Start every process first, then collect the ready handshakes: the
        # expensive part of a spawn (interpreter boot + imports) overlaps
        # across workers instead of serialising.
        self._workers: List[_Worker] = [self._spawn() for _ in range(size)]
        digests = {self._handshake(worker) for worker in self._workers}
        self._config_digest = self._session.config_digest()
        if digests != {self._config_digest}:
            self.close()
            raise ServiceError(
                "match workers run a different match configuration than the "
                "pool's session (tokenizer, synonyms, type table or library "
                "differ); their matches would not be byte-identical"
            )
        self._free = list(range(size))
        #: Parent-side schema digests: a schema edited in place ships again
        #: under its new digest.
        self._digests = _DigestMemo()

    # -- lifecycle ---------------------------------------------------------------

    def _spawn(self) -> _Worker:
        options = dict(self._options)
        if options.get("fault_plan") is None:
            # No explicit plan: ship whatever is armed process-wide right
            # now, so chaos tests arming before pool creation (or before a
            # respawn) see their faults inside the workers too.
            plan = faults.active_plan()
            options["fault_plan"] = plan.to_dict() if plan is not None else None
        parent_connection, child_connection = self._context.Pipe()
        process = self._context.Process(
            target=worker_main,
            args=(child_connection, options),
            name="coma-match-worker",
            daemon=True,
        )
        process.start()
        child_connection.close()
        return _Worker(process, parent_connection)

    def _handshake(self, worker: _Worker) -> str:
        if not worker.connection.poll(HANDSHAKE_TIMEOUT):
            self.close()
            raise ServiceError(
                f"match worker (pid {worker.process.pid}) did not become "
                f"ready within {HANDSHAKE_TIMEOUT:.0f}s"
            )
        try:
            header, _ = codec.decode_frame(worker.connection.recv_bytes())
        except (EOFError, OSError) as error:
            self.close()
            raise ServiceError(
                f"match worker (pid {worker.process.pid}) died during "
                f"startup: {error}"
            ) from error
        if header.get("kind") == "error":  # pragma: no cover - startup failure path
            self.close()
            codec.raise_remote_error(header)
        if header.get("kind") != "ready":
            self.close()
            raise ServiceError(
                f"match worker sent {header.get('kind')!r} instead of the "
                f"ready handshake"
            )
        worker.pid = int(header["pid"])
        return str(header["config_digest"])

    @property
    def size(self) -> int:
        """The number of worker processes."""
        return len(self._workers)

    @property
    def idle(self) -> int:
        """How many workers are free right now (``size`` when fully idle).

        Read like :attr:`SessionPool.idle
        <repro.service.pool.SessionPool.idle>` (``size`` minus the running
        matches), so ``/stats`` and leak checks read either backend the same
        way.
        """
        with self._condition:
            return len(self._free)

    @property
    def config_digest(self) -> str:
        """The workers' match-configuration digest, equal to the session's.

        Another session may fan out on this pool only when its
        :meth:`~repro.session.session.MatchSession.config_digest` is equal.
        """
        return self._config_digest

    def close(self) -> None:
        """Shut every worker down (politely, then forcefully). Idempotent.

        Escalation ladder per worker: shutdown frame -> SIGTERM -> SIGKILL,
        each with a bounded join, so ``close()`` can never hang on a worker
        that ignores both the protocol and the signal (a wedged C extension,
        a masked handler).
        """
        with self._condition:
            if self._closed:
                return
            self._closed = True
            self._condition.notify_all()
        for worker in self._workers:
            try:
                worker.connection.send_bytes(codec.encode_frame({"kind": "shutdown"}))
                if worker.connection.poll(5.0):
                    worker.connection.recv_bytes()
            except (BrokenPipeError, EOFError, OSError):
                pass
            worker.connection.close()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - unkillable via TERM
                worker.process.kill()
                worker.process.join(timeout=5.0)

    def __enter__(self) -> "ProcessSessionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- worker scheduling ---------------------------------------------------------

    def _acquire(self, deadline: Optional[float] = None) -> int:
        with self._condition:
            while True:
                if self._closed:
                    raise ServiceError("the process pool is closed")
                if self._free:
                    return self._free.pop()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise PoolTimeoutError(
                            "timed out waiting for a free match worker"
                        )
                self._condition.wait(remaining)

    def _release(self, index: int) -> None:
        with self._condition:
            self._free.append(index)
            self._condition.notify()

    def _respawn(self, index: int) -> None:
        """Replace a dead worker in place (its shipped-schema set resets).

        Consecutive respawns of one slot sleep an exponentially growing
        backoff first (:data:`RESPAWN_BACKOFF_BASE` doubling up to
        :data:`RESPAWN_BACKOFF_CAP`); a successful round trip on the slot
        resets it.  A crash-looping worker therefore costs a bounded spawn
        rate, not a storm of interpreter boots.
        """
        with self._condition:
            if self._closed:
                raise ServiceError("the process pool is closed")
        with self._resilience_lock:
            pause = self._backoff[index]
            self._backoff[index] = min(
                max(RESPAWN_BACKOFF_BASE, pause * 2), RESPAWN_BACKOFF_CAP
            )
            self._respawns += 1
        if pause:
            time.sleep(pause)
        old = self._workers[index]
        try:
            old.connection.close()
        except OSError:  # pragma: no cover - already broken
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5.0)
        if old.process.is_alive():  # pragma: no cover - unkillable via TERM
            old.process.kill()
            old.process.join(timeout=5.0)
        worker = self._spawn()
        self._handshake(worker)
        worker.requests = old.requests
        self._workers[index] = worker

    def _respawn_and_release(self, index: int) -> None:
        """Background respawn of a watchdog-killed slot; always re-releases it.

        Runs off the caller's thread so a timed-out ``match_many`` returns
        within deadline + grace instead of paying a full interpreter spawn.
        The slot stays out of the free list until the fresh worker is ready
        (or the respawn failed -- then the next user of the slot hits a
        broken pipe and retries the respawn inline).
        """
        try:
            self._respawn(index)
        except Exception:  # noqa: BLE001 - closing pool / spawn failure
            pass
        finally:
            self._release(index)

    def _roundtrip(
        self, index: int, frame: bytes, deadline: Optional[float] = None
    ) -> Tuple[Dict[str, object], List[memoryview]]:
        """One exclusive request/reply on worker ``index`` (caller holds it).

        With a ``deadline``, the reply wait is bounded: a worker that holds
        the frame past it is treated as wedged -- the watchdog SIGKILLs it,
        a background thread respawns the slot, and :class:`_WorkerTimedOut`
        tells the caller *not* to release (the respawner will) and *not* to
        replay (replaying a timed-out request would double the wait).
        """
        worker = self._workers[index]
        faults.fault_point("pool.roundtrip")
        try:
            worker.connection.send_bytes(frame)
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not worker.connection.poll(remaining):
                    with self._resilience_lock:
                        self._watchdog_kills += 1
                    self._record_worker_failure()
                    with contextlib.suppress(Exception):
                        worker.process.kill()
                    threading.Thread(
                        target=self._respawn_and_release,
                        args=(index,),
                        name="coma-pool-respawner",
                        daemon=True,
                    ).start()
                    raise _WorkerTimedOut(
                        f"match worker (pid {worker.pid}) blew the deadline; killed"
                    )
            header, buffers = codec.decode_frame(worker.connection.recv_bytes())
        except (BrokenPipeError, EOFError, OSError) as error:
            self._record_worker_failure()
            self._respawn(index)
            raise _WorkerDied(str(error)) from error
        self._record_worker_success(index)
        if header.get("kind") == "error":
            codec.raise_remote_error(header)
        return header, buffers

    # -- circuit breaker -------------------------------------------------------

    def _record_worker_failure(self) -> None:
        """One worker death or watchdog kill; trips the breaker at threshold."""
        with self._resilience_lock:
            self._consecutive_failures += 1
            if (
                not self._breaker_open
                and self._consecutive_failures >= BREAKER_THRESHOLD
            ):
                self._breaker_open = True
                self._breaker_trips += 1

    def _record_worker_success(self, index: int) -> None:
        """A completed round trip: reset failure streak, close the breaker."""
        with self._resilience_lock:
            self._consecutive_failures = 0
            self._backoff[index] = 0.0
            self._breaker_open = False

    def _breaker_routes_local(self) -> bool:
        """Whether the *next* chunk should run in-process.

        While open, every :data:`BREAKER_PROBE_EVERY`-th chunk is a probe
        that goes to the workers (its success closes the breaker); the rest
        run on the pool's session.  Count-based, hence deterministic.
        """
        with self._resilience_lock:
            if not self._breaker_open:
                return False
            self._routed_local += 1
            if self._routed_local % BREAKER_PROBE_EVERY == 0:
                self._breaker_probes += 1
                return False  # probe: try the workers
            return True

    def _execute_local(self, items: Sequence[PoolRequest]) -> List["MatchOutcome"]:
        """Run one chunk on the pool's session, without feedback as in a worker."""
        return [
            self._session.match(source, target, strategy=strategy, feedback=None)
            for source, target, strategy in items
        ]

    # -- schema shipping -------------------------------------------------------------

    def _match_frame(
        self,
        worker: _Worker,
        pairs: Sequence[Tuple[str, str, str]],
        payloads: Dict[str, bytes],
    ) -> bytes:
        """Build one ``match`` frame, shipping schemas the worker lacks."""
        schemas = []
        buffers: List[bytes] = []
        for digest, payload in payloads.items():
            if digest not in worker.shipped:
                schemas.append({"digest": digest, "buffer": len(buffers)})
                buffers.append(payload)
        header = {
            "kind": "match",
            "pairs": [
                {"source": source, "target": target, "strategy": spec}
                for source, target, spec in pairs
            ],
            "schemas": schemas,
        }
        return codec.encode_frame(header, buffers)

    def _execute_chunk(
        self,
        items: Sequence[Tuple["Schema", "Schema", "MatchStrategy"]],
        deadline: Optional[float] = None,
    ) -> List["MatchOutcome"]:
        """Run one contiguous chunk of resolved requests on one exclusively held worker.

        With the breaker open, the chunk (unless it is the periodic probe)
        runs on the pool's session instead; a chunk whose worker dies twice
        runs there too, so one crash-looping worker degrades throughput,
        never answers.
        """
        if self._breaker_routes_local():
            return self._execute_local(items)
        pairs: List[Tuple[str, str, str]] = []
        payloads: Dict[str, bytes] = {}
        for source, target, strategy in items:
            source_digest = self._digests.digest(source)
            target_digest = self._digests.digest(target)
            payloads.setdefault(source_digest, codec.schema_payload(source))
            payloads.setdefault(target_digest, codec.schema_payload(target))
            pairs.append((source_digest, target_digest, strategy.to_spec()))
        index = self._acquire(deadline)
        release = True
        try:
            header, buffers = self._execute_on_worker(index, pairs, payloads, deadline)
            worker = self._workers[index]
            worker.shipped.update(payloads)
            worker.requests += len(pairs)
        except _WorkerTimedOut as error:
            # The background respawner owns (and will re-release) the slot.
            release = False
            raise PoolTimeoutError(str(error)) from error
        except _WorkerDied:
            # Died on the replay too: serve the chunk in-process rather than
            # failing a request whose work is perfectly doable locally.
            header = None
        finally:
            if release:
                self._release(index)
        if header is None:
            return self._execute_local(items)
        return [
            codec.rebuild_outcome(
                item, buffers, source, target, strategy,
                self._session.context_for(source, target, feedback=None),
            )
            for (source, target, strategy), item in zip(items, header["items"])
        ]

    def _execute_on_worker(self, index, pairs, payloads, deadline=None):
        """Round-trip with the two recovery paths: re-ship and replay-once.

        ``unknown-schema`` means the worker evicted (or never had) a digest
        the parent believed was shipped -- the parent forgets its shipped-set
        optimism and re-sends with full payloads.  A broken pipe means the
        worker died; it was respawned by ``_roundtrip`` and the request is
        replayed once on the fresh process (match execution has no effects
        outside the worker, so the replay cannot double-apply anything).  A
        second death propagates :class:`_WorkerDied` (the chunk then runs on
        the pool's session); a watchdog kill propagates
        :class:`_WorkerTimedOut` untouched -- never replayed.
        """
        worker = self._workers[index]
        replayed = False
        for _ in range(3):
            frame = self._match_frame(worker, pairs, payloads)
            try:
                header, buffers = self._roundtrip(index, frame, deadline)
            except _WorkerDied:
                worker = self._workers[index]
                if replayed:
                    raise
                replayed = True
                continue
            if header.get("kind") == "unknown-schema":
                worker.shipped.difference_update(header.get("digests", ()))
                continue
            if header.get("kind") != "outcomes":
                raise ServiceError(
                    f"match worker sent {header.get('kind')!r} instead of outcomes"
                )
            return header, buffers
        raise ServiceError("match worker kept rejecting shipped schemas")

    # -- match entry points -----------------------------------------------------------

    def match(
        self,
        source: "Schema",
        target: "Schema",
        strategy: object = None,
        timeout: Optional[float] = None,
    ) -> "MatchOutcome":
        """Match one pair on some free worker; byte-identical to the serial path.

        ``timeout`` bounds the whole call in seconds; see :meth:`match_many`.
        """
        return self.match_many([(source, target, strategy)], timeout=timeout)[0]

    def match_many(
        self,
        items: Sequence[PoolRequest],
        timeout: Optional[float] = None,
    ) -> List["MatchOutcome"]:
        """Fan a batch out across the workers, preserving request order.

        Strategies resolve on the pool's session before any frame is sent.
        The batch is split into up to ``size`` contiguous chunks; each chunk
        acquires one worker for one framed round trip (so per-pair IPC cost
        is amortised across the chunk).

        ``timeout`` (seconds) is an absolute deadline over the whole batch:
        a worker still holding a chunk at the deadline is SIGKILLed by the
        watchdog (its slot respawned in the background) and the call raises
        :class:`~repro.exceptions.PoolTimeoutError` within deadline plus
        scheduling grace -- never a replay, never an unbounded wait.
        """
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        items = [self._resolved(item) for item in items]
        if not items:
            return []
        chunk_count = min(self.size, len(items))
        if chunk_count == 1:
            return self._execute_chunk(items, deadline)
        bounds = [
            (len(items) * part // chunk_count, len(items) * (part + 1) // chunk_count)
            for part in range(chunk_count)
        ]
        with ThreadPoolExecutor(max_workers=chunk_count) as executor:
            chunks = list(
                executor.map(
                    lambda span: self._execute_chunk(items[span[0]:span[1]], deadline),
                    bounds,
                )
            )
        return [outcome for chunk in chunks for outcome in chunk]

    def _resolved(self, item) -> Tuple["Schema", "Schema", "MatchStrategy"]:
        if len(item) not in (2, 3):
            raise ServiceError(
                f"process-pool requests must be (source, target[, strategy]) "
                f"tuples, got a tuple of length {len(item)}"
            )
        strategy = item[2] if len(item) == 3 else None
        return (item[0], item[1], self._session.resolve_strategy(strategy))

    # -- statistics and maintenance ------------------------------------------------------

    def worker_stats(self, timeout: float = 5.0) -> List[Dict[str, object]]:
        """Live per-worker statistics (pid, requests handled, cache counters).

        Each worker is queried over its (exclusively held) pipe, waiting at
        most ``timeout`` seconds per worker: a worker staying busy with a
        long match is reported from the parent-side counters with
        ``"busy": True`` instead of blocking the caller -- ``GET /stats`` is
        a monitoring endpoint and must never starve behind match traffic.
        """
        stats: List[Dict[str, object]] = []
        for index in range(self.size):
            acquired = self._acquire_specific(index, timeout=timeout)
            if acquired is None:
                stats.append({
                    "pid": self._workers[index].pid,
                    "requests": self._workers[index].requests,
                    "busy": True,
                })
                continue
            try:
                header, _ = self._roundtrip(acquired, codec.encode_frame({"kind": "stats"}))
            except _WorkerDied:
                stats.append({"pid": self._workers[index].pid, "requests":
                              self._workers[index].requests, "alive": False})
                continue
            finally:
                self._release(acquired)
            info = dict(header["info"])
            info["requests_dispatched"] = self._workers[index].requests
            stats.append(info)
        with self._resilience_lock:
            for index, entry in enumerate(stats):
                entry["respawn_backoff"] = self._backoff[index]
        return stats

    def resilience_info(self) -> Dict[str, object]:
        """Breaker state, watchdog and respawn counters (``/health`` surface)."""
        with self._resilience_lock:
            return {
                "breaker": {
                    "state": "open" if self._breaker_open else "closed",
                    "threshold": BREAKER_THRESHOLD,
                    "consecutive_failures": self._consecutive_failures,
                    "trips": self._breaker_trips,
                    "probes": self._breaker_probes,
                    "routed_local": self._routed_local,
                },
                "watchdog_kills": self._watchdog_kills,
                "respawns": self._respawns,
                "respawn_backoff": list(self._backoff),
            }

    def _acquire_specific(
        self, index: int, timeout: Optional[float] = None
    ) -> Optional[int]:
        """Take worker ``index`` specifically; ``None`` on timeout (if given)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                if self._closed:
                    raise ServiceError("the process pool is closed")
                if index in self._free:
                    self._free.remove(index)
                    return index
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._condition.wait(remaining)

    def cache_info(self) -> Dict[str, object]:
        """Aggregated cache statistics over all workers.

        Mirrors :meth:`repro.service.pool.SessionPool.cache_info` -- a
        ``shards`` list (one entry per worker here, one session there) and
        summed totals -- plus ``backend`` and a
        ``workers`` list with per-process pid / request counters, which is
        what ``GET /stats`` exposes for the process backend.
        """
        stats = self.worker_stats()
        keys = ("profiles", "cubes", "cube_hits", "cube_misses",
                "store_hits", "store_misses")
        shards = [
            {key: shard.get(key, 0) for key in keys} for shard in stats
        ]
        totals = {key: sum(shard[key] for shard in shards) for key in keys}
        workers = [
            {
                "pid": shard.get("pid"),
                "requests": shard.get("requests", 0),
                "schemas": shard.get("schemas", 0),
            }
            for shard in stats
        ]
        return {"backend": self.backend, "shards": shards, "workers": workers, **totals}

    def clear_caches(self) -> None:
        """Drop every worker's session caches (and shipped-schema sets)."""
        for index in range(self.size):
            acquired = self._acquire_specific(index)
            try:
                self._roundtrip(acquired, codec.encode_frame({"kind": "clear"}))
                self._workers[index].shipped.clear()
            except _WorkerDied:  # pragma: no cover - a fresh worker is clear
                pass
            finally:
                self._release(acquired)
        self._digests.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessSessionPool(size={self.size})"
