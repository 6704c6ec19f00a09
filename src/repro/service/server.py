"""The match service: COMA's session layer behind an HTTP boundary.

A stdlib-only JSON API (``http.server.ThreadingHTTPServer``) wrapping warm
:class:`~repro.session.session.MatchSession` workers -- one in-process
session shared by every request (:class:`~repro.service.pool.SessionPool`,
the default ``thread`` backend) or spawned worker processes
(:class:`~repro.parallel.pool.ProcessSessionPool`, the ``process`` backend
that scales warm throughput past the GIL) -- so the session's
cross-operation caches (path profiles, similarity cubes) keep paying off
across *network* requests, not just in-process calls.

Endpoints (all request/response bodies are JSON):

=======  ====================  ==============================================
method   path                  purpose
=======  ====================  ==============================================
GET      ``/health``           liveness probe with registry/pool counts
GET      ``/stats``            cache occupancy + request counters
GET      ``/schemas``          list the registered schemas
POST     ``/schemas``          upload a schema through the importers registry
GET      ``/schemas/{name}``   statistics of one registered schema
DELETE   ``/schemas/{name}``   remove one registered schema
POST     ``/match``            match two registered schemas
POST     ``/match/batch``      match many pairs in one session acquisition
POST     ``/search``           top-K corpus search for a registered schema
GET      ``/corpus``           schema-corpus occupancy and registered names
POST     ``/jobs``             start a background batch/search campaign (202)
GET      ``/jobs``             the jobs table (per-state counts + snapshots)
GET      ``/jobs/{id}``        one job's progress/result snapshot
DELETE   ``/jobs/{id}``        cancel a running job
GET      ``/jobs/{id}/events`` NDJSON stream of the job's progress events
GET      ``/strategies``       list the stored named strategies
POST     ``/strategies``       store a named strategy spec
GET      ``/strategies/{name}``  one stored strategy (spec + dict form)
DELETE   ``/strategies/{name}``  delete a stored strategy
POST     ``/shutdown``         stop the server (used by tests and ops)
=======  ====================  ==============================================

Errors are JSON too -- ``{"error": "<message>"}`` with a 4xx/5xx status; the
:class:`~repro.service.client.ServiceClient` raises them as
:class:`~repro.exceptions.ServiceError`.  :class:`MatchServiceServer` also
bounds admission (429), slow clients (408) and shutdown (a drain, then 503).

See ``docs/service.md`` for the full endpoint reference and deployment guide.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import sqlite3
import sys
import threading
import time
import urllib.parse
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.strategy import MatchStrategy
from repro.exceptions import ComaError, FaultInjected, SearchError, ServiceError, SessionError
from repro.importers.registry import DEFAULT_IMPORTERS
from repro.model.schema import Schema
from repro.service.jobs import JobEventStream, JobManager
from repro.service.pool import SessionPool, _FifoSlots
from repro.session.session import MatchSession, StrategyLike

__version__ = "1.0"

#: Response payload limit guard: refuse request bodies beyond this size.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Default bound on admitted requests (counted until ``handle_request`` returns).
DEFAULT_MAX_QUEUE = 64
#: Default seconds a request's head and body may take from its first byte.
DEFAULT_READ_TIMEOUT = 30.0
#: Seconds ``server_close()`` waits for admitted requests before closing the service.
DRAIN_TIMEOUT = 30.0
#: Seconds between ``serve_forever()``'s shutdown checks: ``shutdown()`` returns
#: within one poll.
POLL_INTERVAL = 0.05


class MatchService:
    """The service core: schema registry, the process's session and its pool.

    The service is transport-agnostic -- :meth:`handle_request` maps a
    ``(method, path, payload)`` triple to a ``(status, payload)`` pair, and
    the HTTP layer (:class:`MatchServiceServer`) is a thin shell around it.
    All registry state is guarded by one lock; match execution happens on the
    worker pool outside that lock, so slow matches do not serialise unrelated
    requests.

    The service builds one :class:`~repro.session.session.MatchSession`, from
    its repository, store and corpus.  It profiles uploads, ranks searches
    and holds the strategy registry with its parsed specs; on the thread
    backend every match runs on it too, and the process backend's pool
    matches for it: its workers open the session's files, and it runs the
    chunks the pool keeps in this process.

    Parameters
    ----------
    pool_size:
        How many matches run at once: on the thread backend, requests
        sharing its one session (the HTTP front-end admits ``pool_size + 2``
        into the service); on the process backend, worker processes.
    backend:
        ``"thread"`` (default) serves every request from one session in this
        process behind a :class:`~repro.service.pool.SessionPool`; ``"process"``
        spawns a :class:`~repro.parallel.pool.ProcessSessionPool` of worker
        processes, so warm match throughput scales with the cores instead of
        the GIL.  Results are byte-identical either way; see
        ``docs/service.md`` for the selection guide.
    repository_path:
        Optional SQLite file backing the strategy registry (and the reuse
        matchers of the session and every worker session); strategies stored
        through the service are visible to other sessions over the same file.
    store_path:
        Optional persistent similarity store
        (:class:`~repro.repository.store.SimilarityStore`) shared by every
        worker session: cube-cache misses are served by content address from
        disk, so a restarted service answers repeated match workloads warm
        from its very first request.  See ``docs/service.md`` for sizing and
        invalidation guidance.
    corpus_path:
        Optional schema corpus (:class:`~repro.search.corpus.SchemaCorpus`
        SQLite file, or ``":memory:"``) enabling the ``POST /search`` /
        ``GET /corpus`` endpoints.  It is then the schema registry: uploads
        and deletes write it, every lookup reads it, so a service restarted
        on the same file still lists, matches and searches its schemas, and
        a schema another process removes from the file is gone here too.
        Survivor matching fans out over the configured backend.  See
        ``docs/search.md``.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or its ``to_dict()``
        document) armed process-wide for chaos runs.  Process-backend
        workers receive the same plan through their spawn options, so one
        plan exercises both sides of the pipe.  ``coma serve`` only accepts
        ``--fault-plan`` when ``COMA_ENABLE_FAULTS=1`` is set; see
        ``docs/robustness.md``.

    Examples
    --------
    >>> service = MatchService(pool_size=1)
    >>> status, payload = service.handle_request("GET", "/health", None)
    >>> status, payload["status"]
    (200, 'ok')
    """

    def __init__(
        self,
        pool_size: int = 4,
        backend: str = "thread",
        repository_path: Optional[str] = None,
        store_path: Optional[str] = None,
        corpus_path: Optional[str] = None,
        fault_plan: Optional[object] = None,
    ):
        if backend not in ("thread", "process"):
            raise ServiceError(
                f"unknown service backend {backend!r}: choose 'thread' or 'process'"
            )
        self._backend = backend
        self._fault_plan = None
        if fault_plan is not None:
            from repro import faults

            # Armed before the pool spawns so process workers inherit the
            # plan document through their spawn options (fresh counters per
            # process, which is what crash-loop scenarios need).
            plan = (
                fault_plan
                if isinstance(fault_plan, faults.FaultPlan)
                else faults.FaultPlan.from_dict(dict(fault_plan))
            )
            faults.arm(plan)
            self._fault_plan = plan
        #: Event-driven degradation marks: component name -> failure detail.
        #: Store degradation is derived from its corruption counters instead
        #: (the failures happen inside worker processes, not here).
        self._degraded: Dict[str, str] = {}
        self._repository = None
        if repository_path:
            from repro.repository.repository import Repository

            self._repository = Repository(repository_path)
        self._store = None
        if store_path:
            from repro.repository.store import SimilarityStore

            self._store = SimilarityStore(store_path)
        self._corpus = None
        if corpus_path:
            from repro.search.corpus import SchemaCorpus

            self._corpus = SchemaCorpus(corpus_path)
        self._session = MatchSession(
            repository=self._repository, store=self._store, corpus=self._corpus,
        )
        if backend == "process":
            from repro.parallel.pool import ProcessSessionPool

            self._pool = ProcessSessionPool(pool_size, self._session)
        else:
            self._pool = SessionPool(pool_size, self._session)
        #: The schema registry of a service with no corpus.
        self._schemas: Dict[str, Schema] = {}
        self._state_lock = threading.RLock()
        #: Serialises uploads and deletes over the corpus and the dict.
        self._registry_lock = threading.Lock()
        self._request_counts: Dict[str, int] = {}
        self._started = time.monotonic()
        self._jobs = JobManager(self)
        #: The ``/stats`` ``frontend`` block, installed by the HTTP server.
        self.frontend_stats: Optional[Callable[[], dict]] = None

    # -- registries ------------------------------------------------------------

    @property
    def pool(self):
        """The underlying worker pool (:class:`~repro.service.pool.SessionPool`
        or :class:`~repro.parallel.pool.ProcessSessionPool`)."""
        return self._pool

    @property
    def backend(self) -> str:
        """The execution backend: ``"thread"`` or ``"process"``."""
        return self._backend

    @property
    def jobs(self) -> JobManager:
        """The background-jobs table (:class:`~repro.service.jobs.JobManager`)."""
        return self._jobs

    def schema(self, name: str) -> Schema:
        """The schema registered under ``name``.

        With a corpus attached, the corpus is the registry, so a schema that
        another process adds, replaces or removes in the shared file is seen
        here on the next lookup; without one, the in-memory dict is.

        Raises
        ------
        ServiceError
            With status 404 when the registry lacks the name, 503 when the
            corpus cannot be read.
        """
        schema = self._find_schema(name)
        if schema is None:
            known = ", ".join(self.schema_names()) or "none uploaded yet"
            raise ServiceError(
                f"no schema named {name!r}; known schemas: {known}", status=404
            )
        return schema

    def _find_schema(self, name: str) -> Optional[Schema]:
        if self._corpus is None:
            with self._state_lock:
                return self._schemas.get(name)
        with self._corpus_guard():
            try:
                return self._corpus.load(name)
            except SearchError:  # no schema of that name
                return None

    def schema_names(self) -> Tuple[str, ...]:
        """Sorted names of all registered schemas."""
        if self._corpus is None:
            with self._state_lock:
                return tuple(sorted(self._schemas))
        with self._corpus_guard():
            return self._corpus.names()

    def register_schema(self, schema: Schema) -> bool:
        """Register a schema under its own name; True when it replaced one."""
        with self._registry_lock:
            if self._corpus is None:
                with self._state_lock:
                    replaced = schema.name in self._schemas
                    self._schemas[schema.name] = schema
                return replaced
            with self._corpus_guard():
                replaced = self._corpus.has(schema.name)
                # Lookups answer with the registered object, whose profile
                # the session keeps warm.
                self._session.register(schema)
        return replaced

    def resolve_strategy(self, reference: StrategyLike) -> Optional[MatchStrategy]:
        """Resolve a request's strategy reference on the service's session.

        ``None`` keeps the session's default.  A string with a
        parenthesis is a spec (the session parses each distinct one once);
        any other string is a stored strategy name.

        Raises
        ------
        ServiceError
            With status 404 for an unknown stored name, 400 for an invalid
            spec or reference type.
        """
        if reference is None or isinstance(reference, MatchStrategy):
            return reference
        if not isinstance(reference, str):
            raise ServiceError(
                f"'strategy' must be a spec string or a stored name, "
                f"got {type(reference).__name__}", status=400,
            )
        if "(" not in reference:
            return self._stored_strategy(reference)
        try:
            return self._session.resolve_strategy(reference)
        except ComaError as error:
            raise ServiceError(f"invalid strategy spec: {error}", status=400)

    def _stored_strategy(self, name: str) -> MatchStrategy:
        """A stored strategy by name (else 404)."""
        try:
            return self._session.load_strategy(name)
        except SessionError:
            known = ", ".join(self.strategy_names()) or "none stored yet"
            raise ServiceError(
                f"no stored strategy named {name!r}; stored strategies: {known}",
                status=404,
            )

    def strategy_names(self) -> Tuple[str, ...]:
        """Sorted names of all stored strategies (session + repository)."""
        return self._session.strategy_names()

    # -- request dispatch ------------------------------------------------------

    def handle_request(
        self, method: str, path: str, payload: Optional[dict]
    ) -> Tuple[int, Union[dict, JobEventStream]]:
        """Map one request to a ``(status, response payload)`` pair.

        Unknown routes yield 404, method mismatches 405, all
        :class:`~repro.exceptions.ServiceError` raises their carried status
        (plus any structured ``details`` merged into the error payload) and
        any other :class:`~repro.exceptions.ComaError` a 400.  One route
        (``GET /jobs/<id>/events``) answers with a
        :class:`~repro.service.jobs.JobEventStream` instead of a JSON dict;
        the HTTP shell renders it as a chunked NDJSON response.
        """
        segments = [
            urllib.parse.unquote(part)
            for part in path.split("?")[0].split("/")
            if part
        ]
        route = (method.upper(), *segments)
        self._count_request(segments)
        try:
            return self._dispatch(route, payload if payload is not None else {})
        except ServiceError as error:
            return (error.status or 400, {"error": str(error), **error.details})
        except ComaError as error:
            return (400, {"error": str(error)})

    #: Top-level route segments with their own request counter; everything
    #: else (unknown probes, arbitrary names) collapses into fixed templates
    #: so the counter dict stays bounded on a long-lived server.
    _COUNTED_ROUTES = frozenset(
        {"schemas", "match", "rematch", "strategies", "health", "stats",
         "shutdown", "search", "corpus", "jobs"}
    )

    def _count_request(self, segments: List[str]) -> None:
        if not segments:
            key = "/"
        elif segments[0] not in self._COUNTED_ROUTES:
            key = "<other>"
        elif len(segments) == 1:
            key = segments[0]
        elif segments[:2] == ["match", "batch"]:
            key = "match/batch"
        else:
            key = f"{segments[0]}/*"
        with self._state_lock:
            self._request_counts[key] = self._request_counts.get(key, 0) + 1

    def _dispatch(self, route: Tuple[str, ...], payload: dict) -> Tuple[int, dict]:
        if route == ("GET", "health"):
            return 200, self._health()
        if route == ("GET", "stats"):
            return 200, self._stats()
        if route == ("GET", "schemas"):
            return 200, self._list_schemas()
        if route == ("POST", "schemas"):
            return self._upload_schema(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "schemas":
            return 200, self._schema_details(route[2])
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "schemas":
            return self._delete_schema(route[2])
        if route == ("POST", "match"):
            return 200, self._match(payload)
        if route == ("POST", "match", "batch"):
            return 200, self._match_batch(payload)
        if route == ("POST", "rematch"):
            return 200, self._rematch(payload)
        if route == ("POST", "search"):
            return 200, self._search(payload)
        if route == ("GET", "corpus"):
            return 200, self._corpus_info()
        if route == ("GET", "jobs"):
            return 200, self._jobs.info()
        if route == ("POST", "jobs"):
            return self._jobs.submit(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "jobs":
            return 200, self._jobs.get(route[2]).status()
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "jobs":
            return self._cancel_job(route[2])
        if len(route) == 4 and route[0] == "GET" and route[1] == "jobs" \
                and route[3] == "events":
            return 200, JobEventStream(self._jobs.get(route[2]))
        if route == ("GET", "strategies"):
            return 200, self._list_strategies()
        if route == ("POST", "strategies"):
            return self._store_strategy(payload)
        if len(route) == 3 and route[0] == "GET" and route[1] == "strategies":
            return 200, self._strategy_details(route[2])
        if len(route) == 3 and route[0] == "DELETE" and route[1] == "strategies":
            return self._delete_strategy(route[2])
        if len(route) > 1 and route[1] in self._COUNTED_ROUTES:
            return 405, {"error": f"method {route[0]} is not supported on /{route[1]}"}
        return 404, {"error": f"unknown route /{'/'.join(route[1:])}"}

    # -- endpoint implementations ----------------------------------------------

    def component_health(self) -> dict:
        """Per-component health: ``pool`` / ``store`` / ``corpus`` states.

        Each entry carries ``status`` (``"ok"`` or ``"degraded"``) plus the
        evidence: the pool reports its circuit-breaker / watchdog counters
        (process backend), the store its corruption and quarantine counters,
        the corpus the last infrastructure failure that forced a typed 503.
        A degraded component keeps serving -- matching recomputes around
        quarantined blobs and breaker-routed chunks run in-process -- so
        this block is an operator signal, not an availability bit.
        """
        components: Dict[str, dict] = {}
        pool_entry: Dict[str, object] = {
            "status": "ok",
            "size": self._pool.size,
            "idle": self._pool.idle,
        }
        resilience_info = getattr(self._pool, "resilience_info", None)
        if resilience_info is not None:
            resilience = resilience_info()
            if resilience["breaker"]["state"] == "open":
                pool_entry["status"] = "degraded"
                pool_entry["detail"] = (
                    "circuit breaker open: match chunks run in-process "
                    "until a worker probe succeeds"
                )
            pool_entry.update(resilience)
        components["pool"] = pool_entry
        if self._store is not None:
            info = self._store.info()
            corrupt = int(info.get("corrupt", 0))
            quarantined = int(info.get("quarantined", 0))
            store_entry: Dict[str, object] = {
                "status": "degraded" if corrupt else "ok",
                "corrupt": corrupt,
                "quarantined": quarantined,
            }
            if corrupt:
                store_entry["detail"] = (
                    f"{corrupt} corrupt blob(s) detected this process "
                    f"({quarantined} quarantined); affected keys recompute"
                )
            components["store"] = store_entry
        if self._corpus is not None:
            with self._state_lock:
                detail = self._degraded.get("corpus")
            corpus_entry: Dict[str, object] = {
                "status": "degraded" if detail else "ok",
            }
            if detail:
                corpus_entry["detail"] = detail
            components["corpus"] = corpus_entry
        return components

    def _health(self) -> dict:
        try:
            schema_count: Optional[int] = len(self.schema_names())
        except ServiceError:  # an unreadable corpus; reported as degraded below
            schema_count = None
        jobs = self._jobs.info()["by_state"]
        components = self.component_health()
        degraded = any(
            entry["status"] != "ok" for entry in components.values()
        )
        return {
            "status": "degraded" if degraded else "ok",
            "components": components,
            "service": f"coma-match-service/{__version__}",
            "backend": self._backend,
            "frontend": "sync",
            "pool_size": self._pool.size,
            "jobs_running": jobs["running"],
            "schemas": schema_count,
            "strategies": len(self.strategy_names()),
            "repository": self._repository.path if self._repository else None,
            "store": self._store.path if self._store else None,
            "corpus": self._corpus.path if self._corpus else None,
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    def _stats(self) -> dict:
        from repro.matchers.memo import DEFAULT_MEMO_POOL

        with self._state_lock:
            requests = dict(sorted(self._request_counts.items()))
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "backend": self._backend,
            "frontend": self.frontend_stats() if self.frontend_stats else None,
            "schemas": len(self.schema_names()),
            "strategies": len(self.strategy_names()),
            "requests": {"total": sum(requests.values()), "by_route": requests},
            "pool": {
                "size": self._pool.size,
                "idle": self._pool.idle,
                **self._pool.cache_info(),
                **(
                    {"resilience": self._pool.resilience_info()}
                    if hasattr(self._pool, "resilience_info")
                    else {}
                ),
            },
            "jobs": self._jobs.info(),
            "kernel_memo": DEFAULT_MEMO_POOL.info(),
            "store": self._store.info() if self._store is not None else None,
            "corpus": self._corpus.info() if self._corpus is not None else None,
        }

    def close(self) -> None:
        """Release the worker pool and persistent resources.  Idempotent.

        Process-backend workers are shut down (each flushes its own store
        connection), then the repository, store and corpus files are
        closed.  Closing the parent store folds its process-local
        hit/miss counters into the on-disk lifetime totals, which is what
        ``coma stats --store`` reads.  Running background jobs are cancelled
        first, so no job thread is still matching when the pool goes down.
        """
        self._jobs.close()
        if self._backend == "process":
            self._pool.close()
        if self._repository is not None:
            self._repository.close()
        if self._store is not None:
            self._store.close()
        if self._corpus is not None:
            self._corpus.close()
        if self._fault_plan is not None:
            from repro import faults

            if faults.active_plan() is self._fault_plan:
                faults.disarm()
            self._fault_plan = None

    def _list_schemas(self) -> dict:
        found = ((name, self._find_schema(name)) for name in self.schema_names())
        return {
            "schemas": [
                {"name": name, "paths": len(schema.paths())}
                for name, schema in found
                if schema is not None  # deleted since the names were read
            ]
        }

    def _upload_schema(self, payload: dict) -> Tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ServiceError("the upload payload must be a JSON object", status=400)
        name = payload.get("name")
        spec = payload.get("spec")
        text = payload.get("text")
        format_name = payload.get("format")
        if spec is not None and text is not None:
            raise ServiceError(
                "pass either 'text' (with a 'format') or an inline dict 'spec', "
                "not both", status=400,
            )
        if spec is not None:
            text = json.dumps(spec)
            format_name = format_name or "dict"
        if not isinstance(text, str) or not text.strip():
            raise ServiceError(
                "schema uploads need a non-empty 'text' (or a dict 'spec')",
                status=400,
            )
        if not format_name:
            raise ServiceError(
                f"schema uploads need a 'format'; known formats: "
                f"{', '.join(DEFAULT_IMPORTERS.formats())}", status=400,
            )
        importer = DEFAULT_IMPORTERS.by_format(str(format_name))
        schema = importer.import_text(text, str(name) if name else "schema")
        replaced = self.register_schema(schema)
        statistics = schema.statistics()
        return (200 if replaced else 201), {
            "name": schema.name,
            "format": importer.format_name,
            "paths": len(schema.paths()),
            "statistics": statistics.as_row(),
            "replaced": replaced,
        }

    def _schema_details(self, name: str) -> dict:
        schema = self.schema(name)
        return {
            "name": schema.name,
            "paths": len(schema.paths()),
            "statistics": schema.statistics().as_row(),
        }

    def _delete_schema(self, name: str) -> Tuple[int, dict]:
        with self._registry_lock:
            if self._corpus is None:
                with self._state_lock:
                    removed = self._schemas.pop(name, None) is not None
            else:
                with self._corpus_guard():
                    removed = self._corpus.remove(name)
        if not removed:
            raise ServiceError(f"no schema named {name!r}", status=404)
        return 200, {"deleted": name}

    def _match_request(
        self, payload: dict, default_min_similarity: float = 0.0
    ) -> Tuple[Schema, Schema, Optional[MatchStrategy], float]:
        if not isinstance(payload, dict):
            raise ServiceError("the match payload must be a JSON object", status=400)
        for field in ("source", "target"):
            if not isinstance(payload.get(field), str):
                raise ServiceError(
                    f"match requests need a {field!r} schema name", status=400
                )
        source = self.schema(payload["source"])
        target = self.schema(payload["target"])
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            min_similarity = float(
                payload.get("min_similarity", default_min_similarity)
            )
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)
        return source, target, strategy, min_similarity

    @staticmethod
    def outcome_payload(outcome, min_similarity: float) -> dict:
        """The JSON form of one match outcome (thresholded correspondences).

        Shared by ``/match``, ``/match/batch``, ``/search`` and the jobs
        runner, so every execution path serialises outcomes identically (the
        differential suite hashes these payloads across backends).
        """
        correspondences = [
            {"source": source, "target": target, "similarity": similarity}
            for source, target, similarity in outcome.result.as_tuples()
            if similarity >= min_similarity
        ]
        return {
            "source": outcome.context.source_schema.name,
            "target": outcome.context.target_schema.name,
            "strategy": outcome.strategy.to_spec(),
            "schema_similarity": outcome.schema_similarity,
            "correspondences": correspondences,
            "correspondence_count": len(correspondences),
        }

    def _match(self, payload: dict) -> dict:
        source, target, strategy, min_similarity = self._match_request(payload)
        # Both pool flavours expose the same match interface: the thread pool
        # runs on its one warm session, the process pool on one worker process.
        outcome = self._pool.match(source, target, strategy=strategy)
        return self.outcome_payload(outcome, min_similarity)

    def _rematch(self, payload: dict) -> dict:
        """``POST /rematch``: incrementally re-match an evolved schema.

        The payload names three uploaded schemas: ``old`` and ``new`` are
        two versions of the evolving schema, ``target`` the unchanged
        opposite side.  On the thread backend one warm session splices the
        previous cube (``MatchSession.rematch``); the process backend falls
        back to a full match -- either way the match payload is
        byte-identical to ``POST /match`` on ``(new, target)``, and the
        ``"rematch"`` block reports the delta and whether splicing happened.
        """
        from repro.model.digests import schema_delta

        if not isinstance(payload, dict):
            raise ServiceError("the rematch payload must be a JSON object", status=400)
        for field in ("old", "new", "target"):
            if not isinstance(payload.get(field), str):
                raise ServiceError(
                    f"rematch requests need an {field!r} schema name", status=400
                )
        old = self.schema(payload["old"])
        new = self.schema(payload["new"])
        target = self.schema(payload["target"])
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            min_similarity = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)

        delta = schema_delta(old, new)
        spliced = False
        if hasattr(self._pool, "session"):
            with self._pool.session() as session:
                outcome, spliced = session._rematch(old, new, target=target, strategy=strategy)
        else:
            # Process workers hold their own sessions behind a match-shaped
            # wire protocol; the full match is still byte-identical, only the
            # splice shortcut is unavailable.
            outcome = self._pool.match(new, target, strategy=strategy)
        body = self.outcome_payload(outcome, min_similarity)
        body["rematch"] = {
            "spliced": spliced,
            "reused_rows": delta.reused,
            "recomputed_rows": delta.recomputed,
            "added": list(delta.added),
            "removed": list(delta.removed),
        }
        return body

    def resolve_batch(
        self, payload: dict
    ) -> Tuple[List[Tuple[Schema, Schema, Optional[MatchStrategy]]], List[float]]:
        """Resolve a batch payload into ``(items, thresholds)``, exhaustively.

        A bad entry fails the whole batch before any match work is spent, and
        *every* invalid entry is reported -- the raised
        :class:`~repro.exceptions.ServiceError` carries an ``"invalid"``
        details list of ``{"index", "error"}`` objects, one per bad request,
        so one round trip surfaces all the fixes a client needs to make.
        Shared by ``POST /match/batch`` and batch job submission.
        """
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            raise ServiceError(
                "batch matches need a 'requests' list of "
                "{source, target[, strategy]} objects", status=400,
            )
        default = self.resolve_strategy(payload.get("strategy"))
        try:
            default_threshold = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError("'min_similarity' must be a number", status=400)
        items: List[Tuple[Schema, Schema, Optional[MatchStrategy]]] = []
        thresholds: List[float] = []
        invalid: List[dict] = []
        for index, entry in enumerate(payload["requests"]):
            try:
                source, target, strategy, min_similarity = self._match_request(
                    entry if isinstance(entry, dict) else {},
                    default_min_similarity=default_threshold,
                )
            except ServiceError as error:
                if error.status >= 500:  # the corpus failed, not the request
                    raise
                invalid.append({"index": index, "error": str(error)})
                continue
            items.append((source, target, strategy if strategy is not None else default))
            thresholds.append(min_similarity)
        if invalid:
            raise ServiceError(
                f"{len(invalid)} of {len(payload['requests'])} batch requests "
                f"are invalid (see 'invalid' for each index)",
                status=400, details={"invalid": invalid},
            )
        return items, thresholds

    def _match_batch(self, payload: dict) -> dict:
        items, thresholds = self.resolve_batch(payload)
        outcomes = self._pool.match_many(items)
        return {
            "results": [
                self.outcome_payload(outcome, threshold)
                for outcome, threshold in zip(outcomes, thresholds)
            ],
            "count": len(outcomes),
        }

    def _cancel_job(self, job_id: str) -> Tuple[int, dict]:
        job = self._jobs.get(job_id)
        cancelled = job.cancel()
        return 200, {"job": job_id, "cancelled": cancelled}

    def _require_corpus(self):
        if self._corpus is None:
            raise ServiceError(
                "this service has no schema corpus; start it with "
                "--corpus <path> (corpus_path=) to enable search", status=400,
            )
        return self._corpus

    @contextlib.contextmanager
    def _corpus_guard(self):
        """Convert corpus infrastructure failures into a typed 503.

        Bad *requests* (unknown schema, invalid strategy) keep their 4xx
        semantics; this guard only catches the failure classes that mean the
        corpus itself is unhealthy -- sqlite errors (index loss, locked or
        torn database, a failed write), OS errors (unreadable file) and
        injected faults.  The component is marked degraded for
        ``GET /health``; the next successful search clears the mark.
        """
        try:
            yield
        except (sqlite3.Error, OSError, FaultInjected, SearchError) as error:
            if isinstance(error, SearchError) and \
                    not isinstance(error.__cause__, sqlite3.Error):
                raise  # a bad request (the corpus wraps failed writes)
            detail = f"{type(error).__name__}: {error}"
            with self._state_lock:
                self._degraded["corpus"] = detail
            raise ServiceError(
                f"corpus search unavailable: {error}",
                status=503,
                details={"component": "corpus"},
            )

    def _corpus_info(self) -> dict:
        corpus = self._require_corpus()
        with self._corpus_guard():
            info = corpus.info()
            info["names"] = list(corpus.names())
        return info

    def validate_search(self, payload: dict) -> dict:
        """Resolve a search payload into a validated, executable request.

        Fails fast (schema existence, strategy resolution, numeric fields)
        without running any search work -- ``POST /jobs`` submissions call
        this so an invalid search campaign is rejected at submit time, then
        hand the returned dict to :meth:`run_search` on the job thread.
        """
        self._require_corpus()
        if not isinstance(payload, dict) or not isinstance(payload.get("source"), str):
            raise ServiceError(
                "search requests need a 'source' schema name", status=400,
            )
        name = payload["source"]
        schema = self.schema(name)
        strategy = self.resolve_strategy(payload.get("strategy"))
        try:
            k = int(payload.get("k", 10))
            candidates = payload.get("candidates")
            candidates = None if candidates is None else int(candidates)
            min_similarity = float(payload.get("min_similarity", 0.0))
        except (TypeError, ValueError):
            raise ServiceError(
                "'k' and 'candidates' must be integers and 'min_similarity' "
                "a number", status=400,
            )
        return {
            "name": name, "schema": schema, "strategy": strategy, "k": k,
            "candidates": candidates, "min_similarity": min_similarity,
        }

    def run_search(self, validated: dict) -> dict:
        """Execute a :meth:`validate_search`-resolved request.

        The cheap index ranking runs on the service's session, which holds
        the query's profile for the search only; the full pipeline on the
        survivors runs through the worker pool (thread or process backend
        alike), so the ranked results are byte-identical to an in-process
        ``MatchSession.search`` over the same corpus.
        """
        corpus = self._require_corpus()
        name, k = validated["name"], validated["k"]
        min_similarity = validated["min_similarity"]
        with self._corpus_guard():
            results = self._session.search(
                validated["schema"],
                k=k,
                strategy=validated["strategy"],
                candidates=validated["candidates"],
                match_many=self._pool.match_many,
            )
        # A full search round trip is the recovery probe: the corpus served
        # its index again, so the degradation mark comes off.
        with self._state_lock:
            self._degraded.pop("corpus", None)
        return {
            "query": name,
            "k": k,
            "corpus_size": len(corpus),
            "results": [
                {
                    "rank": rank,
                    "name": result.name,
                    "candidate_score": result.candidate_score,
                    **self.outcome_payload(result.outcome, min_similarity),
                }
                for rank, result in enumerate(results, start=1)
            ],
            "count": len(results),
        }

    def _search(self, payload: dict) -> dict:
        """``POST /search``: top-K pruned corpus search for a registered schema."""
        return self.run_search(self.validate_search(payload))

    def _list_strategies(self) -> dict:
        return {"strategies": [
            {"name": name, "spec": self._stored_strategy(name).to_spec()}
            for name in self.strategy_names()
        ]}

    def _store_strategy(self, payload: dict) -> Tuple[int, dict]:
        if not isinstance(payload, dict):
            raise ServiceError("the strategy payload must be a JSON object", status=400)
        name = payload.get("name")
        spec = payload.get("spec")
        if not isinstance(name, str) or not name:
            raise ServiceError("stored strategies need a non-empty 'name'", status=400)
        if "(" in name or ")" in name:
            raise ServiceError(
                f"strategy names must not contain parentheses (got {name!r})",
                status=400,
            )
        if not isinstance(spec, str) or not spec:
            raise ServiceError("stored strategies need a 'spec' string", status=400)
        try:
            strategy = MatchStrategy.parse(spec, library=self._session.library)
        except ComaError as error:
            raise ServiceError(f"invalid strategy spec: {error}", status=400)
        with self._state_lock:
            replaced = name in self.strategy_names()
            strategy = self._session.save_strategy(name, strategy)
        return (200 if replaced else 201), {
            "name": name,
            "spec": strategy.to_spec(),
            "replaced": replaced,
        }

    def _strategy_details(self, name: str) -> dict:
        # A *stored-name* lookup only: resolve_strategy would happily parse a
        # spec-shaped name and answer 200 for something never stored.
        strategy = self._stored_strategy(name)
        return {"name": name, "spec": strategy.to_spec(), "document": strategy.to_dict()}

    def _delete_strategy(self, name: str) -> Tuple[int, dict]:
        if not self._session.delete_strategy(name):
            raise ServiceError(f"no stored strategy named {name!r}", status=404)
        return 200, {"deleted": name}


class _ReadTimeout(Exception):
    """A request's head or body did not arrive within the read timeout."""


class _DeadlineReader(socket.SocketIO):
    """The read side of one connection, bounded by the current request's deadline.

    ``deadline`` is ``None`` while the connection idles between requests and a
    ``time.monotonic()`` instant once a request's first byte has arrived.  A
    client drip-feeding bytes cannot stretch a request past it, as it could a
    per-read timeout.
    """

    deadline: Optional[float] = None

    def readinto(self, buffer) -> Optional[int]:
        if self.deadline is None:
            return super().readinto(buffer)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise _ReadTimeout()
        self._sock.settimeout(remaining)
        try:
            return super().readinto(buffer)
        except TimeoutError:
            raise _ReadTimeout() from None
        finally:
            self._sock.settimeout(None)  # writes stay blocking


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin HTTP shell: JSON in, JSON out, everything else in MatchService."""

    server_version = f"coma-match-service/{__version__}"
    protocol_version = "HTTP/1.1"
    #: No HTTP/0.9: a malformed request line (or one that never arrived) is
    #: still answered with a status line and headers a client can parse.
    default_request_version = request_version = "HTTP/1.1"
    requestline = ""
    #: An event stream writes its head and each chunk separately; without
    #: TCP_NODELAY the write-write-read pattern triggers Nagle + delayed-ACK
    #: stalls (~40ms per response) under concurrent load.
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover - ops aid
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse the request head, reading an explicit ``HTTP/0.9`` line as HTTP/1.0.

        ``http.server`` would answer HTTP/0.9 with the bare body, where an
        error cannot be told from a success; HTTP/1.0 gets a status line and
        headers, also for an error found later in the head, and still closes.
        """
        words = self.raw_requestline.split()
        if len(words) >= 3 and words[-1] == b"HTTP/0.9":
            self.raw_requestline = b" ".join(words[:-1] + [b"HTTP/1.0"]) + b"\r\n"
        return super().parse_request()

    def setup(self) -> None:
        super().setup()
        self.rfile.close()  # replaced by a reader that enforces the request deadline
        self._reader = _DeadlineReader(self.connection, "rb")
        self.rfile = io.BufferedReader(self._reader)

    def handle(self) -> None:
        self.server.count_connection(1)
        try:
            super().handle()
        finally:
            self.server.count_connection(-1)

    def handle_one_request(self) -> None:
        """Serve one request: an untimed wait for its first byte, then a bounded read."""
        self._reader.deadline = None
        if not self.server.await_request(self):
            self.close_connection = True
            return
        self._reader.deadline = time.monotonic() + self.server.read_timeout
        try:
            super().handle_one_request()
        except _ReadTimeout:
            self.close_connection = True
            self._respond(408, {"error": self._timeout_message("head")})

    def _timeout_message(self, part: str) -> str:
        return (f"request {part} not received within {self.server.read_timeout}s "
                f"(slow client or stalled request)")

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Answer a framing error found by the ``http.server`` parser as JSON.

        Called for a malformed request line (400), an over-long request line
        (414) or header (431), an unknown method (501) or HTTP version (505).
        The connection closes: what follows on it cannot be framed.
        """
        self.close_connection = True
        reason = message or HTTPStatus(code).phrase
        if code == HTTPStatus.BAD_REQUEST:
            reason = f"malformed request line: {reason}"
        self._respond(code, {"error": reason})

    def _read_payload(self) -> Optional[dict]:
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            self.close_connection = True  # the chunked body is left unread
            raise ServiceError(
                "chunked request bodies are not supported; send a Content-Length",
                status=411,
            )
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            self.close_connection = True  # where the body ends is unknown
            raise ServiceError(f"invalid Content-Length {declared!r}", status=400)
        length = int(declared)
        if length == 0:
            return None
        try:
            if length > MAX_BODY_BYTES:
                # Drain the oversized body first: responding with unread
                # request bytes on the socket desynchronizes the keep-alive
                # connection (the client is still sending and only sees a
                # broken pipe).  Truly huge bodies are not worth draining --
                # close instead.
                if length <= 4 * MAX_BODY_BYTES:
                    remaining = length
                    while remaining > 0:
                        chunk = self.rfile.read(min(remaining, 1 << 20))
                        if not chunk:
                            break
                        remaining -= len(chunk)
                else:
                    self.close_connection = True
                raise ServiceError(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES} byte limit", status=413,
                )
            raw = self.rfile.read(length)
        except _ReadTimeout:
            self.close_connection = True
            raise ServiceError(self._timeout_message("body"), status=408)
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(f"request body is not valid JSON: {error}", status=400)
        if not isinstance(decoded, dict):
            raise ServiceError("the request body must be a JSON object", status=400)
        return decoded

    def _respond(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429:  # only admission refuses with 429
            self.send_header("Retry-After", "1")
        self.send_header("Connection", "close" if self.close_connection else "keep-alive")
        # end_headers() would write the head alone: the status line, headers
        # and body leave in one write, so the client wakes once per answer.
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _stream_events(self, stream: JobEventStream) -> None:
        """Render a job event stream as a chunked NDJSON response.

        Between events the thread checks the read side for EOF, so a consumer
        hanging up is noticed even while a long chunk runs, and a
        ``cancel_on_disconnect`` job stops before its next chunk.  Streams
        always close the connection: tailing has no meaningful keep-alive.
        """
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", stream.content_type)
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            while True:
                lines, finished = stream.tail(timeout=0.1)  # then check the consumer
                for line in lines:
                    self.wfile.write(b"%x\r\n" % len(line) + line + b"\r\n")
                if finished:
                    break
                with contextlib.suppress(BlockingIOError):  # nothing to read yet
                    if not self.connection.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT):
                        raise ConnectionResetError("the event stream's consumer hung up")
            self.wfile.write(b"0\r\n\r\n")
        except OSError:
            stream.disconnected()

    def _handle(self, method: str) -> None:
        try:
            payload = self._read_payload()
            if method == "POST" and self.path.split("?")[0].rstrip("/") == "/shutdown":
                # Holds no admission slot, so a saturated server still stops.
                self.close_connection = True
                self._respond(200, {"status": "shutting down"})
                threading.Thread(target=self.server.shutdown, daemon=True).start()
                return
            status, response = self.server.dispatch(method, self.path, payload)
        except ServiceError as error:
            status, response = (error.status or 400, {"error": str(error), **error.details})
        except Exception as error:  # pragma: no cover - defensive 500 path
            status, response = (500, {"error": f"internal error: {error}"})
        if isinstance(response, JobEventStream):
            self._stream_events(response)
            return
        if self.server._draining:
            self.close_connection = True
        self._respond(status, response)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("DELETE")


class MatchServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`MatchService`.

    One thread serves each connection.  At most ``max_queue`` requests are
    admitted (then 429); they enter the service through ``pool.size + 2``
    strict-FIFO slots, enough to keep every worker busy plus two cheap
    registry requests.  A request has ``read_timeout`` seconds from its
    first byte (then 408), and :meth:`server_close` drains.  See
    ``docs/service.md``, "Admission, timeouts and drain".
    """

    daemon_threads = True
    allow_reuse_address = True
    #: The socketserver default backlog of 5 drops simultaneous connection
    #: bursts (the SYN retransmit shows up as ~1s latency outliers).
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: MatchService,
                 verbose: bool = False, max_queue: int = DEFAULT_MAX_QUEUE,
                 read_timeout: float = DEFAULT_READ_TIMEOUT):
        if max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {max_queue}")
        if not read_timeout > 0:
            raise ServiceError(f"read_timeout must be > 0, got {read_timeout}")
        # Set before binding: a failed bind calls server_close().
        self.service = service
        self.verbose = verbose
        self.max_queue = max_queue
        self.read_timeout = read_timeout
        self._slots = _FifoSlots(service.pool.size + 2)
        self._state = threading.Condition()
        #: Connections waiting for their next request; ``None`` once drained.
        self._idle: Optional[set] = set()
        self._connections = 0
        self._in_flight = 0
        self._requests_served = 0
        self._rejected_429 = 0
        self._rejected_503 = 0
        self._draining = False
        super().__init__(address, _ServiceRequestHandler)
        service.frontend_stats = self.frontend_stats

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"

    def frontend_stats(self) -> dict:
        """The ``/stats`` ``frontend`` block: admission and connection counters."""
        with self._state:
            return {
                "kind": "sync",
                "in_flight": self._in_flight,
                "max_queue": self.max_queue,
                "queue_free": max(0, self.max_queue - self._in_flight),
                "connections": self._connections,
                "requests_served": self._requests_served,
                "rejected_429": self._rejected_429,
                "rejected_503": self._rejected_503,
                "draining": self._draining,
            }

    def serve_forever(self, poll_interval: float = POLL_INTERVAL) -> None:
        """Serve until :meth:`shutdown`, which returns within one poll."""
        super().serve_forever(poll_interval)

    def count_connection(self, delta: int) -> None:
        with self._state:
            self._connections += delta

    def await_request(self, handler: _ServiceRequestHandler) -> bool:
        """Wait, untimed, for the next request's first byte; False once closed.

        The drain closes connections waiting here.
        """
        connection = handler.connection
        with self._state:
            if self._idle is None:
                return False
            self._idle.add(connection)
        try:
            return bool(handler.rfile.peek(1))
        finally:
            with self._state:
                if self._idle is not None:
                    self._idle.discard(connection)

    def dispatch(self, method: str, path: str, payload: Optional[dict]
                 ) -> Tuple[int, Union[dict, JobEventStream]]:
        """Admit one request and run it through a FIFO dispatch slot.

        Raises a 503 :class:`ServiceError` while draining, a 429 when
        ``max_queue`` requests are already admitted.
        """
        with self._state:
            if self._draining:
                self._rejected_503 += 1
                raise ServiceError("the service is draining for shutdown", status=503)
            if self._in_flight >= self.max_queue:
                self._rejected_429 += 1
                raise ServiceError(
                    f"the service is at capacity ({self.max_queue} requests "
                    f"admitted); retry shortly", status=429,
                )
            self._in_flight += 1
        try:
            with self._slots:
                return self.service.handle_request(method, path, payload)
        finally:
            with self._state:
                self._in_flight -= 1
                self._requests_served += 1
                self._state.notify_all()

    def handle_error(self, request, client_address) -> None:
        """Drop a client that hung up before its response quietly."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Stop accepting, drain admitted requests, then close the service.

        Idle connections close at once; admitted requests finish (at most
        ``DRAIN_TIMEOUT`` seconds) with ``Connection: close``, later ones get
        503.  Every shutdown path funnels through here, so the similarity
        store is always flushed; :meth:`MatchService.close` is idempotent.
        """
        with self._state:
            self._draining = True
            idle, self._idle = self._idle or (), None
        super().server_close()
        for connection in idle:
            with contextlib.suppress(OSError):
                connection.shutdown(socket.SHUT_RDWR)
        with self._state:
            self._state.wait_for(lambda: self._in_flight == 0, timeout=DRAIN_TIMEOUT)
        self.service.close()


def create_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    service: Optional[MatchService] = None,
    verbose: bool = False,
    max_queue: int = DEFAULT_MAX_QUEUE,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    **service_kwargs,
) -> MatchServiceServer:
    """Build a ready-to-serve :class:`MatchServiceServer`.

    Parameters
    ----------
    host / port:
        The bind address (pass ``port=0`` for an ephemeral port, handy in
        tests and benchmarks; read the chosen port off ``server.url``).
    service:
        An existing :class:`MatchService` to expose; by default a fresh one
        is built from ``service_kwargs`` (``pool_size``, ``repository_path``,
        ...).
    verbose:
        Log each request line to stderr (the default stays quiet).
    max_queue:
        Requests admitted at once before the next is answered 429.
    read_timeout:
        Seconds a request's head and body may take from its first byte
        before the client is answered 408.

    Returns
    -------
    MatchServiceServer
        Not yet serving: call ``serve_forever()`` (or run it on a thread),
        then ``shutdown()`` and ``server_close()`` to drain and stop.

    Examples
    --------
    >>> server = create_server(port=0, pool_size=1)
    >>> server.url.startswith("http://127.0.0.1:")
    True
    >>> server.server_close()
    """
    if service is None:
        service = MatchService(**service_kwargs)
    elif service_kwargs:
        raise ServiceError(
            f"pass either a service instance or service keyword arguments, "
            f"not both (got {sorted(service_kwargs)})"
        )
    return MatchServiceServer((host, port), service, verbose=verbose,
                              max_queue=max_queue, read_timeout=read_timeout)


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = True,
    max_queue: int = DEFAULT_MAX_QUEUE,
    read_timeout: float = DEFAULT_READ_TIMEOUT,
    **service_kwargs,
) -> None:
    """Run the match service until interrupted (the ``coma serve`` entry point).

    ``max_queue`` and ``read_timeout`` bound admission and slow clients (see
    :class:`MatchServiceServer`); ``service_kwargs`` build the
    :class:`MatchService`.
    """
    server = create_server(host=host, port=port, verbose=verbose, max_queue=max_queue,
                           read_timeout=read_timeout, **service_kwargs)
    print(f"coma match service listening on {server.url} "
          f"(backend={server.service.backend}, workers={server.service.pool.size}, "
          f"max_queue={max_queue}); Ctrl-C to stop")
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()  # drains, then closes the service's persistent store
