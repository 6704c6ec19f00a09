"""The match worker: one process, one warm session, a framed request loop.

``worker_main`` is the spawn target of
:class:`~repro.parallel.pool.ProcessSessionPool`.  It is deliberately a
module-level function taking only picklable arguments (a
``multiprocessing.connection.Connection`` and a plain options dict), so the
pool works under the ``spawn`` start method -- the only one that is safe
regardless of the parent's thread activity (``fork`` would duplicate the
parent's locked session caches, HTTP server threads and sqlite handles).

The worker owns a private warm :class:`~repro.session.session.MatchSession`
with the default match configuration, which the pool checks against its
parent session's.  When the parent session has a repository file or a
persistent :class:`~repro.repository.store.SimilarityStore` file, the worker
session opens its own connection to each, so every worker starts warm from
cubes any process stored before it (and contributes its own).  Schemas
arrive once per worker as loss-less JSON documents and are cached by content
digest; match requests then reference digests only, each with the strategy
spec the parent session resolved.

Protocol (all frames via :mod:`repro.parallel.codec`):

===============  ==============================================================
request kind     reply
===============  ==============================================================
``match``        ``outcomes`` (one item per pair) or ``unknown-schema``
``stats``        ``stats`` with the session's ``cache_info`` + pid + requests
``clear``        ``ok`` (caches dropped)
``shutdown``     ``ok``, then the loop exits and the session closes
===============  ==============================================================

Any per-request failure is answered with an ``error`` frame; the loop only
exits on ``shutdown`` or a closed pipe, so one bad request never kills the
worker.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict

from repro import faults
from repro.exceptions import ComaError
from repro.parallel import codec
from repro.repository.repository import Repository
from repro.session.session import MatchSession

#: How many reconstructed schemas one worker keeps (oldest evicted first).  An
#: evicted digest is simply re-shipped by the parent through the
#: ``unknown-schema`` recovery round trip.
SCHEMA_CACHE_BOUND = 256


def _handle_match(
    session,
    schemas: "OrderedDict",
    header,
    buffers,
    bound: int,
):
    """Execute one ``match`` request; returns ``(reply bytes, pairs matched)``."""
    faults.fault_point("worker.match")
    pairs = header["pairs"]
    needed = {str(pair[side]) for pair in pairs for side in ("source", "target")}
    for entry in header.get("schemas", ()):
        digest = str(entry["digest"])
        if digest not in schemas:
            schemas[digest] = codec.schema_from_payload(buffers[int(entry["buffer"])])
        else:
            schemas.move_to_end(digest)
    # Evict beyond the bound, but never a schema this very frame references --
    # otherwise a single chunk touching more distinct schemas than the bound
    # would evict its own payload and re-request it forever.
    if len(schemas) > bound:
        for digest in [d for d in schemas if d not in needed]:
            if len(schemas) <= bound:
                break
            del schemas[digest]
    missing = sorted(digest for digest in needed if digest not in schemas)
    if missing:
        return codec.encode_frame({"kind": "unknown-schema", "digests": missing}), 0
    outcomes = []
    for pair in pairs:
        source = schemas[str(pair["source"])]
        target = schemas[str(pair["target"])]
        schemas.move_to_end(str(pair["source"]))
        schemas.move_to_end(str(pair["target"]))
        outcomes.append(session.match(source, target, strategy=pair["strategy"]))
    return codec.encode_outcomes(outcomes), len(outcomes)


def worker_main(connection, options: Dict[str, object]) -> None:
    """Run the worker request loop until ``shutdown`` or a closed pipe."""
    plan_document = options.get("fault_plan")
    if plan_document:
        # The parent ships its fault plan with the spawn options, so chaos
        # runs exercise the same fault model on both sides of the pipe.  A
        # respawned worker re-arms from a fresh document (counters at zero):
        # per-process triggers like "kill on the first match" stay active
        # across the respawn, which is exactly what a crash-loop scenario
        # needs.
        faults.arm(faults.FaultPlan.from_dict(dict(plan_document)))
    repository_path = options.get("repository_path")
    # A store opened from its path is the session's own: close() closes it.
    session = MatchSession(
        repository=Repository(str(repository_path)) if repository_path else None,
        store=options.get("store_path"),
    )
    schemas: "OrderedDict[str, object]" = OrderedDict()
    bound = int(options.get("schema_cache_bound") or SCHEMA_CACHE_BOUND)
    requests = 0
    connection.send_bytes(
        codec.encode_frame(
            {
                "kind": "ready",
                # The parent refuses workers whose configuration digest
                # differs from its session's (that would break byte-identity).
                "config_digest": session.config_digest(),
                "pid": os.getpid(),
            }
        )
    )
    try:
        while True:
            try:
                data = connection.recv_bytes()
            except (EOFError, OSError):
                break  # the parent went away; nothing left to serve
            try:
                header, buffers = codec.decode_frame(data)
                kind = header["kind"]
                if kind == "shutdown":
                    connection.send_bytes(codec.encode_frame({"kind": "ok"}))
                    break
                if kind == "match":
                    # Counted on execution only: an unknown-schema reply (and
                    # its replay) must not inflate the per-worker numbers.
                    reply, matched = _handle_match(
                        session, schemas, header, buffers, bound
                    )
                    requests += matched
                elif kind == "stats":
                    reply = codec.encode_frame(
                        {
                            "kind": "stats",
                            "info": {
                                "pid": os.getpid(),
                                "requests": requests,
                                "schemas": len(schemas),
                                **session.cache_info(),
                            },
                        }
                    )
                elif kind == "clear":
                    session.clear_caches()
                    schemas.clear()
                    reply = codec.encode_frame({"kind": "ok"})
                else:
                    raise ComaError(f"unknown worker request kind {kind!r}")
            except Exception as error:  # noqa: BLE001 - reply, never die
                reply = codec.encode_error(error)
            try:
                connection.send_bytes(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        session.close()
        connection.close()
