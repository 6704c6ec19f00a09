"""The service layer: the match session behind a network boundary.

The paper's deployment story -- one COMA instance whose repository, cubes and
strategies many users share -- needs the warm session (and its ~2.7x cache
reuse win) to live *behind* a network boundary.  This package provides that:

* :class:`~repro.service.server.MatchService` -- the transport-agnostic core:
  schema registry, strategy registry, and a
  :class:`~repro.service.pool.SessionPool` serving every request from one
  thread-safe warm session (or worker processes, on the process backend);
* :class:`~repro.service.server.MatchServiceServer` /
  :func:`~repro.service.server.create_server` /
  :func:`~repro.service.server.serve` -- the stdlib-only threading HTTP shell
  (``coma serve`` on the command line);
* :class:`~repro.service.client.ServiceClient` -- the matching stdlib-only
  client.

See ``docs/service.md`` for the endpoint reference and deployment guide.
"""

from __future__ import annotations

from repro.service.client import ServiceClient
from repro.service.jobs import Job, JobEventStream, JobManager
from repro.service.pool import SessionPool
from repro.service.server import (
    MatchService,
    MatchServiceServer,
    create_server,
    serve,
)

__all__ = [
    "Job",
    "JobEventStream",
    "JobManager",
    "MatchService",
    "MatchServiceServer",
    "ServiceClient",
    "SessionPool",
    "create_server",
    "serve",
]
