"""Process-parallel match execution: break the GIL ceiling, keep byte-identity.

The warm HTTP service throughput flat-lines under concurrent clients because
the thread backend's :class:`~repro.service.pool.SessionPool` runs every
request in one interpreter -- the GIL, not the hardware, is the ceiling.  Composite matching is
embarrassingly parallel across schema pairs, so this package adds a
**process** execution backend:

* :class:`~repro.parallel.pool.ProcessSessionPool` -- spawn-safe worker
  processes matching for one :class:`~repro.session.session.MatchSession`
  of the parent: each worker owns a warm session of its own over the
  parent session's repository and persistent
  :class:`~repro.repository.store.SimilarityStore` files, while the parent
  session resolves strategies and runs the chunks kept in the parent;
* :mod:`~repro.parallel.codec` -- the compact request/response wire format
  (schemas as loss-less JSON documents shipped once per worker, strategy
  specs as strings, similarity layers as raw ``float64`` buffers -- never
  pickled object graphs).

Entry points: ``MatchSession.match_many(..., processes=N)`` fans a batch out
across worker processes, and ``coma serve --backend process --workers N``
runs the HTTP service on the pool.  Both are byte-identical to the serial
path -- same mappings, same similarity bits -- which the differential suite
in ``tests/test_parallel_equivalence.py`` enforces against a serial
reference, in the spirit of VOODB-style validation of parallel backends.
"""

from repro.parallel.codec import decode_frame, encode_frame
from repro.parallel.pool import ProcessSessionPool

__all__ = ["ProcessSessionPool", "decode_frame", "encode_frame"]
