"""The session pool: one warm :class:`MatchSession` behind the thread backend.

Every thread-backend match runs on the same thread-safe session, so each
schema's profile is built once and each (schema pair, matcher usage) cube is
computed once, however many requests run at the same time (concurrent misses
of one cube wait for the first), and cache memory does not grow with the pool
size.  ``size`` slots bound how many matches run at once -- request handlers
and background job chunks alike; later ones wait in FIFO order.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.exceptions import ServiceError
from repro.session.session import MatchSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.match_operation import MatchOutcome


class _FifoSlots:
    """A counting semaphore that hands each released slot to the oldest waiter.

    ``threading.Semaphore`` lets a thread arriving at the moment of a release
    take the slot ahead of threads already waiting, so under sustained load
    some requests lose many rounds in a row and the latency tail grows.  Here
    a release passes the slot straight to the waiter queued longest.
    """

    def __init__(self, count: int):
        self._free = count
        self._waiters: List[threading.Lock] = []
        self._lock = threading.Lock()

    @property
    def free(self) -> int:
        """How many slots nobody holds right now."""
        return self._free

    def __enter__(self) -> None:
        with self._lock:
            if self._free:  # free slots imply nobody is waiting
                self._free -= 1
                return
            turn = threading.Lock()
            turn.acquire()
            self._waiters.append(turn)
        turn.acquire()  # released by the __exit__ that hands over its slot

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.pop(0).release()
            else:
                self._free += 1


class SessionPool:
    """One warm :class:`MatchSession` behind the interface both backends share.

    Parameters
    ----------
    size:
        How many matches run at once; later ones wait in FIFO order.
    session:
        The session every match runs on; defaults to ``MatchSession()``.

    Raises
    ------
    ServiceError
        If ``size`` is below 1.

    Examples
    --------
    >>> pool = SessionPool(size=2)
    >>> with pool.session() as first, pool.session() as second:
    ...     first is second, pool.idle
    (True, 0)
    >>> pool.idle
    2
    """

    #: The execution backend this pool implements; the process counterpart
    #: (:class:`~repro.parallel.pool.ProcessSessionPool`) reports "process".
    backend = "thread"

    def __init__(self, size: int = 4, session: Optional[MatchSession] = None):
        if size < 1:
            raise ServiceError(f"a session pool needs size >= 1, got {size}")
        self._size = size
        self._session = session if session is not None else MatchSession()
        self._slots = _FifoSlots(size)

    @property
    def size(self) -> int:
        """How many matches run at once."""
        return self._size

    @property
    def idle(self) -> int:
        """``size`` minus the matches running right now.

        A point-in-time reading for ``/stats`` and leak checks: after every
        request has finished -- including ones whose handlers raised -- this
        equals :attr:`size` again.
        """
        return self._slots.free

    @contextlib.contextmanager
    def session(self) -> Iterator[MatchSession]:
        """The shared session, holding one of the ``size`` slots for the ``with`` block.

        When every slot is held, the caller waits until the next release;
        slots pass to waiters in arrival order.
        """
        with self._slots:
            yield self._session

    def match(self, source, target, strategy=None) -> "MatchOutcome":
        """Match one pair on the shared session.

        This mirrors :meth:`ProcessSessionPool.match
        <repro.parallel.pool.ProcessSessionPool.match>`, so the service layer
        drives either backend through one interface.
        """
        with self.session() as session:
            return session.match(source, target, strategy=strategy)

    def match_many(self, items) -> List["MatchOutcome"]:
        """Match a batch of ``(source, target[, strategy])`` tuples on the shared session."""
        with self.session() as session:
            return session.match_many(items)

    def cache_info(self) -> Dict[str, object]:
        """``backend``, ``shards`` (the session's ``cache_info`` as the one
        entry; the process backend lists one per worker) and its ``profiles``
        / ``cubes`` / ``cube_hits`` / ``cube_misses`` / ``store_hits`` /
        ``store_misses``.

        Examples
        --------
        >>> info = SessionPool(size=2).cache_info()
        >>> info["backend"], info["cube_hits"], len(info["shards"])
        ('thread', 0, 1)
        """
        info = self._session.cache_info()
        totals = ("profiles", "cubes", "cube_hits", "cube_misses", "store_hits", "store_misses")
        return {"backend": self.backend, "shards": [info], **{key: info[key] for key in totals}}

    def clear_caches(self) -> None:
        """Drop the session's caches."""
        self._session.clear_caches()

    def close(self) -> None:
        """Close the session (releasing session-owned persistent resources)."""
        self._session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionPool(size={self.size})"
