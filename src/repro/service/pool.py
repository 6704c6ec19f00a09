"""The session pool: N lock-guarded :class:`MatchSession` shards.

The service keeps a small fixed pool of warm sessions instead of a single
shared one.  A request acquires one shard exclusively for the duration of its
match operation, so a session never executes two operations at the same time
-- its FIFO caches fill in a deterministic per-shard order and lock
contention inside the session is zero.  Free shards live on a FIFO free-list
behind a condition variable: back-to-back requests rotate over the shards,
so every shard warms up even when requests never overlap, and with more
concurrent requests than shards, surplus requests block until *any* shard
is released (never on one specific shard, which would convoy under load).

:class:`MatchSession` is itself thread-safe, so sharding is a *throughput*
choice, not a correctness requirement: one shard per expected concurrent
request keeps every request on a warm exclusive session, while the total
cache memory stays bounded by ``size`` times the per-session cache bounds.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.exceptions import ServiceError
from repro.session.session import MatchSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.match_operation import MatchOutcome

#: A callable building one worker session (one per shard).
SessionFactory = Callable[[], MatchSession]


class SessionPool:
    """A fixed pool of lock-guarded :class:`MatchSession` shards.

    Parameters
    ----------
    size:
        The number of worker sessions (one per expected concurrent request).
    session_factory:
        A zero-argument callable building one worker session; defaults to
        ``MatchSession()``.  Called ``size`` times at construction, so every
        shard starts warm and identically configured.

    Raises
    ------
    ServiceError
        If ``size`` is below 1.

    Examples
    --------
    >>> pool = SessionPool(size=2)
    >>> with pool.session() as session:
    ...     isinstance(session, MatchSession)
    True
    >>> pool.size
    2
    """

    #: The execution backend this pool implements; the process counterpart
    #: (:class:`~repro.parallel.pool.ProcessSessionPool`) reports "process".
    backend = "thread"

    def __init__(self, size: int = 4, session_factory: Optional[SessionFactory] = None):
        if size < 1:
            raise ServiceError(f"a session pool needs size >= 1, got {size}")
        factory = session_factory if session_factory is not None else MatchSession
        self._sessions: List[MatchSession] = [factory() for _ in range(size)]
        # FIFO free-list guarded by a condition: an acquirer takes the shard
        # idle longest or waits until one is released (never on a specific
        # shard -- waiting on one shard while others free up convoys).
        self._free: List[int] = list(range(size))
        self._condition = threading.Condition()

    @property
    def size(self) -> int:
        """The number of shards."""
        return len(self._sessions)

    @property
    def idle(self) -> int:
        """How many shards are free right now (``size`` when fully idle).

        A point-in-time reading for ``/stats`` and leak checks: after every
        request has finished -- including ones whose handlers raised -- this
        must equal :attr:`size` again.
        """
        with self._condition:
            return len(self._free)

    @property
    def sessions(self) -> List[MatchSession]:
        """The worker sessions (for configuration fan-out and statistics)."""
        return list(self._sessions)

    @contextlib.contextmanager
    def session(self) -> Iterator[MatchSession]:
        """Acquire one shard exclusively for the duration of the ``with`` block.

        Takes the free shard idle longest, so requests that never overlap
        still rotate over -- and warm -- every shard; when every shard is
        busy the caller blocks until the next release, whichever shard that
        is.
        """
        with self._condition:
            while not self._free:
                self._condition.wait()
            index = self._free.pop(0)
        try:
            yield self._sessions[index]
        finally:
            with self._condition:
                self._free.append(index)
                self._condition.notify()

    def match(self, source, target, strategy=None) -> "MatchOutcome":
        """Match one pair on an exclusively acquired shard.

        This mirrors :meth:`ProcessSessionPool.match
        <repro.parallel.pool.ProcessSessionPool.match>`, so the service layer
        drives either backend through one interface.
        """
        with self.session() as session:
            return session.match(source, target, strategy=strategy)

    def match_many(self, items) -> List["MatchOutcome"]:
        """Match a batch of ``(source, target[, strategy])`` tuples on one shard."""
        with self.session() as session:
            return session.match_many(items)

    def cache_info(self) -> Dict[str, object]:
        """Aggregated cache statistics over all shards.

        Returns
        -------
        dict
            ``backend`` plus ``shards`` (the per-shard ``cache_info`` list)
            plus the summed ``profiles`` / ``cubes`` / ``cube_hits`` /
            ``cube_misses`` / ``store_hits`` / ``store_misses``.

        Examples
        --------
        >>> info = SessionPool(size=2).cache_info()
        >>> info["backend"], info["cube_hits"], len(info["shards"])
        ('thread', 0, 2)
        """
        shards = [session.cache_info() for session in self._sessions]
        totals = {
            key: sum(shard[key] for shard in shards)
            for key in (
                "profiles", "cubes", "cube_hits", "cube_misses",
                "store_hits", "store_misses",
            )
        }
        return {"backend": self.backend, "shards": shards, **totals}

    def clear_caches(self) -> None:
        """Drop the caches of every shard."""
        for session in self._sessions:
            session.clear_caches()

    def close(self) -> None:
        """Close every shard (releasing session-owned persistent resources)."""
        for session in self._sessions:
            session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SessionPool(size={self.size})"
