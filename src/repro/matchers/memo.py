"""Process-wide kernel memo pools: cross-schema string-matcher result reuse.

Purchase-order-style corpora repeat the same field names constantly --
``Address``, ``City``, ``Street``, ``qty`` show up in almost every schema of a
domain.  The per-operation profile caches (PR 1) already collapse repeated
names *within* one schema pair, but every new pair re-evaluates the same
string kernels from scratch: ``EditDistance("street", "straat")`` is computed
again for every schema pair whose sides contain those two names.

A :class:`KernelMemoPool` closes that gap.  It memoises *string-matcher*
results process-wide, keyed by ``(kernel key, name pair)`` where the kernel
key identifies the matcher and its configuration (e.g.
``("EditDistance", 2, False)``) and the name pair is interned via
:func:`sys.intern` so repeated names share storage.  The pool is shared by all
sessions, operations and service requests of one process, so an all-pairs
campaign over ``n`` schemas evaluates each distinct (kernel, name pair) once
instead of once per schema pair.

Properties:

* **content-addressed**: entries depend only on the kernel key and the two
  strings, so a stale entry is impossible -- the same key always maps to the
  same value, which is also why pool reuse keeps results byte-identical to
  uncached execution;
* **bounded**: LRU with an entry cap (see :attr:`KernelMemoPool.max_entries`);
  each entry costs roughly 150-250 bytes (key tuple + interned strings +
  float), so the default cap of 1M entries bounds the pool at ~200 MB worst
  case and far less in practice because names repeat;
* **lock-guarded**: one lock per pool, taken once per *block* (not per pair),
  so batch lookups amortise the synchronisation;
* **instrumented**: ``hits`` / ``misses`` / ``evictions`` counters surfaced
  alongside the session cube counters through ``coma stats`` and the service
  ``/stats`` endpoint.

Matchers opt in by returning a hashable configuration key from
:meth:`~repro.matchers.base.StringMatcher.memo_key`; matchers whose kernel is
already a cheap bulk operation stay opted out, because a per-pair dict probe
would cost more than the kernel itself: the n-gram matmul, and Synonym, whose
bulk lookup visits only each source word's stored partners
(:meth:`~repro.auxiliary.synonyms.SynonymDictionary.similarity_many`).
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A callable evaluating the kernel for a list of (row, column) string pairs,
#: returning one value per pair.  Called only for pairs absent from the pool.
PairKernel = Callable[[Sequence[Tuple[str, str]]], np.ndarray]


class KernelMemoPool:
    """A bounded, lock-guarded, process-wide memo of string-kernel results.

    Parameters
    ----------
    max_entries:
        The LRU entry cap; ``None`` disables eviction (unbounded pool).

    Examples
    --------
    >>> pool = KernelMemoPool(max_entries=100)
    >>> kernel_calls = []
    >>> def kernel(pairs):
    ...     kernel_calls.extend(pairs)
    ...     return np.array([float(len(a) == len(b)) for a, b in pairs])
    >>> pool.block(("demo",), ["ab", "cd"], ["xy"], kernel)
    array([[1.],
           [1.]])
    >>> pool.block(("demo",), ["ab"], ["xy"], kernel)  # served from the pool
    array([[1.]])
    >>> len(kernel_calls)
    2
    >>> pool.info()["hits"], pool.info()["misses"]
    (1, 2)
    """

    #: Default entry cap: ~200 MB worst case, far less on real corpora.
    DEFAULT_MAX_ENTRIES = 1_000_000

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_ENTRIES):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._values: "OrderedDict[tuple, float]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def max_entries(self) -> Optional[int]:
        """The LRU entry cap (``None`` = unbounded)."""
        return self._max_entries

    @staticmethod
    def _entry_key(
        kernel_key: tuple, row: str, column: str, symmetric: bool
    ) -> tuple:
        if symmetric and column < row:
            row, column = column, row
        return (kernel_key, sys.intern(row), sys.intern(column))

    def block(
        self,
        kernel_key: tuple,
        rows: Sequence[str],
        columns: Sequence[str],
        kernel: PairKernel,
        symmetric: bool = True,
    ) -> np.ndarray:
        """The full ``rows x columns`` kernel matrix, memoised per pair.

        Known pairs are served from the pool; the remaining *distinct* pairs
        are evaluated through ``kernel`` in one call (outside the lock) and
        stored back.  ``symmetric=True`` (the default -- every current string
        kernel is symmetric) canonicalises the pair order so
        ``(a, b)`` and ``(b, a)`` share one entry.

        Parameters
        ----------
        kernel_key:
            Hashable matcher identity + configuration, e.g.
            ``("EditDistance", False)``.
        rows / columns:
            The two string axes (callers pass unique names, but duplicates
            are handled correctly).
        kernel:
            Evaluates the missing pairs; called at most once per block.
        symmetric:
            Whether ``kernel(a, b) == kernel(b, a)``.

        Returns
        -------
        numpy.ndarray
            The dense ``len(rows) x len(columns)`` float matrix.
        """
        shape = (len(rows), len(columns))
        values = np.empty(shape, dtype=float)
        if 0 in shape:
            return values
        # Key construction (tuple building + interning) is the expensive part
        # of the lookup sweep and needs no synchronisation -- keep it outside
        # the lock so concurrent sessions' blocks do not serialise on it.
        keys = [
            [self._entry_key(kernel_key, row, column, symmetric) for column in columns]
            for row in rows
        ]
        # Phase 1 (locked): gather known entries, collect distinct missing keys.
        missing: Dict[tuple, List[Tuple[int, int]]] = {}
        missing_pairs: List[Tuple[str, str]] = []
        with self._lock:
            pool = self._values
            for i, row_keys in enumerate(keys):
                for j, key in enumerate(row_keys):
                    value = pool.get(key)
                    if value is not None:
                        pool.move_to_end(key)
                        values[i, j] = value
                    else:
                        cells = missing.get(key)
                        if cells is None:
                            missing[key] = [(i, j)]
                            missing_pairs.append((rows[i], columns[j]))
                        else:
                            cells.append((i, j))
            self._hits += shape[0] * shape[1] - sum(len(c) for c in missing.values())
            self._misses += len(missing)
        if not missing:
            return values
        # Phase 2 (unlocked): evaluate the distinct missing pairs in one batch.
        computed = np.asarray(kernel(missing_pairs), dtype=float)
        if computed.shape != (len(missing_pairs),):
            raise ValueError(
                f"kernel returned shape {computed.shape}, "
                f"expected ({len(missing_pairs)},)"
            )
        # Phase 3 (locked): scatter and publish.  A concurrent block computing
        # the same pair published an identical value (the kernels are pure
        # functions of the key), so last-write-wins is safe.
        for value, cells in zip(computed, missing.values()):
            for i, j in cells:
                values[i, j] = value
        with self._lock:
            pool = self._values
            for key, value in zip(missing.keys(), computed):
                pool[key] = float(value)
                pool.move_to_end(key)
            if self._max_entries is not None:
                while len(pool) > self._max_entries:
                    pool.popitem(last=False)
                    self._evictions += 1
        return values

    def info(self) -> Dict[str, int]:
        """Occupancy and lifetime counters.

        Returns
        -------
        dict
            ``entries`` (current occupancy), ``max_entries`` (the cap, or 0
            for unbounded) and the lifetime ``hits`` / ``misses`` /
            ``evictions``.
        """
        with self._lock:
            return {
                "entries": len(self._values),
                "max_entries": self._max_entries or 0,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def clear(self, reset_counters: bool = False) -> None:
        """Drop all entries (and optionally reset the lifetime counters)."""
        with self._lock:
            self._values.clear()
            if reset_counters:
                self._hits = self._misses = self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.info()
        return (
            f"KernelMemoPool(entries={info['entries']}, hits={info['hits']}, "
            f"misses={info['misses']})"
        )


#: The pool shared by every matcher of the process (sessions, service requests,
#: the evaluation harness).  Entries are content-addressed, so sharing across
#: unrelated workloads is always safe.
DEFAULT_MEMO_POOL = KernelMemoPool()

_active_pool: Optional[KernelMemoPool] = DEFAULT_MEMO_POOL


def active_pool() -> Optional[KernelMemoPool]:
    """The pool string matchers currently memoise through (``None`` = disabled)."""
    return _active_pool


def set_active_pool(pool: Optional[KernelMemoPool]) -> Optional[KernelMemoPool]:
    """Swap the process-wide active pool; returns the previous one.

    Pass ``None`` to disable kernel memoisation entirely (the equivalence
    tests compare memoised and unmemoised execution through this switch).
    """
    global _active_pool
    previous = _active_pool
    _active_pool = pool
    return previous
