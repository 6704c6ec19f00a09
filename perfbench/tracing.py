"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions of each COMA layer *from the outside*:
:func:`install` patches the attributes listed in :data:`TARGETS` with timing
wrappers and returns an ``uninstall`` callable that restores the originals.
Nothing under ``src/`` is edited; an untraced run never imports this module's
wrappers into the call path at all.

A span is a list ``[name, start, end, parent, op, flag]``:

* ``parent`` -- index of the enclosing span in the *same thread's* list
  (``-1`` for none); spans nest only within a thread;
* ``op`` -- the op id open on that thread when the span started (``None`` for
  work outside any op, e.g. the similarity store's background writer);
* ``flag`` -- an optional 0/1 outcome (a store read that found data).

Spans are kept in memory, one list per thread, and written out at exit
(:meth:`SpanRecorder.dump`).  Self time is a span's duration minus the
durations of its direct children (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name prefix of op root spans (``op.<kind>``), opened by the harness.
OP_PREFIX = "op."

#: Spans that legitimately run off the op's thread (the store's background
#: writer).  They are reported per op but never counted into op coverage.
OFF_PATH = frozenset({"store.write"})

_INHERIT = object()


class SpanRecorder:
    """Collects spans in memory, one list per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lists: List[list] = []
        self._lock = threading.Lock()

    def _state(self) -> tuple:
        state = getattr(self._local, "state", None)
        if state is None:
            # (spans, open-span stack, [current op id])
            state = self._local.state = ([], [], [None])
            with self._lock:
                self._lists.append(state[0])
        return state

    def begin(self, name: str, op: object = _INHERIT) -> tuple:
        """Open a span; ``op`` (when given) becomes the thread's current op."""
        spans, stack, current = self._state()
        if op is not _INHERIT:
            current[0] = op
        index = len(spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, current[0], None]
        spans.append(span)
        stack.append(index)
        span[1] = self._clock()
        return span, stack

    def end(self, handle: tuple, flag: Optional[int] = None, reset_op: bool = False) -> None:
        """Close the span opened by :meth:`begin`."""
        span, stack = handle
        span[2] = self._clock()
        span[5] = flag
        stack.pop()
        if reset_op:
            self._state()[2][0] = None

    @contextlib.contextmanager
    def op(self, op_id: object, kind: str) -> Iterator[None]:
        """The root span of one benchmark op (``op.<kind>``)."""
        handle = self.begin(OP_PREFIX + kind, op=op_id)
        try:
            yield
        finally:
            self.end(handle, reset_op=True)

    def wrap(self, function: Callable, name, flag: Optional[Callable] = None) -> Callable:
        """A timing wrapper around ``function``.

        ``name`` is a span name or a callable deriving it from the call's
        first argument (the matcher instance); ``flag`` maps the result to a
        0/1 outcome stored on the span.
        """
        begin, end = self.begin, self.end
        dynamic = callable(name)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            handle = begin(name(args[0]) if dynamic else name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end(handle, flag(result) if flag is not None else None)

        return wrapper

    def spans(self) -> List[tuple]:
        """All spans as ``(name, start, end, parent, op, flag)`` with global parents."""
        with self._lock:
            lists = list(self._lists)
        flat: List[tuple] = []
        for spans in lists:
            offset = len(flat)
            for name, start, end, parent, op, flag in list(spans):
                flat.append(
                    (name, start, end, parent + offset if parent >= 0 else -1, op, flag)
                )
        return flat

    def dump(self, path: str) -> None:
        """Write every span to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": [list(span) for span in self.spans()]}, handle)


def load_spans(path: str) -> List[tuple]:
    """Spans written by :meth:`SpanRecorder.dump`."""
    with open(path, encoding="utf-8") as handle:
        return [tuple(span) for span in json.load(handle)["spans"]]


def self_times(spans: Sequence[tuple]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def graft(spans: Sequence[tuple], remote: Sequence[tuple]) -> List[tuple]:
    """Append another process's spans, hanging its op roots under local ops.

    A remote span that opened with an op id but no parent (the server's
    request root) becomes a child of the local op root with that id, so the
    local root's self time shrinks to what the remote side did not cover.
    """
    merged = list(spans)
    roots = {
        span[4]: index for index, span in enumerate(spans)
        if span[0].startswith(OP_PREFIX) and span[4] is not None
    }
    offset = len(merged)
    for name, start, end, parent, op, flag in remote:
        if parent >= 0:
            parent += offset
        elif op is not None:
            if op not in roots:
                op = None  # a request outside the timed ops (set-up, /stats)
            else:
                parent = roots[op]
        merged.append((name, start, end, parent, op, flag))
    return merged


def _target_attribute(owner: object, attribute: str):
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Patch every target of :data:`TARGETS` with a recorder wrapper.

    Each target is ``(module, owner, attribute, name[, flag])`` with
    ``owner`` a class name in ``module`` or ``None`` for a module function.
    Static methods stay static.  Returns ``uninstall``, which restores the
    original attributes.
    """
    restore: List[Tuple[object, str, object]] = []
    for target in TARGETS:
        module_name, owner_name, attribute, name = target[:4]
        flag = target[4] if len(target) > 4 else None
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        original = _target_attribute(owner, attribute)
        if isinstance(original, staticmethod):
            patched = staticmethod(recorder.wrap(original.__func__, name, flag))
        else:
            patched = recorder.wrap(original, name, flag)
        setattr(owner, attribute, patched)
        restore.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return uninstall


def _matcher_span(matcher) -> str:
    return f"matchers.{matcher.name}"


def _found(result) -> int:
    return int(result is not None)


#: The layer seams, outermost first.  Children/Leaves call TypeName, which
#: calls Name; self time keeps each class's own share.
TARGETS: Tuple[tuple, ...] = (
    ("repro.session.session", "MatchSession", "resolve_strategy", "session.resolve"),
    ("repro.session.session", "MatchSession", "context_for", "session.resolve"),
    ("repro.session.session", "MatchSession", "match_many", "search.survivor_match"),
    ("repro.engine.engine", "MatchEngine", "execute", "engine.execute"),
    ("repro.engine.engine", "MatchEngine", "execute_partial", "engine.partial"),
    ("repro.engine.profiles", "PathSetProfile", "__init__", "engine.profiles"),
    ("repro.engine.profiles", "PathSetProfile", "token_profile", "engine.profiles"),
    ("repro.engine.profiles", "PathSetProfile", "ngram_sets", "engine.profiles"),
    ("repro.engine.profiles", "PathSetProfile", "soundex_codes", "engine.profiles"),
    ("repro.engine.profiles", "PathSetProfile", "generic_types", "engine.profiles"),
    ("repro.matchers.hybrid.name", "NameMatcher", "compute_batch", _matcher_span),
    ("repro.matchers.hybrid.type_name", "TypeNameMatcher", "compute_batch", _matcher_span),
    ("repro.matchers.hybrid.structural", "_StructuralMatcherBase", "compute_batch",
     _matcher_span),
    ("repro.matchers.hybrid.name", None, "batch_set_similarity", "matchers.set_similarity"),
    ("repro.matchers.base", "StringMatcher", "similarity_many", "matchers.string_kernels"),
    ("repro.matchers.string.ngram", "NGramMatcher", "similarity_many",
     "matchers.string_kernels"),
    ("repro.matchers.string.soundex", "SoundexMatcher", "similarity_many",
     "matchers.string_kernels"),
    ("repro.matchers.string.edit_distance", "EditDistanceMatcher", "similarity_many",
     "matchers.string_kernels"),
    ("repro.combination.strategy", "CombinationStrategy", "aggregate", "combination.aggregate"),
    ("repro.combination.strategy", "CombinationStrategy", "select", "combination.select"),
    ("repro.combination.strategy", "CombinationStrategy", "combine_pairs",
     "combination.combined"),
    ("repro.repository.store", "SimilarityStore", "load_cube", "store.load", _found),
    ("repro.repository.store", "SimilarityStore", "load_path_signatures", "store.load",
     _found),
    ("repro.repository.store", "SimilarityStore", "store_cube", "store.write"),
    ("repro.repository.store", "SimilarityStore", "store_tokens", "store.write"),
    ("repro.repository.store", "SimilarityStore", "store_path_signatures", "store.write"),
    ("repro.repository.store", "SimilarityStore", "flush", "store.flush"),
    ("repro.search.searcher", "CorpusSearcher", "rank", "search.rank"),
    ("repro.search.corpus", "SchemaCorpus", "rank", "search.rank"),
    ("repro.search.corpus", "SchemaCorpus", "load", "search.load"),
    ("repro.search.corpus", "SchemaCorpus", "add", "search.index_write"),
    ("repro.model.digests", None, "schema_digests", "rematch.delta"),
    ("repro.model.digests", None, "schema_delta", "rematch.delta"),
    ("repro.service.server", "MatchService", "handle_request", "service.handle"),
    ("repro.service.server", "MatchService", "outcome_payload", "service.payload"),
    ("repro.service.server", "_ServiceRequestHandler", "_respond", "service.respond"),
)


def layer_totals(spans: Sequence[tuple], window: Optional[Tuple[float, float]] = None) -> dict:
    """Per-op accounting of a traced phase.

    Returns ``ops`` (op id -> ``(kind, wall)``), ``self`` / ``total`` /
    ``calls`` / ``flags`` keyed by ``(name, kind)`` and summed over the ops
    of that kind, plus ``root_self`` (kind -> summed self time of the op
    roots, i.e. time no layer span covered).  Off-path spans (the store
    writer) count under the kind ``"*"`` when they fall inside ``window``.
    """
    own = self_times(spans)
    ops: Dict[object, Tuple[str, float]] = {}
    for span in spans:
        if span[0].startswith(OP_PREFIX) and span[4] is not None:
            ops[span[4]] = (span[0][len(OP_PREFIX):], span[2] - span[1])
    totals: Dict[str, Dict[tuple, float]] = {
        "self": {}, "total": {}, "calls": {}, "flags": {}
    }
    root_self: Dict[str, float] = {}
    for index, (name, start, end, _parent, op, flag) in enumerate(spans):
        if op in ops:
            kind = ops[op][0]
            if name.startswith(OP_PREFIX):
                root_self[kind] = root_self.get(kind, 0.0) + own[index]
                continue
        elif op is None and name in OFF_PATH and (
            window is None or window[0] <= start <= window[1]
        ):
            kind = "*"
        else:
            continue
        key = (name, kind)
        totals["self"][key] = totals["self"].get(key, 0.0) + own[index]
        totals["total"][key] = totals["total"].get(key, 0.0) + (end - start)
        totals["calls"][key] = totals["calls"].get(key, 0) + 1
        if flag is not None:
            totals["flags"][key] = totals["flags"].get(key, 0) + flag
    return {"ops": ops, "root_self": root_self, **totals}
