"""The match session: COMA as a long-lived service object.

The paper describes COMA as a *system*: schemas, similarity cubes, mappings
and strategies live in a repository and many match operations reuse them.  A
:class:`MatchSession` is the in-process embodiment of that idea -- a
service-shaped entry point constructed once with the shared resources every
operation needs (matcher library, batch engine, tokenizer, synonym dictionary,
type-compatibility table, optional feedback store and repository) and reused
across arbitrarily many operations:

* :meth:`~MatchSession.match` / :meth:`~MatchSession.match_many` run automatic
  match operations through the batch :class:`~repro.engine.engine.MatchEngine`,
* :meth:`~MatchSession.iterate` opens an interactive
  :class:`~repro.core.processor.MatchProcessor` on the session's resources,
* :meth:`~MatchSession.evaluate` spins up an
  :class:`~repro.evaluation.campaign.EvaluationCampaign` whose per-task
  contexts share the session caches,
* :meth:`~MatchSession.save_strategy` / :meth:`~MatchSession.load_strategy` /
  :meth:`~MatchSession.delete_strategy` manage named declarative strategy
  specs, persisted through the repository when one is attached.

Two cross-operation caches amortise work a fresh session redoes on every
operation:

* the **profile cache** shares each schema's
  :class:`~repro.engine.profiles.PathSetProfile` (tokenized names, n-gram
  sets, soundex codes, generic types) across all operations of the session --
  an all-pairs campaign over ``n`` schemas builds ``n`` profiles instead of
  ``n * (n - 1)``;
* the **cube cache** keeps the matcher-specific
  :class:`~repro.combination.cube.SimilarityCube` of each (schema pair,
  matcher usage), so re-matching a pair under a different combination
  strategy -- the paper's core workflow when tuning strategies (Section 3
  stores cubes in the repository for exactly this reason) -- skips matcher
  execution entirely and only re-runs the combination pipeline.

Cubes are cached only for deterministic matcher usages (simple and hybrid
library matchers referenced by name).  Strategies naming reuse matchers or
``UserFeedback``, or carrying pre-configured matcher instances, bypass the
cube cache because their results depend on state outside the cube key.

**Thread safety.**  A session may be shared by many threads -- that is how the
:mod:`repro.service` layer serves every request of its process from one warm
session.  Cache *mutations* (inserts, trims, counter updates, in-flight
marks, named strategy registration) take one reentrant lock, lookups are
lock-free reads unless they count a hit, and the shared profile dict is a
lock-guarded mapping so contexts inserting profiles mid-execution serialise
with cache trimming.  Matcher execution -- the expensive part -- runs outside
the lock, so concurrent operations genuinely overlap, and concurrent misses
of one cube compute it once (see ``_execute``).  Results are byte-identical
to serial execution, and ``cube_hits + cube_misses`` always equals the
number of completed cacheable executions.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import threading
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
    TYPE_CHECKING,
)

import numpy as np

from repro.auxiliary.synonyms import SynonymDictionary, default_purchase_order_synonyms
from repro.combination.cube import SimilarityCube
from repro.core.match_operation import MatchOutcome, build_context, combine_cube
from repro.core.processor import MatchProcessor
from repro.core.strategy import MatchStrategy, default_strategy
from repro.engine.engine import DEFAULT_ENGINE, MatchEngine
from repro.engine.profiles import ForestProfile, PathSetProfile
from repro.exceptions import CombinationError, SessionError, UnknownMatcherError
from repro.linguistic.tokenizer import NameTokenizer
from repro.matchers.base import MatchContext
from repro.matchers.registry import DEFAULT_LIBRARY, MatcherLibrary
from repro.matchers.simple.user_feedback import UserFeedbackStore
from repro.model.datatypes import DEFAULT_TYPE_COMPATIBILITY, TypeCompatibilityTable
from repro.model.path import SchemaPath
from repro.model.schema import Schema
from repro.repository.store import _DigestMemo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.evaluation.campaign import EvaluationCampaign
    from repro.parallel.pool import ProcessSessionPool
    from repro.repository.repository import Repository
    from repro.repository.store import SimilarityStore
    from repro.search.corpus import SchemaCorpus
    from repro.search.searcher import CorpusSearcher, MatchManyFn, SearchResult

#: How callers may reference a strategy: an object, a spec / stored name, or
#: ``None`` for the session default.
StrategyLike = Union[MatchStrategy, str, None]

#: One batch item: ``(source, target)`` or ``(source, target, strategy)``.
MatchRequest = Union[
    Tuple[Schema, Schema],
    Tuple[Schema, Schema, StrategyLike],
]

#: Matcher kinds whose similarity cubes are fully determined by the session's
#: shared resources (reuse matchers depend on mutable mapping stores and
#: ``UserFeedback`` on the feedback store, so their cubes are never cached).
_CACHEABLE_KINDS = frozenset({"simple", "hybrid"})

#: Sentinel distinguishing "no feedback override" from "explicitly no store".
_UNSET = object()

#: Cells (source paths x concatenated target paths) one batched execution of
#: match_many spans at most; a larger group is split between targets.
_BATCH_CELLS = 1 << 18

#: How many distinct strategy strings a session keeps parsed (the oldest is
#: dropped first).
PARSED_SPECS_BOUND = 256


class _PathForest:
    """The target side of a batched execution: whole schemas' paths, concatenated.

    Cacheable matchers read nothing from a schema but its ``paths()``.
    """

    __slots__ = ("_paths",)

    def __init__(self, paths: Tuple[SchemaPath, ...]):
        self._paths = paths

    def paths(self) -> Tuple[SchemaPath, ...]:
        return self._paths


class _Flight(threading.Event):
    """A cube being computed: set when done, with ``cube`` ``None`` on failure."""

    cube: Optional[SimilarityCube] = None


class _Pending(NamedTuple):
    """A cacheable match_many request whose cube must be computed."""

    index: int
    key: tuple
    strategy: MatchStrategy
    context: MatchContext
    store_key: Optional[Tuple[str, str, str]]


def _resolve_malloc_trim():
    """glibc's ``malloc_trim(pad)``, or a no-op where the C library lacks it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


#: Returns freed heap pages to the OS after cube evictions (see _trim_caches).
_malloc_trim = _resolve_malloc_trim()


class _GuardedDict(dict):
    """A dict whose mutating operations run under an owning reentrant lock.

    The session hands this to every context it builds as the shared profile
    cache: contexts insert profiles directly during matcher execution, and the
    lock serialises those inserts with the session's cache trimming (which
    iterates the dict).  Reads stay lock-free -- under CPython they are safe
    against the guarded mutations, and a reader either sees a fully
    constructed entry or none at all.
    """

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.RLock):
        super().__init__()
        self._lock = lock

    def __setitem__(self, key, value):
        with self._lock:
            super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        with self._lock:
            return super().setdefault(key, default)

    def pop(self, *args):
        with self._lock:
            return super().pop(*args)

    def popitem(self):
        with self._lock:
            return super().popitem()

    def update(self, *args, **kwargs):
        with self._lock:
            super().update(*args, **kwargs)

    def clear(self):
        with self._lock:
            super().clear()

    def __reduce__(self):  # pragma: no cover - locks are not picklable
        raise TypeError("session caches cannot be pickled")


class MatchSession:
    """A long-lived match service owning the resources shared by all operations.

    Parameters
    ----------
    library:
        The matcher library strategies resolve their matcher names against
        (default: :data:`~repro.matchers.registry.DEFAULT_LIBRARY`).
    engine:
        The :class:`~repro.engine.engine.MatchEngine` executing matcher
        batches (default: the vectorized sequential engine).
    strategy:
        The default strategy of :meth:`match` / :meth:`match_many`; a
        :class:`~repro.core.strategy.MatchStrategy` or a spec string
        (default: the paper's default operation).
    tokenizer / synonyms / type_compatibility:
        The linguistic resources shared by every context the session builds
        (the type-compatibility table is copied per context; mutating the
        session's table reconfigures subsequently built contexts only).
    feedback:
        An optional session-wide user-feedback store applied to every
        operation (individual calls may override it).
    repository:
        An optional :class:`~repro.repository.repository.Repository` used by
        reuse matchers and for persisting named strategies.
    store:
        An optional persistent :class:`~repro.repository.store.SimilarityStore`
        (or a path string, opened on the spot and closed by :meth:`close`):
        cube-cache misses consult the store by content address before
        executing matchers, computed cubes are written back asynchronously,
        and the session's name-token memo is seeded from (and flushed back
        to) the store's token artifacts.  A restarted process is then warm
        from its first request.  Only cacheable executions use the store,
        and only sessions on the *default* matcher library consult it at
        all -- stored cubes are addressed by matcher name, which is sound
        only when every process resolves those names identically; a custom
        ``library`` silently bypasses the store.
    max_cached_cubes / max_cached_profiles:
        Bounds on the two caches (oldest entries are evicted first), keeping a
        long-lived session's memory finite under a stream of distinct schema
        pairs.  The defaults comfortably cover the bundled evaluation
        workloads; pass ``None`` for an unbounded cache.

    Raises
    ------
    SessionError
        If a cache bound is below 1, or ``strategy`` is not a strategy
        object, spec string or stored name.

    Examples
    --------
    >>> from repro.datasets.figure1 import load_po1, load_po2
    >>> session = MatchSession()
    >>> outcome = session.match(load_po1(), load_po2())
    >>> len(outcome.result) > 0
    True
    """

    #: Default cache bounds: enough for the all-pairs Figure 8 campaign with
    #: plenty of headroom, while keeping a serving session's memory finite.
    DEFAULT_MAX_CACHED_CUBES = 256
    DEFAULT_MAX_CACHED_PROFILES = 1024
    #: Bound on the session-wide name-token memo (entries are tiny -- a name
    #: plus a few short tokens -- so 100k entries stay in the tens of MB).
    MAX_TOKEN_MEMO_ENTRIES = 100_000

    def __init__(
        self,
        library: Optional[MatcherLibrary] = None,
        engine: Optional[MatchEngine] = None,
        strategy: StrategyLike = None,
        tokenizer: Optional[NameTokenizer] = None,
        synonyms: Optional[SynonymDictionary] = None,
        type_compatibility: Optional[TypeCompatibilityTable] = None,
        feedback: Optional[UserFeedbackStore] = None,
        repository: Optional["Repository"] = None,
        store: "SimilarityStore | str | None" = None,
        corpus: "SchemaCorpus | str | None" = None,
        max_cached_cubes: Optional[int] = DEFAULT_MAX_CACHED_CUBES,
        max_cached_profiles: Optional[int] = DEFAULT_MAX_CACHED_PROFILES,
    ):
        self._library = library if library is not None else DEFAULT_LIBRARY
        self._engine = engine if engine is not None else DEFAULT_ENGINE
        self._tokenizer = tokenizer if tokenizer is not None else NameTokenizer()
        self._synonyms = (
            synonyms if synonyms is not None else default_purchase_order_synonyms()
        )
        self._type_compatibility = (
            type_compatibility
            if type_compatibility is not None
            else DEFAULT_TYPE_COMPATIBILITY.copy()
        )
        self._feedback = feedback
        self._repository = repository
        for bound, label in ((max_cached_cubes, "max_cached_cubes"),
                             (max_cached_profiles, "max_cached_profiles")):
            if bound is not None and bound < 1:
                raise SessionError(f"{label} must be >= 1 or None, got {bound}")
        self._max_cached_cubes = max_cached_cubes
        self._max_cached_profiles = max_cached_profiles
        #: One reentrant lock guards every cache mutation of the session; see
        #: the module docstring for the locking discipline.
        self._lock = threading.RLock()
        self._profile_cache: Dict[Tuple[SchemaPath, ...], PathSetProfile] = (
            _GuardedDict(self._lock)
        )
        self._cube_cache: Dict[tuple, SimilarityCube] = _GuardedDict(self._lock)
        #: Cube keys some match() is computing right now (see _execute).
        self._flights: Dict[tuple, _Flight] = {}
        #: Profile keys inside transient_profile() blocks right now.
        self._transient_users: Dict[tuple, list] = {}
        self._cube_hits = 0
        self._cube_misses = 0
        self._store_hits = 0
        self._store_misses = 0
        self._rematch_spliced = 0
        self._rematch_fallbacks = 0
        self._rematch_reused_rows = 0
        self._rematch_recomputed_rows = 0
        #: Session-wide name -> token-tuple memo shared by every profile the
        #: session builds (and seeded from the persistent store when one is
        #: attached).  Inserts are idempotent, so the dict needs no lock.
        self._token_memo: Dict[str, Tuple[str, ...]] = {}
        self._token_watermark = 0
        self._store: Optional["SimilarityStore"] = None
        self._owns_store = False
        self._store_config: Optional[str] = None
        self._tokenizer_digest: Optional[str] = None
        #: Schema content digests (the store's cube addresses); a schema
        #: edited in place is re-addressed on its next lookup.
        self._schema_digests = _DigestMemo()
        if store is not None:
            # Stored cubes are addressed by *matcher names*: that is only
            # sound when both the writing and the reading session resolve
            # those names to identically configured matchers.  The default
            # library guarantees it across processes; a custom library does
            # not (names may be re-registered with different configuration),
            # so such sessions keep their in-memory caches but never consult
            # the persistent store.
            if self._library is DEFAULT_LIBRARY:
                if isinstance(store, str):
                    from repro.repository.store import SimilarityStore

                    store = SimilarityStore(store)
                    self._owns_store = True
                self._store = store
                self._refresh_store_digests()
        self._corpus: Optional["SchemaCorpus"] = None
        self._owns_corpus = False
        self._searcher: Optional["CorpusSearcher"] = None
        if corpus is not None:
            if isinstance(corpus, str):
                from repro.search.corpus import SchemaCorpus

                corpus = SchemaCorpus(corpus, tokenizer=self._tokenizer)
                self._owns_corpus = True
            self._corpus = corpus
        self._named_strategies: Dict[str, MatchStrategy] = {}
        #: Strategy string -> its parsed strategy, shared by every caller.
        self._spec_cache: Dict[str, MatchStrategy] = {}
        # resolve_strategy needs library / repository / named registry in place,
        # and accepts the same references (object, spec or stored name) here as
        # every other strategy entry point.
        self._default_strategy = default_strategy()
        if strategy is not None:
            self._default_strategy = self.resolve_strategy(strategy)

    # -- shared resources ------------------------------------------------------

    @property
    def library(self) -> MatcherLibrary:
        """The matcher library strategies are resolved against.

        Examples
        --------
        >>> session = MatchSession()
        >>> "NamePath" in session.library
        True
        """
        return self._library

    @property
    def engine(self) -> MatchEngine:
        """The engine executing matcher batches.

        Examples
        --------
        >>> MatchSession().engine.use_batch
        True
        """
        return self._engine

    @property
    def tokenizer(self) -> NameTokenizer:
        """The tokenizer every profile of this session is built with.

        Examples
        --------
        >>> MatchSession().tokenizer.tokenize("ShipTo")
        ('ship', 'to')
        """
        return self._tokenizer

    @property
    def repository(self) -> Optional["Repository"]:
        """The attached repository (``None`` for a repository-less session)."""
        return self._repository

    @property
    def store(self) -> Optional["SimilarityStore"]:
        """The attached persistent similarity store, if any."""
        return self._store

    def _refresh_store_digests(self) -> None:
        """(Re)compute the content digests of the session's configuration.

        Called at construction and from :meth:`clear_caches`, so mutating a
        shared resource in place (synonyms, abbreviations, type table) and
        clearing the caches also re-addresses the persistent store --
        previously stored cubes for the old configuration simply stop
        matching.
        """
        from repro.repository.store import match_config_digest, tokenizer_digest

        self._store_config = match_config_digest(
            self._tokenizer, self._synonyms, self._type_compatibility,
            library=self._library,
        )
        self._tokenizer_digest = tokenizer_digest(self._tokenizer)
        if self._store is not None:
            # Seed to half the trim bound: the memo must have headroom for
            # names the seed does not cover, or the first new name after a
            # full seed would push it over the bound and the wholesale trim
            # would wipe everything that was just loaded.
            seeded = self._store.load_tokens(
                self._tokenizer_digest, limit=self.MAX_TOKEN_MEMO_ENTRIES // 2
            )
            with self._lock:
                self._token_memo.update(seeded)
                self._token_watermark = len(self._token_memo)

    @property
    def feedback(self) -> Optional[UserFeedbackStore]:
        """The session-wide user-feedback store, if configured."""
        return self._feedback

    def config_digest(self) -> str:
        """The content digest of the session's match configuration.

        Covers the tokenizer (flags + abbreviations), the synonym dictionary,
        the type-compatibility table and the matcher library registrations --
        every input a similarity cube depends on besides the schemas.  Two
        sessions (in any two processes) with equal digests produce
        byte-identical cubes for identical schemas, which is what the
        process fan-out (:meth:`match_many` with ``processes=``) checks
        before dispatching work to its workers.

        Examples
        --------
        >>> MatchSession().config_digest() == MatchSession().config_digest()
        True
        """
        from repro.repository.store import match_config_digest

        return match_config_digest(
            self._tokenizer, self._synonyms, self._type_compatibility,
            library=self._library,
        )

    @property
    def default_strategy(self) -> MatchStrategy:
        """The strategy used when a call does not specify one.

        Examples
        --------
        >>> MatchSession().default_strategy.to_spec()
        'All(Average,Both,Thr(0.5)+Delta(0.02,rel),Average)'
        """
        return self._default_strategy

    def set_default_strategy(self, strategy: StrategyLike) -> MatchStrategy:
        """Replace the session's default strategy.

        Parameters
        ----------
        strategy:
            A :class:`~repro.core.strategy.MatchStrategy`, a spec string or a
            stored strategy name (resolved via :meth:`resolve_strategy`).

        Returns
        -------
        MatchStrategy
            The resolved strategy now serving as the default.

        Raises
        ------
        SessionError
            If the reference is neither ``None``, a strategy object nor a
            string (``None`` keeps the current default).

        Examples
        --------
        >>> session = MatchSession()
        >>> session.set_default_strategy("Name+Leaves(Max,Both,MaxN(1),Dice)").to_spec()
        'Name+Leaves(Max,Both,MaxN(1),Dice)'
        """
        self._default_strategy = self.resolve_strategy(strategy)
        return self._default_strategy

    # -- contexts and profiles -------------------------------------------------

    def context_for(
        self, source: Schema, target: Schema, feedback: object = _UNSET
    ) -> MatchContext:
        """A match context over the session's shared resources.

        All contexts of one session share the same profile-cache dict, so
        path-set profiles are computed once per schema per session regardless
        of how many operations touch that schema.  The type-compatibility
        table is *copied* per context (preserving the per-operation isolation
        :class:`~repro.matchers.base.MatchContext` documents): customising one
        operation's table cannot leak into others, while reconfiguring the
        session's own table affects all subsequently built contexts.

        Parameters
        ----------
        source / target:
            The schemas of the match operation.
        feedback:
            Overrides the session-wide feedback store for this context; pass
            ``None`` to explicitly detach feedback.

        Returns
        -------
        MatchContext
            A fresh context sharing the session's tokenizer, synonyms,
            repository and profile cache.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> context = session.context_for(load_po1(), load_po2())
        >>> context.source_schema.name
        'PO1'
        """
        return build_context(
            source,
            target,
            tokenizer=self._tokenizer,
            synonyms=self._synonyms,
            type_compatibility=self._type_compatibility.copy(),
            feedback=self._feedback if feedback is _UNSET else feedback,  # type: ignore[arg-type]
            repository=self._repository,
            profile_cache=self._profile_cache,
            token_memo=self._token_memo,
        )

    def profile_for(self, schema: Schema) -> PathSetProfile:
        """The (session-cached) path-set profile of a schema's full path set.

        Parameters
        ----------
        schema:
            The schema whose paths are profiled.

        Returns
        -------
        PathSetProfile
            The cached profile; concurrent callers racing on the same schema
            converge on one published instance.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1
        >>> session = MatchSession()
        >>> profile = session.profile_for(load_po1())
        >>> len(profile) == len(load_po1().paths())
        True
        """
        key = tuple(schema.paths())
        profile = self._profile_cache.get(key)
        if profile is None:
            profile = PathSetProfile(key, self._tokenizer, token_memo=self._token_memo)
            # setdefault: if another thread published a profile for this key
            # in the meantime, every caller converges on that instance.
            profile = self._profile_cache.setdefault(key, profile)
            self._trim_caches()
        return profile

    @contextlib.contextmanager
    def transient_profile(self, schema: Schema) -> Iterator[PathSetProfile]:
        """The schema's cached profile, evicted on exit unless cached on entry.

        For one-off schemas such as search queries: the profile serves every
        operation inside the block, and a stream of them does not fill the
        profile cache.  Overlapping blocks of one schema count as one: the
        last to exit evicts the profile unless it was cached before the first
        entered (a match of the schema running meanwhile may then rebuild it).

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1
        >>> session = MatchSession()
        >>> with session.transient_profile(load_po1()) as profile:
        ...     session.cache_info()["profiles"]
        1
        >>> session.cache_info()["profiles"]
        0
        """
        key = tuple(schema.paths())
        with self._lock:
            # [open blocks, whether the profile was cached before the first]
            users = self._transient_users.setdefault(key, [0, key in self._profile_cache])
            users[0] += 1
        try:
            yield self.profile_for(schema)
        finally:
            with self._lock:
                users[0] -= 1
                if not users[0]:
                    del self._transient_users[key]
                    if not users[1]:
                        self._profile_cache.pop(key, None)

    # -- strategies ------------------------------------------------------------

    def resolve_strategy(self, strategy: StrategyLike) -> MatchStrategy:
        """Resolve a strategy reference.

        Parameters
        ----------
        strategy:
            ``None`` (the session default), a
            :class:`~repro.core.strategy.MatchStrategy` object, a stored
            strategy name, or a declarative spec string such as
            ``"All(Average,Both,Thr(0.5)+Delta(0.02),Average)"``.  Each
            distinct spec string is parsed once (up to
            :data:`PARSED_SPECS_BOUND` of them), and every caller shares
            the parsed strategy.

        Returns
        -------
        MatchStrategy
            The resolved strategy object.

        Raises
        ------
        SessionError
            If ``strategy`` is neither ``None``, a strategy object nor a
            string.
        StrategyError
            If a spec string does not parse or names unknown matchers.

        Examples
        --------
        >>> session = MatchSession()
        >>> session.resolve_strategy(None) is session.default_strategy
        True
        >>> session.resolve_strategy("Name(Max,Both,MaxN(1),Dice)").matcher_names()
        ('Name',)
        """
        if strategy is None:
            return self._default_strategy
        if isinstance(strategy, MatchStrategy):
            return strategy
        if isinstance(strategy, str):
            named = self._named_strategies.get(strategy)
            if named is not None:
                return named
            # Stored names never contain parentheses (save_strategy rejects
            # them), so full specs skip the per-call repository lookup.
            if (
                "(" not in strategy
                and self._repository is not None
                and self._repository.has_strategy(strategy)
            ):
                return self.load_strategy(strategy)
            parsed = self._spec_cache.get(strategy)
            if parsed is None:
                parsed = MatchStrategy.parse(strategy, library=self._library)
                with self._lock:
                    if len(self._spec_cache) >= PARSED_SPECS_BOUND:
                        del self._spec_cache[next(iter(self._spec_cache))]
                    parsed = self._spec_cache.setdefault(strategy, parsed)
            return parsed
        raise SessionError(
            f"strategies must be MatchStrategy objects, spec strings or stored "
            f"names, got {strategy!r}"
        )

    def save_strategy(self, name: str, strategy: StrategyLike) -> MatchStrategy:
        """Register a named strategy, persisting it when a repository is attached.

        Parameters
        ----------
        name:
            The name later calls (and other sessions over the same
            repository) resolve the strategy by.  Must be non-empty and must
            not contain parentheses.
        strategy:
            Any strategy reference accepted by :meth:`resolve_strategy`.

        Returns
        -------
        MatchStrategy
            The resolved strategy, relabelled with ``name``.

        Raises
        ------
        SessionError
            If ``name`` is empty or contains parentheses.
        RepositoryError
            If an attached repository cannot persist the strategy.

        Examples
        --------
        >>> session = MatchSession()
        >>> session.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)").name
        'tuned'
        >>> "tuned" in session.strategy_names()
        True
        """
        if not name:
            raise SessionError("a named strategy needs a non-empty name")
        if "(" in name or ")" in name:
            raise SessionError(
                f"strategy names must not contain parentheses (got {name!r}); "
                f"they would be indistinguishable from spec strings"
            )
        resolved = self.resolve_strategy(strategy).replaced(name=name)
        with self._lock:
            # Persist first: a repository failure must not leave the name
            # resolvable in this session but absent from the shared store.
            if self._repository is not None:
                self._repository.store_strategy(name, resolved)
            self._named_strategies[name] = resolved
        return resolved

    def load_strategy(self, name: str) -> MatchStrategy:
        """A previously saved strategy, from the session or its repository.

        Parameters
        ----------
        name:
            The stored strategy name.

        Returns
        -------
        MatchStrategy
            The named strategy (cached in the session after the first
            repository load).

        Raises
        ------
        SessionError
            If no strategy of that name exists in the session or its
            repository.

        Examples
        --------
        >>> session = MatchSession()
        >>> _ = session.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        >>> session.load_strategy("tuned").to_spec()
        'All(Max,Both,Thr(0.6),Dice)'
        """
        named = self._named_strategies.get(name)
        if named is not None:
            return named
        if self._repository is not None and self._repository.has_strategy(name):
            loaded = self._repository.load_strategy(name, library=self._library)
            with self._lock:
                # A concurrent load of the same name keeps the first entry.
                loaded = self._named_strategies.setdefault(name, loaded)
            return loaded
        raise SessionError(f"no strategy named {name!r} in this session or its repository")

    def delete_strategy(self, name: str) -> bool:
        """Forget a saved strategy, in the session and its repository.

        Returns
        -------
        bool
            Whether a strategy of that name existed in either.

        Examples
        --------
        >>> session = MatchSession()
        >>> _ = session.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        >>> session.delete_strategy("tuned"), session.delete_strategy("tuned")
        (True, False)
        """
        with self._lock:
            removed = self._named_strategies.pop(name, None) is not None
            if self._repository is not None:
                removed = self._repository.delete_strategy(name) or removed
        return removed

    def strategy_names(self) -> Tuple[str, ...]:
        """Names of all saved strategies (session-local and repository-persisted).

        Returns
        -------
        tuple of str
            Sorted strategy names.

        Examples
        --------
        >>> session = MatchSession()
        >>> _ = session.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        >>> session.strategy_names()
        ('tuned',)
        """
        with self._lock:  # snapshot: concurrent saves mutate the registry
            names = set(self._named_strategies)
        if self._repository is not None:
            names.update(self._repository.strategy_names())
        return tuple(sorted(names))

    # -- match operations ------------------------------------------------------

    def match(
        self,
        source: Schema,
        target: Schema,
        strategy: StrategyLike = None,
        feedback: object = _UNSET,
    ) -> MatchOutcome:
        """Run one automatic match operation through the session's resources.

        Parameters
        ----------
        source / target:
            The schemas to match.
        strategy:
            Any reference accepted by :meth:`resolve_strategy`; ``None`` uses
            the session default.
        feedback:
            Overrides the session-wide feedback store for this operation.

        Returns
        -------
        MatchOutcome
            The complete outcome: the selected mapping (``result``), the
            matcher-specific similarity ``cube``, the ``aggregated`` matrix,
            the combined ``schema_similarity`` and the resolved ``strategy``.

        Raises
        ------
        StrategyError
            If the strategy reference does not resolve.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> outcome = session.match(load_po1(), load_po2())
        >>> 0.0 <= outcome.schema_similarity <= 1.0
        True
        >>> outcome.strategy.name
        'All'
        """
        active = self.resolve_strategy(strategy)
        context = self.context_for(source, target, feedback=feedback)
        return self._outcome(self._execute(active, context), active, context)

    def _outcome(
        self, cube: SimilarityCube, strategy: MatchStrategy, context: MatchContext
    ) -> MatchOutcome:
        """Combine a cube under ``strategy`` into the operation's outcome."""
        result, aggregated, schema_similarity = combine_cube(
            cube,
            strategy.combination,
            context,
            apply_feedback_overrides=strategy.apply_feedback_overrides,
        )
        return MatchOutcome(
            result=result,
            cube=cube,
            aggregated=aggregated,
            schema_similarity=schema_similarity,
            strategy=strategy,
            context=context,
        )

    def rematch(
        self,
        old: Schema,
        new: Schema,
        previous_result: Optional[MatchOutcome] = None,
        target: Optional[Schema] = None,
        strategy: StrategyLike = None,
        feedback: object = _UNSET,
    ) -> MatchOutcome:
        """Re-match an evolved schema, reusing every unaffected similarity row.

        ``new`` is a later version of ``old``; the row signatures of
        :mod:`repro.model.digests` identify the paths an edit touched, the
        matchers re-run only on those rows (or columns, when ``old`` was the
        target side of the previous operation), and every other cell is
        copied verbatim from the previous cube.  The outcome is byte-identical
        to a from-scratch :meth:`match` of the new pair -- splicing is purely
        an execution shortcut, never an approximation.

        Parameters
        ----------
        old / new:
            The previous and the evolved version of the changing schema.
        previous_result:
            The outcome of a previous :meth:`match` involving ``old`` on
            either side.  ``None`` is allowed when a persistent store is
            attached (or the session's cube cache still holds the old pair):
            the previous cube is then recovered by content address, which is
            how a restarted process splices without re-running the old match.
        target:
            The unchanged opposite schema.  Required without
            ``previous_result``; otherwise inferred from it.
        strategy:
            Any reference accepted by :meth:`resolve_strategy`; defaults to
            the previous result's strategy (or the session default).
        feedback:
            Overrides the session-wide feedback store for this operation.

        Returns
        -------
        MatchOutcome
            The complete outcome of matching the new pair, byte-identical to
            a cold :meth:`match`.

        Raises
        ------
        SessionError
            If ``previous_result`` does not involve ``old``, or neither
            ``previous_result`` nor ``target`` identifies the opposite
            schema.

        Examples
        --------
        >>> from repro.datasets.generators import generate_pair, mutate_schema
        >>> pair = generate_pair(sections=2, fields_per_section=3, seed=5)
        >>> session = MatchSession()
        >>> previous = session.match(pair.source, pair.target)
        >>> evolved = mutate_schema(pair.source, pair.source.name, seed=11,
        ...                         rename_rate=0.1, graft_sections=0, drift_rate=0.0)
        >>> spliced = session.rematch(pair.source, evolved, previous)
        >>> cold = MatchSession().match(evolved, pair.target)
        >>> spliced.result.as_tuples() == cold.result.as_tuples()
        True
        """
        return self._rematch(old, new, previous_result, target, strategy, feedback)[0]

    def _rematch(
        self,
        old: Schema,
        new: Schema,
        previous_result: Optional[MatchOutcome] = None,
        target: Optional[Schema] = None,
        strategy: StrategyLike = None,
        feedback: object = _UNSET,
    ) -> Tuple[MatchOutcome, bool]:
        """:meth:`rematch`'s outcome, and whether this call spliced (or hit the cache)."""
        from repro.model.digests import schema_delta, schema_digests

        # -- orientation: which side of the previous pair is evolving? -------
        if previous_result is not None:
            prev_source = previous_result.result.source_schema
            prev_target = previous_result.result.target_schema
            if prev_source is old or prev_source.paths() == old.paths():
                side, fixed = "source", prev_target
            elif prev_target is old or prev_target.paths() == old.paths():
                side, fixed = "target", prev_source
            else:
                raise SessionError(
                    "previous_result does not involve the old schema on either side"
                )
            if (
                target is not None
                and target is not fixed
                and target.paths() != fixed.paths()
            ):
                raise SessionError(
                    "target disagrees with the previous result's unchanged side"
                )
            prev_cube: Optional[SimilarityCube] = previous_result.cube
            if strategy is None:
                strategy = previous_result.strategy
        else:
            if target is None:
                raise SessionError(
                    "rematch without previous_result needs the unchanged "
                    "target schema"
                )
            side, fixed = "source", target
            prev_cube = None

        active = self.resolve_strategy(strategy)
        if side == "source":
            new_source, new_target = new, fixed
            old_source, old_target = old, fixed
        else:
            new_source, new_target = fixed, new
            old_source, old_target = fixed, old

        key = self._cube_key(new_source, new_target, active)
        if key is None:
            # Non-cacheable usages (matcher instances, reuse matchers,
            # UserFeedback) depend on state outside the cube, where copied
            # rows have no identity guarantee -- recompute from scratch.
            return self._rematch_fallback(new_source, new_target, active, feedback), False
        if self._cube_cache.get(key) is not None:
            # The new pair's cube is already cached: the full match path is
            # a pure cache hit, nothing to splice.
            with self._lock:
                self._rematch_spliced += 1
                self._rematch_reused_rows += len(new.paths())
            return self.match(new_source, new_target, strategy=active, feedback=feedback), True

        matchers = active.resolve_matchers(self._library)
        expected_layers = tuple(matcher.name for matcher in matchers)
        store = self._store
        old_digest: Optional[str] = None

        # -- recover the previous cube (cache, then store by content address) --
        if prev_cube is None:
            old_key = self._cube_key(old_source, old_target, active)
            if old_key is not None:
                prev_cube = self._cube_cache.get(old_key)
                if prev_cube is None and store is not None:
                    from repro.repository.store import cube_store_key

                    old_digest = self._schema_digests.digest(old)
                    source_digest = (
                        old_digest if side == "source" else self._schema_digests.digest(fixed)
                    )
                    target_digest = (
                        old_digest if side == "target" else self._schema_digests.digest(fixed)
                    )
                    prev_cube = store.load_cube(
                        cube_store_key(
                            source_digest, target_digest, old_key[2], self._store_config
                        ),
                        old_key[0],
                        old_key[1],
                    )
        if (
            prev_cube is None
            or prev_cube.matcher_names != expected_layers
            or prev_cube.source_paths != old_source.paths()
            or prev_cube.target_paths != old_target.paths()
        ):
            return self._rematch_fallback(new_source, new_target, active, feedback), False

        # -- delta: align old and new paths by row signature ------------------
        old_digests = schema_digests(old)
        new_digests = schema_digests(new)
        if store is not None:
            # Restart guard: signatures persisted next to the whole-schema
            # digest record what the stored cube was computed from.  If the
            # caller's ``old`` object disagrees, the cube cannot be spliced.
            if old_digest is None:
                old_digest = self._schema_digests.digest(old)
            persisted = store.load_path_signatures(old_digest)
            if persisted is not None and persisted != old_digests.signatures:
                return self._rematch_fallback(new_source, new_target, active, feedback), False
        delta = schema_delta(old, new, old_digests, new_digests)
        if delta.full or not delta.matched:
            return self._rematch_fallback(new_source, new_target, active, feedback), False

        # -- partial execution on the affected rows / columns ------------------
        context = self.context_for(new_source, new_target, feedback=feedback)
        new_axis = new.paths()
        partial: Optional[SimilarityCube] = None
        if delta.changed:
            affected = [new_axis[index] for index in delta.changed]
            if side == "source":
                partial = self._engine.execute_partial(
                    matchers, context, source_rows=affected
                )
            else:
                partial = self._engine.execute_partial(
                    matchers, context, target_columns=affected
                )

        # -- splice: copy untouched cells, scatter the recomputed slice -------
        reused_old = np.fromiter(
            (i for i, _ in delta.matched), dtype=np.intp, count=len(delta.matched)
        )
        reused_new = np.fromiter(
            (j for _, j in delta.matched), dtype=np.intp, count=len(delta.matched)
        )
        changed = np.fromiter(
            delta.changed, dtype=np.intp, count=len(delta.changed)
        )
        source_axis, target_axis = new_source.paths(), new_target.paths()
        previous_values = prev_cube.as_array()
        values = np.empty(
            (len(expected_layers), len(source_axis), len(target_axis)), dtype=np.float64
        )
        if side == "source":
            values[:, reused_new] = previous_values[:, reused_old]
            if partial is not None:
                values[:, changed] = partial.as_array()
        else:
            values[:, :, reused_new] = previous_values[:, :, reused_old]
            if partial is not None:
                values[:, :, changed] = partial.as_array()
        cube = SimilarityCube(source_axis, target_axis, expected_layers, values)

        # -- publish exactly like a computed cube ------------------------------
        with self._lock:
            cube = self._cube_cache.setdefault(key, cube)
            self._rematch_spliced += 1
            self._rematch_reused_rows += delta.reused
            self._rematch_recomputed_rows += delta.recomputed
        if store is not None:
            store_key = self._store_key_for(context, key[2])
            store.store_cube_async(
                store_key[0], cube, store_key[1], store_key[2], key[2], self._store_config
            )
            self._flush_new_tokens(store)
            if old_digest is None:
                old_digest = self._schema_digests.digest(old)
            store.store_path_signatures_async(old_digest, list(old_digests.signatures))
            store.store_path_signatures_async(
                self._schema_digests.digest(new), list(new_digests.signatures)
            )
        self._trim_caches()
        return self._outcome(cube, active, context), True

    def _rematch_fallback(
        self,
        source: Schema,
        target: Schema,
        strategy: MatchStrategy,
        feedback: object,
    ) -> MatchOutcome:
        """Full recomputation when splicing is unavailable or unsafe."""
        with self._lock:
            self._rematch_fallbacks += 1
        return self.match(source, target, strategy=strategy, feedback=feedback)

    def match_many(
        self,
        requests: Iterable[MatchRequest],
        strategy: StrategyLike = None,
        processes: Optional[int] = None,
        process_pool: Optional["ProcessSessionPool"] = None,
        timeout: Optional[float] = None,
    ) -> List[MatchOutcome]:
        """Run a batch of match operations, amortising the session caches.

        Path-set profiles are pre-built once per distinct schema, so an
        all-pairs fan-out (the Figure 8 campaign) derives each schema's
        profile exactly once for the whole batch.

        On the serial path, the requests whose cube must be computed are
        grouped by source and matcher usage, and each group runs as one
        engine execution: the source against the concatenated paths of the
        group's distinct targets (split between targets so an execution
        spans at most 2^18 source x target cells).  Every cell depends only on
        its two paths and their own schemas, so the cube is cut into one
        cube per target before combination, and each is published, stored
        and counted exactly as a separate :meth:`match` would have.  The
        matchers' per-call setup -- token vocabularies, n-gram incidence,
        synonym lookups -- is then paid once per group instead of once per
        pair.  Cube-cache and store hits, non-cacheable strategies and the
        process-pool paths run one request at a time.  A request whose cube
        a concurrent :meth:`match` is computing waits for it (a cube hit).

        With ``processes`` (or an existing ``process_pool``) the batch is
        chunked across worker *processes* -- each owning a warm session of
        its own, so matcher execution escapes this interpreter's GIL and
        scales with the cores.  Results stay byte-identical to the serial
        path (same mappings, same similarity bits); computed cubes are folded
        back into this session's cube cache.  Requests whose strategy cannot
        travel over the wire (matcher instances, reuse matchers,
        ``UserFeedback``, or a combination without a spec form such as a
        weighted aggregation) and pairs whose cube is already cached run
        locally; everything else is dispatched.

        Parameters
        ----------
        requests:
            An iterable of ``(source, target)`` or
            ``(source, target, strategy)`` tuples; a per-request strategy
            overrides the batch-level ``strategy`` argument.
        strategy:
            The batch-level default strategy reference.
        processes:
            Fan the batch out over this many spawned worker processes (the
            pool lives for this one call; prefer ``process_pool`` when
            issuing several batches).  Workers share the session's
            persistent store file, when one is attached.
        process_pool:
            An existing :class:`~repro.parallel.pool.ProcessSessionPool` to
            dispatch on (kept open afterwards).
        timeout:
            Deadline in seconds over the process-pool dispatch: a wedged
            worker is SIGKILLed by the pool's watchdog and the call raises
            :class:`~repro.exceptions.PoolTimeoutError` within deadline plus
            grace.  Ignored on the serial path (no pool involved).

        Returns
        -------
        list of MatchOutcome
            One outcome per request, in request order; byte-identical to
            calling :meth:`match` per pair.

        Raises
        ------
        SessionError
            If a request tuple has a length other than 2 or 3, if both
            ``processes`` and ``process_pool`` are given, or if the session's
            configuration digest differs from the workers' (fanning out would
            silently break byte-identity).

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> a, b = load_po1(), load_po2()
        >>> outcomes = session.match_many([(a, b), (b, a)])
        >>> len(outcomes)
        2
        """
        items: List[Tuple[Schema, Schema, StrategyLike]] = []
        for request in requests:
            if len(request) == 2:
                items.append((request[0], request[1], strategy))
            elif len(request) == 3:
                # only None falls back to the batch strategy: a falsy spec such
                # as "" must fail loudly in resolve_strategy, not be replaced
                items.append(
                    (request[0], request[1],
                     request[2] if request[2] is not None else strategy)
                )
            else:
                raise SessionError(
                    f"match requests must be (source, target[, strategy]) tuples, "
                    f"got a tuple of length {len(request)}"
                )
        if processes is not None or process_pool is not None:
            return self._match_many_processes(items, processes, process_pool, timeout)
        seen_schemas: set = set()
        for source, target, _ in items:
            for schema in (source, target):
                if id(schema) not in seen_schemas:
                    seen_schemas.add(id(schema))
                    self.profile_for(schema)
        resolved = [self.resolve_strategy(item_strategy) for _, _, item_strategy in items]
        outcomes: List[Optional[MatchOutcome]] = [None] * len(items)
        store = self._store
        groups: Dict[tuple, List[_Pending]] = {}
        for index, ((source, target, _), active) in enumerate(zip(items, resolved)):
            key = self._cube_key(source, target, active)
            if key is None:
                continue  # runs through match() below
            context = self.context_for(source, target)
            # Waits for a cube a match() computes, but never marks a key in
            # flight: two batches must not wait on each other.
            cube, _ = self._cached(key, lead=False)
            store_key = None
            if cube is None:
                cube, store_key = self._load_stored(key, context, store)
            if cube is not None:
                outcomes[index] = self._outcome(cube, active, context)
            else:
                groups.setdefault((key[0], key[2]), []).append(
                    _Pending(index, key, active, context, store_key)
                )
        for group in groups.values():
            self._match_group(group, store, outcomes)
        for index, (source, target, _) in enumerate(items):
            if outcomes[index] is None:
                outcomes[index] = self.match(source, target, strategy=resolved[index])
        return outcomes  # type: ignore[return-value]

    def _match_group(
        self,
        group: List[_Pending],
        store: Optional["SimilarityStore"],
        outcomes: List[Optional[MatchOutcome]],
    ) -> None:
        """Compute a group's cubes (same source and usage), a chunk of targets at a time.

        Requests with equal cube keys execute once; the repeats count as
        cube hits, as they would have behind the first request's match().
        """
        by_key: Dict[tuple, List[_Pending]] = {}
        for pending in group:
            by_key.setdefault(pending.key, []).append(pending)
        rows = len(group[0].key[0])
        chunk: List[List[_Pending]] = []
        columns = 0
        for same in by_key.values():
            width = len(same[0].key[1])
            if chunk and rows * (columns + width) > _BATCH_CELLS:
                self._match_chunk(chunk, store, outcomes)
                chunk, columns = [], 0
            chunk.append(same)
            columns += width
        self._match_chunk(chunk, store, outcomes)

    def _match_chunk(
        self,
        chunk: List[List[_Pending]],
        store: Optional["SimilarityStore"],
        outcomes: List[Optional[MatchOutcome]],
    ) -> None:
        """One engine execution: the source against the chunk's targets' paths."""
        first = chunk[0][0]
        source_paths = first.key[0]
        forest = ForestProfile(
            [self.profile_for(same[0].context.target_schema) for same in chunk]
        )
        # The forest profile lives only in this execution's own profile dict.
        context = dataclasses.replace(
            first.context,
            target_schema=_PathForest(forest.paths),
            profile_cache={
                source_paths: self.profile_for(first.context.source_schema),
                forest.paths: forest,
            },
        )
        cube = self._engine.execute(first.strategy.resolve_matchers(self._library), context)
        stack = cube.as_array()
        start = 0
        for same in chunk:
            target_paths = same[0].key[1]
            stop = start + len(target_paths)
            # One contiguous copy of the target's columns: the published cube
            # keeps no view into the whole chunk's stack.
            part = SimilarityCube(
                source_paths,
                target_paths,
                cube.matcher_names,
                np.ascontiguousarray(stack[:, :, start:stop]),
            )
            start = stop
            part = self._publish(same[0].key, part, store, same[0].store_key)
            if len(same) > 1:
                with self._lock:
                    self._cube_hits += len(same) - 1
            for pending in same:
                outcomes[pending.index] = self._outcome(part, pending.strategy, pending.context)

    # -- corpus search ---------------------------------------------------------

    @property
    def corpus(self) -> Optional["SchemaCorpus"]:
        """The attached schema corpus (``None`` when search is not configured).

        Pass ``corpus=`` at construction -- either an opened
        :class:`~repro.search.corpus.SchemaCorpus` or a path string the
        session opens (and then owns: :meth:`close` closes it).
        """
        return self._corpus

    def register(self, schema: Schema, replace: bool = True) -> int:
        """Register a schema into the session's corpus (see ``SchemaCorpus.add``).

        The registration reuses the session-cached profile of the schema, so
        registering and then matching never tokenizes twice.

        Raises
        ------
        SessionError
            If the session has no corpus attached.
        """
        if self._corpus is None:
            raise SessionError(
                "this session has no schema corpus; construct it with "
                "corpus=<path or SchemaCorpus> to enable search"
            )
        return self._corpus.add(
            schema, replace=replace, profile=self.profile_for(schema)
        )

    def searcher(self) -> "CorpusSearcher":
        """The session's :class:`~repro.search.searcher.CorpusSearcher` (lazy).

        Raises
        ------
        SessionError
            If the session has no corpus attached.
        """
        if self._corpus is None:
            raise SessionError(
                "this session has no schema corpus; construct it with "
                "corpus=<path or SchemaCorpus> to enable search"
            )
        if self._searcher is None or self._searcher.corpus is not self._corpus:
            from repro.search.searcher import CorpusSearcher

            self._searcher = CorpusSearcher(self, self._corpus)
        return self._searcher

    def search(
        self,
        schema: Schema,
        k: int = 10,
        strategy: StrategyLike = None,
        candidates: Optional[int] = None,
        exclude_self: bool = True,
        match_many: Optional["MatchManyFn"] = None,
    ) -> List["SearchResult"]:
        """Find the best match targets for ``schema`` in the attached corpus.

        Two stages: the corpus' inverted index ranks all registered schemas
        by idf-weighted vocabulary overlap (no matchers run), then the full
        session pipeline matches the query against the top
        ``candidates`` (default ``max(4 * k, 16)``) survivors and re-ranks
        them by real schema similarity.  See
        :class:`~repro.search.searcher.CorpusSearcher` for parameter
        details; ``match_many`` runs the survivors instead of this session's
        :meth:`match_many` (for instance a partial of it with
        ``processes=``).

        Returns
        -------
        list of SearchResult
            At most ``k`` results, best first; each carries the full
            :class:`~repro.core.match_operation.MatchOutcome` (and thus the
            selected per-path mapping) of its candidate.

        Raises
        ------
        SessionError
            If the session has no corpus attached.
        SearchError
            For invalid ``k`` / ``candidates``.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession(corpus=":memory:")
        >>> _ = session.register(load_po2())
        >>> [hit.name for hit in session.search(load_po1(), k=1)]
        ['PO2']
        """
        return self.searcher().search(
            schema,
            k=k,
            strategy=strategy,
            candidates=candidates,
            exclude_self=exclude_self,
            match_many=match_many,
        )

    def _process_spec(self, strategy: MatchStrategy) -> Optional[str]:
        """The wire spec of a strategy, or ``None`` when it cannot fan out.

        A strategy is process-executable when a worker resolving its spec
        against the default library reproduces this session's execution
        exactly: every matcher is referenced by name, none depends on state
        outside the wire (reuse matchers read mutable mapping stores,
        ``UserFeedback`` reads the feedback store), the session itself
        carries no feedback overrides, and the spec parses back into an equal
        combination, whose parts compare by type and value (a weighted
        aggregation has no spec form, and a threshold's name rounds it to six
        digits).  This is deliberately the same criterion as cube
        cacheability plus the feedback, library and combination checks.
        """
        if self._feedback is not None or self._library is not DEFAULT_LIBRARY:
            return None
        if self._cacheable_usage(strategy) is None:
            return None
        spec = strategy.to_spec()
        try:
            parsed = MatchStrategy.parse(spec).combination
        except CombinationError:
            return None
        return spec if parsed == strategy.combination else None

    def _match_many_processes(
        self,
        items: List[Tuple[Schema, Schema, StrategyLike]],
        processes: Optional[int],
        process_pool: Optional["ProcessSessionPool"],
        timeout: Optional[float] = None,
    ) -> List[MatchOutcome]:
        """Fan a normalised batch out across worker processes (see match_many)."""
        from repro.parallel.pool import ProcessSessionPool

        if processes is not None and process_pool is not None:
            raise SessionError("pass either processes=N or process_pool=..., not both")
        owned = None
        if process_pool is None:
            store_path = None
            if self._store is not None and self._store.path != ":memory:":
                store_path = self._store.path
            repository_path = (
                self._repository.path if self._repository is not None else None
            )
            owned = process_pool = ProcessSessionPool(
                processes,
                store_path=store_path,
                repository_path=repository_path,
            )
        try:
            if process_pool.config_digest != self.config_digest():
                raise SessionError(
                    "the process pool's workers run a different match "
                    "configuration than this session (tokenizer, synonyms, "
                    "type table or library differ); fanning out would not be "
                    "byte-identical to the serial path"
                )
            resolved = [
                self.resolve_strategy(item_strategy) for _, _, item_strategy in items
            ]
            outcomes: List[Optional[MatchOutcome]] = [None] * len(items)
            remote: List[int] = []
            for index, ((source, target, _), active) in enumerate(zip(items, resolved)):
                spec = self._process_spec(active)
                key = (
                    self._cube_key(source, target, active) if spec is not None else None
                )
                if spec is None or (key is not None and key in self._cube_cache):
                    continue  # runs locally (not wire-able, or already cached)
                remote.append(index)
            remote_outcomes = process_pool.match_many(
                [(items[i][0], items[i][1], resolved[i]) for i in remote],
                context_factory=self.context_for,
                timeout=timeout,
            )
            for index, outcome in zip(remote, remote_outcomes):
                key = self._cube_key(items[index][0], items[index][1], resolved[index])
                if key is not None:
                    # A worker execution is a cacheable execution this session
                    # did not serve from its cube cache: it counts as a miss,
                    # and the computed cube is folded back for later hits.
                    with self._lock:
                        self._cube_misses += 1
                        self._cube_cache.setdefault(key, outcome.cube)
                    self._trim_caches()
                outcomes[index] = outcome
            for index, (source, target, _) in enumerate(items):
                if outcomes[index] is None:
                    outcomes[index] = self.match(source, target, strategy=resolved[index])
            return outcomes  # type: ignore[return-value]
        finally:
            if owned is not None:
                owned.close()

    def schema_similarity(
        self, source: Schema, target: Schema, strategy: StrategyLike = None
    ) -> float:
        """The combined schema similarity of one match operation (Figure 8).

        Parameters
        ----------
        source / target:
            The schemas to compare.
        strategy:
            Any reference accepted by :meth:`resolve_strategy`.

        Returns
        -------
        float
            The combined similarity in ``[0, 1]``.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> 0.0 <= session.schema_similarity(load_po1(), load_po2()) <= 1.0
        True
        """
        return self.match(source, target, strategy=strategy).schema_similarity

    # -- iterative / evaluation front-ends -------------------------------------

    def iterate(
        self,
        source: Schema,
        target: Schema,
        strategy: StrategyLike = None,
        feedback: Optional[UserFeedbackStore] = None,
    ) -> MatchProcessor:
        """An interactive :class:`~repro.core.processor.MatchProcessor` on this session.

        The processor gets its own feedback store unless the session (or the
        call) provides one.  Each iteration is a :meth:`match` on this
        session, so with a cacheable strategy every iteration after the first
        reuses the cube and re-runs only the combination step.

        Parameters
        ----------
        source / target:
            The schemas of the interactive match task.
        strategy:
            Any reference accepted by :meth:`resolve_strategy`.
        feedback:
            The feedback store driving the iteration; defaults to the
            session-wide store, else a fresh one.

        Returns
        -------
        MatchProcessor
            A processor whose iterations run on this session.

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> processor = session.iterate(load_po1(), load_po2())
        >>> processor.feedback is not None
        True
        """
        return MatchProcessor(
            source, target, strategy=strategy, session=self, feedback=feedback
        )

    def evaluate(self, tasks: Optional[Sequence] = None, **kwargs) -> "EvaluationCampaign":
        """An :class:`~repro.evaluation.campaign.EvaluationCampaign` on this session.

        Per-task contexts are built through :meth:`context_for`, so the
        campaign's matcher executions share the session's profile cache.

        Parameters
        ----------
        tasks:
            The evaluation tasks (default: the bundled gold-standard tasks).
        **kwargs:
            Forwarded to the campaign constructor; ``engine`` and
            ``context_factory`` default to the session's.

        Returns
        -------
        EvaluationCampaign
            A campaign sharing the session's engine and caches.

        Examples
        --------
        >>> session = MatchSession()
        >>> campaign = session.evaluate()
        >>> campaign is not None
        True
        """
        from repro.evaluation.campaign import EvaluationCampaign

        kwargs.setdefault("engine", self._engine)
        kwargs.setdefault("context_factory", self.context_for)
        return EvaluationCampaign(tasks=tasks, **kwargs)

    # -- cube execution and caches ---------------------------------------------

    def _cacheable_usage(self, strategy: MatchStrategy) -> Optional[Tuple[str, ...]]:
        """The strategy's normalised matcher names when its cube is a pure
        function of the schema pair, else ``None``.

        Every matcher must be a library name of a simple or hybrid kind other
        than ``UserFeedback``: matcher instances may carry per-use state,
        reuse matchers read mutable mapping stores, and ``UserFeedback``
        reads the feedback store.
        """
        names: List[str] = []
        for reference in strategy.matchers:
            if not isinstance(reference, str):
                return None
            names.append(reference.strip().lower())
        try:
            infos = [self._library.info(name) for name in names]
        except UnknownMatcherError:
            return None  # let resolve_matchers raise the canonical error
        for info in infos:
            if info.kind not in _CACHEABLE_KINDS or info.name == "UserFeedback":
                return None
        return tuple(names)

    def _cube_key(
        self, source: Schema, target: Schema, strategy: MatchStrategy
    ) -> Optional[tuple]:
        """The cache key of a match execution, or ``None`` when not cacheable."""
        usage = self._cacheable_usage(strategy)
        if usage is None:
            return None
        return (source.paths(), target.paths(), usage)

    def _execute(self, strategy: MatchStrategy, context: MatchContext) -> SimilarityCube:
        """Execute the strategy's matchers, serving repeats from the caches.

        The lookup order is the cache hierarchy, fastest first: the
        in-memory cube cache, then the persistent store (by content
        address), then matcher execution with an asynchronous store
        write-back.  Matcher execution and store I/O run outside the session
        lock; only cache lookups, inserts and counter updates are guarded.

        A miss marks its key in flight, so concurrent executions of one key
        load or compute it once: the others wait outside the lock and count a
        cube hit.  The leader unmarks the key also when it fails, and a waiter
        then leads.  A leader never waits -- cacheable executions run library
        matchers only -- so no wait cycle can form.
        """
        key = self._cube_key(context.source_schema, context.target_schema, strategy)
        # One snapshot of the store reference for the whole execution: a
        # concurrent close() nulls self._store, and in-flight operations must
        # keep using the object they started with (whose post-close writes
        # are dropped safely) rather than crash on a None mid-way.
        store = self._store
        if key is None:
            cube = self._engine.execute(strategy.resolve_matchers(self._library), context)
            self._trim_caches()
            return cube
        cube, flight = self._cached(key, lead=True)
        if flight is None:
            return cube
        try:
            cube, store_key = self._load_stored(key, context, store)
            if cube is None:
                cube = self._engine.execute(strategy.resolve_matchers(self._library), context)
                cube = self._publish(key, cube, store, store_key)
            flight.cube = cube
            return cube
        finally:
            with self._lock:
                del self._flights[key]
            flight.set()

    def _cached(
        self, key: tuple, lead: bool
    ) -> Tuple[Optional[SimilarityCube], Optional[_Flight]]:
        """The cube cache's answer for ``key``, after any computation of it in flight.

        Returns ``(cube, None)`` on a hit (counted); on a miss, with ``lead``,
        ``(None, flight)`` for the key it marked in flight (the caller computes
        the cube, then unmarks the key and sets the flight), else ``(None, None)``.
        """
        while True:
            with self._lock:
                cube = self._cube_cache.get(key)
                if cube is not None:
                    self._cube_hits += 1
                    return cube, None
                flight = self._flights.get(key)
                if flight is None:
                    if lead:
                        flight = self._flights[key] = _Flight()
                    return None, flight
            flight.wait()
            if flight.cube is not None:
                with self._lock:
                    self._cube_hits += 1
                return flight.cube, None

    def _load_stored(
        self, key: tuple, context: MatchContext, store: Optional["SimilarityStore"]
    ) -> Tuple[Optional[SimilarityCube], Optional[Tuple[str, str, str]]]:
        """A missed cube from the store (``None`` if absent), counted, and its store key."""
        if store is None:
            return None, None
        store_key = self._store_key_for(context, key[2])
        stored = store.load_cube(store_key[0], key[0], key[1])
        if stored is not None:
            with self._lock:
                self._cube_misses += 1
                self._store_hits += 1
                stored = self._cube_cache.setdefault(key, stored)
            self._trim_caches()
        return stored, store_key

    def _publish(
        self,
        key: tuple,
        cube: SimilarityCube,
        store: Optional["SimilarityStore"],
        store_key: Optional[Tuple[str, str, str]],
    ) -> SimilarityCube:
        """Cache (and store) a computed cube; returns the published instance."""
        with self._lock:
            self._cube_misses += 1
            if store_key is not None:
                self._store_misses += 1
            cube = self._cube_cache.setdefault(key, cube)
        if store_key is not None:
            store.store_cube_async(
                store_key[0], cube, store_key[1], store_key[2], key[2], self._store_config
            )
            self._flush_new_tokens(store)
        self._trim_caches()
        return cube

    def _store_key_for(
        self, context: MatchContext, usage: Tuple[str, ...]
    ) -> Tuple[str, str, str]:
        """``(store key, source digest, target digest)`` of one execution."""
        from repro.repository.store import cube_store_key

        source_digest = self._schema_digests.digest(context.source_schema)
        target_digest = self._schema_digests.digest(context.target_schema)
        return (
            cube_store_key(source_digest, target_digest, usage, self._store_config),
            source_digest,
            target_digest,
        )

    def _flush_new_tokens(self, store: "SimilarityStore") -> None:
        """Queue token-memo entries added since the last flush to ``store``.

        The memo dict is insertion-ordered and never shrinks between trims,
        so a watermark index identifies the new slice.  A concurrent insert
        while the snapshot is taken simply defers those entries to the next
        flush.
        """
        memo = self._token_memo
        with self._lock:
            if len(memo) <= self._token_watermark:
                return
            watermark = self._token_watermark
            try:
                items = list(memo.items())
            except RuntimeError:  # pragma: no cover - concurrent insert mid-snapshot
                return
            self._token_watermark = len(items)
        store.store_tokens_async(self._tokenizer_digest, items[watermark:])

    def _trim_caches(self) -> None:
        """Evict oldest entries beyond the configured bounds (insertion order).

        Contexts insert profiles into the shared dict directly during matcher
        execution, so trimming runs after every execution as well as after
        explicit :meth:`profile_for` inserts.  Evicted entries are simply
        recomputed on next use.  The whole sweep holds the session lock, so
        the ``next(iter(...))`` walk cannot race with concurrent inserts
        (which take the same lock through the guarded cache dicts).
        """
        evicted_cube = False
        with self._lock:
            if self._max_cached_cubes is not None:
                while len(self._cube_cache) > self._max_cached_cubes:
                    self._cube_cache.pop(next(iter(self._cube_cache)))
                    evicted_cube = True
            if self._max_cached_profiles is not None:
                while len(self._profile_cache) > self._max_cached_profiles:
                    self._profile_cache.pop(next(iter(self._profile_cache)))
            # The token memo has no per-entry eviction (the store watermark
            # relies on insertion order): beyond the bound it is dropped
            # wholesale and simply refills on demand.
            if len(self._token_memo) > self.MAX_TOKEN_MEMO_ENTRIES:
                self._token_memo.clear()
                self._token_watermark = 0
        if evicted_cube:
            # Cube layers are a few hundred KB and change size as schemas
            # evolve.  glibc serves them from the brk heap once earlier large
            # temporaries have raised its mmap threshold, and the holes
            # evicted layers leave fragment it, so RSS grows with every
            # eviction while live memory stays flat.  Handing the free pages
            # back keeps a long-running session's RSS flat.
            _malloc_trim(0)

    def cache_info(self) -> Dict[str, int]:
        """Cache occupancy and hit counters.

        Returns
        -------
        dict
            ``profiles`` / ``cubes`` (current occupancy), ``cube_hits`` /
            ``cube_misses`` (lifetime counters; their sum equals the number
            of cacheable executions, also under concurrency) and
            ``store_hits`` / ``store_misses`` (persistent-store
            consultations; both stay 0 without an attached store).

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> a, b = load_po1(), load_po2()
        >>> _ = session.match(a, b)
        >>> _ = session.match(a, b)   # same pair again: served from the cube cache
        >>> info = session.cache_info()
        >>> info["cube_hits"], info["cube_misses"]
        (1, 1)
        """
        with self._lock:
            return {
                "profiles": len(self._profile_cache),
                "cubes": len(self._cube_cache),
                "cube_hits": self._cube_hits,
                "cube_misses": self._cube_misses,
                "store_hits": self._store_hits,
                "store_misses": self._store_misses,
                "rematch_spliced": self._rematch_spliced,
                "rematch_fallbacks": self._rematch_fallbacks,
                "rematch_reused_rows": self._rematch_reused_rows,
                "rematch_recomputed_rows": self._rematch_recomputed_rows,
            }

    def clear_caches(self) -> None:
        """Drop all cached profiles, cubes and tokens (counters are kept).

        Call this after mutating a shared resource in place (synonym
        dictionary, abbreviation table, type-compatibility table) or a
        schema graph itself: cached cubes reflect the inputs at execution
        time.  With a persistent store attached, the session's
        configuration *and* schema content digests are recomputed as well,
        so the store stops serving cubes addressed under the old inputs
        (they remain on disk for sessions still using them).

        Examples
        --------
        >>> from repro.datasets.figure1 import load_po1, load_po2
        >>> session = MatchSession()
        >>> _ = session.match(load_po1(), load_po2())
        >>> session.clear_caches()
        >>> session.cache_info()["cubes"]
        0
        """
        with self._lock:
            self._profile_cache.clear()
            self._cube_cache.clear()
            self._token_memo.clear()
            self._token_watermark = 0
        self._schema_digests.clear()
        if self._store is not None:
            self._refresh_store_digests()

    def close(self) -> None:
        """Release persistent resources the session opened itself.

        A store the session opened from a path string is flushed and closed
        (persisting its lifetime hit/miss counters for ``coma stats
        --store``); the same applies to a corpus opened from a path string.
        Store or corpus objects handed in by the caller -- typically shared
        with other sessions -- are left running.  The session remains usable
        for in-memory work afterwards.  Idempotent.

        Examples
        --------
        >>> import tempfile, os
        >>> path = os.path.join(tempfile.mkdtemp(), "store.db")
        >>> with MatchSession(store=path) as session:
        ...     session.store is not None
        True
        """
        with self._lock:
            store = self._store if self._owns_store else None
            if store is not None:
                self._store = None
                self._owns_store = False
            corpus = self._corpus if self._owns_corpus else None
            if corpus is not None:
                self._corpus = None
                self._owns_corpus = False
                self._searcher = None
        if store is not None:
            # In-flight executions hold their own snapshot of the reference;
            # their post-close async writes are dropped by the store itself.
            store.close()
        if corpus is not None:
            corpus.close()

    def __enter__(self) -> "MatchSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"MatchSession(library={len(self._library)} matchers, "
            f"profiles={info['profiles']}, cubes={info['cubes']}, "
            f"repository={'attached' if self._repository is not None else 'none'})"
        )
