"""Matcher base classes and the match context shared by all matchers.

Two matcher granularities exist in COMA:

* :class:`StringMatcher` -- computes a similarity between two *strings*
  (names or name tokens).  The simple approximate string matchers (Affix,
  n-gram, EditDistance, Soundex) and the Synonym matcher are string matchers.
* :class:`Matcher` -- computes a full
  :class:`~repro.combination.matrix.SimilarityMatrix` between the path sets of
  two schemas.  Simple matchers are lifted to this level by
  :class:`NameStringMatcher`; hybrid and reuse-oriented matchers implement it
  directly.

The :class:`MatchContext` carries everything a matcher may need beyond the two
schemas: tokenizer, synonym dictionary, data-type compatibility table, user
feedback, and the repository handle used by reuse-oriented matchers.  It also
owns the per-operation :class:`~repro.engine.profiles.PathSetProfile` cache
that the batch execution path (:mod:`repro.engine`) uses to share derived
per-path structure (lowercased names, token lists, n-gram sets, soundex codes,
generic types) across all matchers of one operation.

Every matcher exposes two entry points: :meth:`Matcher.compute` (the pairwise
reference implementation, filled cell by cell) and :meth:`Matcher.compute_batch`
(the vectorized path used by :class:`~repro.engine.engine.MatchEngine`, which
evaluates unique cache keys only and scatters results with numpy fancy
indexing).  The default ``compute_batch`` falls back to ``compute``, so the
two are equivalent by construction unless a matcher provides a faster batch
implementation.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.auxiliary.synonyms import SynonymDictionary, default_purchase_order_synonyms
from repro.combination.matrix import SimilarityMatrix
from repro.linguistic.tokenizer import NameTokenizer
from repro.model.datatypes import DEFAULT_TYPE_COMPATIBILITY, TypeCompatibilityTable
from repro.model.path import SchemaPath
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.engine.profiles import PathSetProfile
    from repro.matchers.simple.user_feedback import UserFeedbackStore
    from repro.repository.repository import Repository


@dataclasses.dataclass
class MatchContext:
    """Everything matchers need besides the two path sets.

    The context is created once per match operation by the processor and
    passed unchanged to every matcher, so matchers stay stateless and reusable
    across match tasks.
    """

    source_schema: Schema
    target_schema: Schema
    tokenizer: NameTokenizer = dataclasses.field(default_factory=NameTokenizer)
    synonyms: SynonymDictionary = dataclasses.field(
        default_factory=default_purchase_order_synonyms
    )
    #: A per-context copy of the default table, so customising one operation's
    #: compatibilities (``context.type_compatibility.set(...)``) cannot leak
    #: into other, unrelated match operations.
    type_compatibility: TypeCompatibilityTable = dataclasses.field(
        default_factory=DEFAULT_TYPE_COMPATIBILITY.copy
    )
    feedback: Optional["UserFeedbackStore"] = None
    repository: Optional["Repository"] = None
    #: Cache of :class:`~repro.engine.profiles.PathSetProfile` objects keyed by
    #: path tuple.  Populated lazily by :meth:`profiles`; shared by all batch
    #: matchers of one operation (and across :meth:`swapped` copies).
    profile_cache: Dict[Tuple[SchemaPath, ...], "PathSetProfile"] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )
    #: Optional shared name-token memo handed to every profile this context
    #: builds, so tokenization is computed once per name per *session* (and,
    #: with a persistent store attached, once per name per *store lifetime* --
    #: the session seeds this dict from the store's token artifacts).
    token_memo: Optional[Dict[str, Tuple[str, ...]]] = dataclasses.field(
        default=None, repr=False, compare=False
    )

    def swapped(self) -> "MatchContext":
        """The same context with source and target schemas exchanged."""
        return dataclasses.replace(
            self, source_schema=self.target_schema, target_schema=self.source_schema
        )

    def profiles(self, paths: Sequence[SchemaPath]) -> "PathSetProfile":
        """The (cached) path-set profile of ``paths``.

        The profile computes everything matchers repeatedly derive per path --
        lowercased names, expanded token lists, n-gram sets, soundex codes,
        generic data types -- once per path set per operation, together with
        the unique-key machinery batch matchers scatter their results with.
        """
        key = tuple(paths)
        profile = self.profile_cache.get(key)
        if profile is None:
            from repro.engine.profiles import PathSetProfile

            profile = PathSetProfile(key, self.tokenizer, token_memo=self.token_memo)
            # Publish via setdefault: when several threads share the cache (a
            # session's cross-operation dict) and race to build the same
            # profile, all of them converge on the first published instance.
            profile = self.profile_cache.setdefault(key, profile)
        return profile


class StringMatcher(abc.ABC):
    """A matcher operating on two strings, returning a similarity in ``[0, 1]``."""

    name: str = "string-matcher"

    @abc.abstractmethod
    def similarity(self, a: str, b: str) -> float:
        """The similarity of two strings."""

    def memo_key(self) -> Optional[tuple]:
        """Hashable matcher identity + configuration for the kernel memo pool.

        Matchers returning a key share their per-pair results process-wide
        through :data:`repro.matchers.memo.DEFAULT_MEMO_POOL` -- the same
        (configuration, name pair) is then evaluated once per process, not
        once per schema pair.  Only deterministic, context-free kernels may
        opt in (the result must depend on nothing but the key and the two
        strings), and -- because the base implementation canonicalises the
        pair order (``pool.block(..., symmetric=True)``) -- the kernel must
        also be *symmetric*: ``similarity(a, b) == similarity(b, a)``.  An
        asymmetric matcher must override :meth:`similarity_many` and call
        the pool with ``symmetric=False`` itself.  The default (``None``)
        opts out.
        """
        return None

    def similarity_many(self, sources: Sequence[str], targets: Sequence[str]) -> np.ndarray:
        """The full cross-product similarity matrix of two string sequences.

        The default evaluates :meth:`similarity` per pair -- through the
        process-wide kernel memo pool when :meth:`memo_key` opts in, so only
        pairs never seen by *any* operation of the process are evaluated.
        Vectorizable matchers (n-gram, Soundex, EditDistance) override this
        with bulk array operations.  Callers pass *unique* strings, so the
        result is the dense kernel that :meth:`SimilarityMatrix.from_unique`
        scatters to all path pairs.
        """
        key = self.memo_key()
        if key is not None:
            from repro.matchers.memo import active_pool

            pool = active_pool()
            if pool is not None:
                return pool.block(key, sources, targets, self._pairwise_kernel)
        values = np.empty((len(sources), len(targets)), dtype=float)
        for i, a in enumerate(sources):
            for j, b in enumerate(targets):
                values[i, j] = self.similarity(a, b)
        return values

    def _pairwise_kernel(self, pairs: Sequence[Tuple[str, str]]) -> np.ndarray:
        """Evaluate :meth:`similarity` over a list of pairs (memo-pool fill)."""
        return np.array([self.similarity(a, b) for a, b in pairs], dtype=float)

    def similarity_profiled(
        self, source_profile: "PathSetProfile", target_profile: "PathSetProfile"
    ) -> np.ndarray:
        """Similarity over the unique leaf names of two path-set profiles.

        Matchers whose derived structure is pre-computed by the profile layer
        (n-gram sets, soundex codes) override this to reuse it instead of
        re-deriving it from the raw strings.
        """
        return self.similarity_many(
            source_profile.unique_names, target_profile.unique_names
        )

    def __call__(self, a: str, b: str) -> float:
        return self.similarity(a, b)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: The layer memo of the engine execution running in this thread (or task):
#: its context and a dict of matrices keyed by matcher configuration + paths.
_LAYER_MEMO: contextvars.ContextVar[Optional[Tuple["MatchContext", dict]]] = (
    contextvars.ContextVar("repro_layer_memo", default=None)
)


@contextlib.contextmanager
def layer_memo(context: MatchContext) -> Iterator[None]:
    """Share batch matrices between the matchers of one execution over ``context``.

    Inside the block, :meth:`Matcher.compute_shared` computes each matrix
    once per (matcher configuration, source paths, target paths).  The memo
    is dropped on exit, so nothing the block returns keeps it alive.
    """
    token = _LAYER_MEMO.set((context, {}))
    try:
        yield
    finally:
        _LAYER_MEMO.reset(token)


class Matcher(abc.ABC):
    """A matcher producing a similarity matrix over two path sets."""

    name: str = "matcher"

    #: Broad classification used by reports (Table 3): simple / hybrid / reuse.
    kind: str = "simple"

    @abc.abstractmethod
    def compute(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Compute the similarity of every source path against every target path."""

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant of :meth:`compute` used by the match engine.

        Matchers with a vectorized implementation override this; the default
        delegates to the pairwise reference implementation so both entry
        points always produce the same matrix.
        """
        return self.compute(source_paths, target_paths, context)

    def memo_key(self) -> Optional[tuple]:
        """Hashable matcher identity + configuration for the layer memo.

        Matchers returning a key have their :meth:`compute_shared` results
        shared within one engine execution: the default strategy's Name
        layer is also TypeName's name matrix, and the TypeName layer is the
        leaf matrix of Children and Leaves.  Equal keys must mean equal
        matrices over the same context, so a subclass adding configuration
        must extend its parent's key.  The default (``None``) opts out.
        """
        return None

    def compute_shared(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """:meth:`compute_batch`, computed once per :func:`layer_memo` block."""
        memo = _LAYER_MEMO.get()
        key = self.memo_key()
        if memo is None or memo[0] is not context or key is None:
            return self.compute_batch(source_paths, target_paths, context)
        key = (key, tuple(source_paths), tuple(target_paths))
        matrix = memo[1].get(key)
        if matrix is None:
            matrix = memo[1][key] = self.compute_batch(source_paths, target_paths, context)
        return matrix

    def match_schemas(self, context: MatchContext) -> SimilarityMatrix:
        """Convenience: compute over all paths of the context's schemas."""
        return self.compute(
            context.source_schema.paths(), context.target_schema.paths(), context
        )

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


def _representatives(
    paths: Sequence[SchemaPath], inverse: Sequence[int], unique_count: int
) -> List[SchemaPath]:
    """The first path carrying each unique cache key, in key order."""
    representatives: List[Optional[SchemaPath]] = [None] * unique_count
    for path, key_index in zip(paths, inverse):
        if representatives[key_index] is None:
            representatives[key_index] = path
    return representatives  # type: ignore[return-value]


class PairwiseMatcher(Matcher):
    """A matcher defined by a per-pair similarity function.

    Subclasses implement :meth:`pair_similarity`; the matrix is filled cell by
    cell.  A per-call memo keyed by a subclass-provided cache key avoids
    recomputing identical comparisons (e.g. equal leaf names appearing under
    several parents).
    """

    def compute(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        matrix = SimilarityMatrix(source_paths, target_paths)
        cache: Dict[Tuple[object, object], float] = {}
        for source in source_paths:
            source_key = self.cache_key(source, context)
            for target in target_paths:
                target_key = self.cache_key(target, context)
                key = (source_key, target_key)
                if key in cache:
                    value = cache[key]
                else:
                    value = self.pair_similarity(source, target, context)
                    value = min(1.0, max(0.0, float(value)))
                    cache[key] = value
                matrix.set(source, target, value)
        return matrix

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Evaluate :meth:`pair_similarity` over unique cache keys only.

        Instead of walking the full ``m x n`` cross-product, the batch path
        groups paths by :meth:`cache_key`, evaluates one representative path
        per unique key pair, and scatters the ``u x v`` kernel to the full
        matrix via :meth:`SimilarityMatrix.from_unique`.
        """
        from repro.engine.profiles import unique_index

        source_keys = [self.cache_key(path, context) for path in source_paths]
        target_keys = [self.cache_key(path, context) for path in target_paths]
        unique_sources, source_inverse = unique_index(source_keys)
        unique_targets, target_inverse = unique_index(target_keys)
        # One representative path per unique key (the first occurrence).
        source_reps = _representatives(source_paths, source_inverse, len(unique_sources))
        target_reps = _representatives(target_paths, target_inverse, len(unique_targets))
        values = np.empty((len(source_reps), len(target_reps)), dtype=float)
        for i, source in enumerate(source_reps):
            for j, target in enumerate(target_reps):
                values[i, j] = self.pair_similarity(source, target, context)
        return SimilarityMatrix.from_unique(
            source_paths, target_paths, values, source_inverse, target_inverse
        )

    @abc.abstractmethod
    def pair_similarity(
        self, source: SchemaPath, target: SchemaPath, context: MatchContext
    ) -> float:
        """The similarity of one source path against one target path."""

    def cache_key(self, path: SchemaPath, context: MatchContext) -> object:
        """A hashable key identifying equivalent paths for this matcher.

        The default key is the path itself (no sharing of results).  Matchers
        that only look at the leaf name may return ``path.name`` to share
        results between identically named elements.
        """
        return path


class NameStringMatcher(PairwiseMatcher):
    """Lifts a :class:`StringMatcher` to a schema matcher over element names.

    This is how the simple matchers of Section 4.1 are applied on their own:
    the string matcher compares the (raw, untokenized) leaf names of the two
    paths.
    """

    kind = "simple"

    def __init__(self, string_matcher: StringMatcher, name: Optional[str] = None):
        self._string_matcher = string_matcher
        self.name = name or string_matcher.name

    @property
    def string_matcher(self) -> StringMatcher:
        """The wrapped string matcher."""
        return self._string_matcher

    def pair_similarity(
        self, source: SchemaPath, target: SchemaPath, context: MatchContext
    ) -> float:
        return self._string_matcher.similarity(source.name, target.name)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Evaluate the wrapped string matcher over the unique names only.

        The shared path-set profiles supply the unique names (and the derived
        n-gram sets / soundex codes when the string matcher can use them); the
        resulting ``u x v`` kernel is scattered to the full matrix.
        """
        source_profile = context.profiles(source_paths)
        target_profile = context.profiles(target_paths)
        unique = self._string_matcher.similarity_profiled(source_profile, target_profile)
        return SimilarityMatrix.from_unique(
            source_paths,
            target_paths,
            unique,
            source_profile.name_inverse,
            target_profile.name_inverse,
        )

    def cache_key(self, path: SchemaPath, context: MatchContext) -> object:
        return path.name
