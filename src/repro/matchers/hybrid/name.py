"""The hybrid Name and NamePath matchers (Section 4.2).

``Name`` compares element names after tokenization and abbreviation expansion:
it applies multiple simple string matchers (Trigram and Synonym by default) to
the token sets of the two names and combines the obtained token similarities
with the default strategy tuple of Table 4: (Max, Both, Max1, Average).

``NamePath`` applies the same machinery to the *hierarchical* name of an
element: the tokens of all names along the path contribute, which both adds
evidence (tokens from ancestors) and distinguishes contexts of shared elements
(``ShipTo.Street`` vs ``BillTo.Street``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.combination.aggregation import MAX, AggregationStrategy
from repro.combination.combined import AVERAGE_COMBINED, CombinedSimilarityStrategy
from repro.combination.matrix import SimilarityMatrix
from repro.matchers.base import MatchContext, PairwiseMatcher, StringMatcher, memoised
from repro.matchers.hybrid.set_similarity import (
    _aggregate_layers,
    batch_set_similarity,
    set_similarity,
)
from repro.matchers.string.ngram import TrigramMatcher
from repro.matchers.string.synonym import SynonymStringMatcher
from repro.model.path import SchemaPath


#: Shared by every default Name matcher, so their memo keys are equal.
_DEFAULT_CONSTITUENTS: Tuple[StringMatcher, ...] = (TrigramMatcher(), SynonymStringMatcher())


def default_name_constituents() -> List[StringMatcher]:
    """The default constituent string matchers of the Name matcher (Table 4)."""
    return list(_DEFAULT_CONSTITUENTS)


class NameMatcher(PairwiseMatcher):
    """Token-set similarity of element names using several simple string matchers."""

    name = "Name"
    kind = "hybrid"

    def __init__(
        self,
        constituents: Optional[Sequence[StringMatcher]] = None,
        aggregation: AggregationStrategy = MAX,
        combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED,
    ):
        self._constituents: Tuple[StringMatcher, ...] = tuple(
            constituents if constituents is not None else default_name_constituents()
        )
        if not self._constituents:
            raise ValueError("NameMatcher requires at least one constituent string matcher")
        self._aggregation = aggregation
        self._combined = combined_similarity

    # -- configuration accessors -------------------------------------------------

    @property
    def constituents(self) -> Tuple[StringMatcher, ...]:
        """The constituent string matchers applied to token pairs."""
        return self._constituents

    @property
    def aggregation(self) -> AggregationStrategy:
        """The aggregation strategy over the constituent matchers' token similarities."""
        return self._aggregation

    @property
    def combined_similarity(self) -> CombinedSimilarityStrategy:
        """The combined-similarity strategy collapsing token matches into a name similarity."""
        return self._combined

    def with_combined_similarity(
        self, combined_similarity: CombinedSimilarityStrategy
    ) -> "NameMatcher":
        """A copy using a different combined-similarity strategy (Average vs Dice)."""
        return type(self)(
            constituents=self._constituents,
            aggregation=self._aggregation,
            combined_similarity=combined_similarity,
        )

    def memo_key(self) -> Optional[tuple]:
        # Constituents compare by identity; the default ones are shared.
        return (type(self), self._constituents, self._aggregation, self._combined)

    # -- token extraction ----------------------------------------------------------

    def tokens_for(self, path: SchemaPath, context: MatchContext) -> Tuple[str, ...]:
        """The token set representing ``path`` (the leaf name's tokens for Name)."""
        return context.tokenizer.tokenize(path.name)

    # -- similarity ------------------------------------------------------------------

    def _bound_layers(self, context: MatchContext):
        """Constituent similarity functions bound to the context, memoised per token pair.

        Token vocabularies are small compared to the number of path pairs, so a
        per-call cache of token-pair similarities removes the dominant cost of
        matching large schemas (the same tokens recur on many paths).
        """
        layers = []
        for constituent in self._bound_constituents(context):
            raw = constituent.similarity
            cache: dict = {}

            def memoised(a: str, b: str, _raw=raw, _cache=cache) -> float:
                key = (a, b)
                value = _cache.get(key)
                if value is None:
                    value = _raw(a, b)
                    _cache[key] = value
                return value

            layers.append(memoised)
        return layers

    def compute(self, source_paths, target_paths, context: MatchContext):
        # Bind (and memoise) the constituent layers once per compute() call so
        # every pair comparison shares the same token-pair caches.
        self._active_layers = self._bound_layers(context)
        try:
            return super().compute(source_paths, target_paths, context)
        finally:
            self._active_layers = None

    def pair_similarity(
        self, source: SchemaPath, target: SchemaPath, context: MatchContext
    ) -> float:
        layers = getattr(self, "_active_layers", None) or self._bound_layers(context)
        tokens_a = self.tokens_for(source, context)
        tokens_b = self.tokens_for(target, context)
        return set_similarity(
            tokens_a,
            tokens_b,
            layers,
            self._aggregation,
            self._combined,
        )

    def cache_key(self, path: SchemaPath, context: MatchContext) -> object:
        return self.tokens_for(path, context)

    # -- batch evaluation --------------------------------------------------------

    #: The profile token-extraction mode matching :meth:`tokens_for`; the batch
    #: path only trusts it when ``tokens_for`` is not overridden by a subclass.
    _profile_token_mode = "name"

    def _batch_token_keys(
        self, paths: Sequence[SchemaPath], context: MatchContext
    ) -> Tuple[List[Tuple[str, ...]], np.ndarray, Tuple[str, ...]]:
        """Unique token tuples, the per-path inverse index and the words of one side."""
        from repro.engine.profiles import TOKEN_MODE_NAME, TokenProfile

        if type(self).tokens_for in (NameMatcher.tokens_for, NamePathMatcher.tokens_for):
            profiles = context.profiles(paths)
            profile = profiles.token_profile(self._profile_token_mode)
            # The name-mode words first: over whole schemas every path token
            # is also some path's name token, so Name and NamePath score
            # token pairs over one vocabulary (see compute_batch).
            words = profiles.token_profile(TOKEN_MODE_NAME).words + profile.words
            return list(profile.unique_keys), profile.inverse, tuple(dict.fromkeys(words))
        # A subclass with a custom token extraction still benefits from
        # unique-key batching, just without the shared profile cache.
        profile = TokenProfile([self.tokens_for(path, context) for path in paths])
        return list(profile.unique_keys), profile.inverse, profile.words

    def _token_matrix(
        self, words_a: Tuple[str, ...], words_b: Tuple[str, ...], context: MatchContext
    ) -> np.ndarray:
        """The constituents' token similarities over two vocabularies, aggregated."""
        layers = np.stack(
            [
                np.clip(constituent.similarity_many(list(words_a), list(words_b)), 0.0, 1.0)
                for constituent in self._bound_constituents(context)
            ],
            axis=0,
        )
        return _aggregate_layers(layers, self._aggregation)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Vectorized name matching over a shared token vocabulary.

        The constituent string matchers are evaluated once over the token
        vocabularies of the two sides (Trigram as one gram-incidence matrix
        product, Synonym as one dictionary pass) and aggregated.
        :func:`batch_set_similarity` then runs Both/Max1 + Average/Dice over
        all unique token-set pairs from two side tables -- the best target
        token per (source token, target set) and the best source token per
        (source set, target token) -- and the result is scattered to the full
        matrix.

        Within one engine execution the aggregated token matrix is computed
        once per (constituents, aggregation, source words, target words)
        (:func:`~repro.matchers.base.memoised`), so over whole schemas Name,
        NamePath and their Dice variants share one.  A cell depends only on
        its two words, and Max1 breaks ties by position within a set, not by
        vocabulary index, so sharing leaves every value as it was.
        """
        unique_a, inverse_a, words_a = self._batch_token_keys(source_paths, context)
        unique_b, inverse_b, words_b = self._batch_token_keys(target_paths, context)
        if not words_a or not words_b:
            # Every token set on (at least) one side is empty: all similarities are 0.
            return SimilarityMatrix(source_paths, target_paths)

        # Separate per-side vocabularies: the combination step only ever reads
        # source-token rows against target-token columns, so the constituent
        # kernels are evaluated over the |A| x |B| rectangle, not |A u B|^2.
        matrix_key = (
            "tokens", self._constituents, type(self._aggregation), self._aggregation,
            words_a, words_b,
        )
        aggregated = memoised(
            context, matrix_key, lambda: self._token_matrix(words_a, words_b, context)
        )
        vocabulary_a = {word: index for index, word in enumerate(words_a)}
        vocabulary_b = {word: index for index, word in enumerate(words_b)}
        index_sets_a = [[vocabulary_a[token] for token in dict.fromkeys(key)] for key in unique_a]
        index_sets_b = [[vocabulary_b[token] for token in dict.fromkeys(key)] for key in unique_b]
        unique_values = batch_set_similarity(
            aggregated, index_sets_a, index_sets_b, self._combined
        )
        return SimilarityMatrix.from_unique(
            source_paths, target_paths, unique_values, inverse_a, inverse_b
        )

    def _bound_constituents(self, context: MatchContext) -> List[StringMatcher]:
        """Constituents with an unbound Synonym matcher bound to the context."""
        bound: List[StringMatcher] = []
        for constituent in self._constituents:
            if isinstance(constituent, SynonymStringMatcher) and constituent.dictionary is None:
                bound.append(constituent.bound_to(context.synonyms))
            else:
                bound.append(constituent)
        return bound


class NamePathMatcher(NameMatcher):
    """Name matching over the hierarchical (path) name of an element."""

    name = "NamePath"
    kind = "hybrid"

    def __init__(
        self,
        constituents: Optional[Sequence[StringMatcher]] = None,
        aggregation: AggregationStrategy = MAX,
        combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED,
        include_schema_root: bool = False,
    ):
        super().__init__(constituents, aggregation, combined_similarity)
        self._include_schema_root = bool(include_schema_root)

    def with_combined_similarity(
        self, combined_similarity: CombinedSimilarityStrategy
    ) -> "NamePathMatcher":
        return NamePathMatcher(
            constituents=self.constituents,
            aggregation=self.aggregation,
            combined_similarity=combined_similarity,
            include_schema_root=self._include_schema_root,
        )

    def memo_key(self) -> Optional[tuple]:
        return super().memo_key() + (self._include_schema_root,)

    def tokens_for(self, path: SchemaPath, context: MatchContext) -> Tuple[str, ...]:
        names = path.names if self._include_schema_root else path.names[1:] or path.names
        return context.tokenizer.tokenize_path(names)

    @property
    def _profile_token_mode(self) -> str:  # type: ignore[override]
        return "path_with_root" if self._include_schema_root else "path"
