"""The hybrid TypeName matcher (Section 4.2, Table 4).

``TypeName`` combines the DataType and Name matchers: for every pair of
elements the name similarity and the data-type compatibility are aggregated
with the Weighted strategy using default weights of 0.7 (name) and 0.3 (data
type).  Steps 2 and 3 of the combination scheme are not needed because one
similarity value per element pair already exists after aggregation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.combination.combined import CombinedSimilarityStrategy
from repro.combination.matrix import SimilarityMatrix
from repro.exceptions import MatcherError
from repro.matchers.base import MatchContext, Matcher
from repro.matchers.hybrid.name import NameMatcher
from repro.matchers.simple.datatype import DataTypeMatcher
from repro.model.path import SchemaPath

#: Default relative weights from Table 4.
DEFAULT_NAME_WEIGHT = 0.7
DEFAULT_TYPE_WEIGHT = 0.3


class TypeNameMatcher(Matcher):
    """Weighted combination of name similarity and data-type compatibility."""

    name = "TypeName"
    kind = "hybrid"

    def __init__(
        self,
        name_matcher: Optional[NameMatcher] = None,
        datatype_matcher: Optional[DataTypeMatcher] = None,
        name_weight: float = DEFAULT_NAME_WEIGHT,
        type_weight: float = DEFAULT_TYPE_WEIGHT,
    ):
        if name_weight < 0 or type_weight < 0:
            raise MatcherError("TypeName weights must be non-negative")
        total = name_weight + type_weight
        if total <= 0:
            raise MatcherError("TypeName weights must not both be zero")
        self._name_matcher = name_matcher if name_matcher is not None else NameMatcher()
        self._datatype_matcher = (
            datatype_matcher if datatype_matcher is not None else DataTypeMatcher()
        )
        self._name_weight = name_weight / total
        self._type_weight = type_weight / total

    # -- configuration accessors ------------------------------------------------------

    @property
    def name_matcher(self) -> NameMatcher:
        """The constituent Name matcher."""
        return self._name_matcher

    @property
    def datatype_matcher(self) -> DataTypeMatcher:
        """The constituent DataType matcher."""
        return self._datatype_matcher

    @property
    def weights(self) -> tuple[float, float]:
        """The normalised ``(name weight, type weight)`` pair."""
        return (self._name_weight, self._type_weight)

    def with_combined_similarity(
        self, combined_similarity: CombinedSimilarityStrategy
    ) -> "TypeNameMatcher":
        """A copy whose Name constituent uses a different combined-similarity strategy."""
        return TypeNameMatcher(
            name_matcher=self._name_matcher.with_combined_similarity(combined_similarity),
            datatype_matcher=self._datatype_matcher,
            name_weight=self._name_weight,
            type_weight=self._type_weight,
        )

    def memo_key(self) -> Optional[tuple]:
        name_key = self._name_matcher.memo_key()
        type_key = self._datatype_matcher.memo_key()
        if name_key is None or type_key is None:
            return None
        return (type(self), name_key, type_key, self._name_weight, self._type_weight)

    # -- computation ---------------------------------------------------------------------

    def compute(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        name_matrix = self._name_matcher.compute(source_paths, target_paths, context)
        type_matrix = self._datatype_matcher.compute(source_paths, target_paths, context)
        combined = (
            self._name_weight * name_matrix.values + self._type_weight * type_matrix.values
        )
        return SimilarityMatrix(source_paths, target_paths, combined)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant: both constituents come through the layer memo.

        Within one engine execution the default name matrix is the Name
        layer itself.
        """
        name_matrix = self._name_matcher.compute_shared(source_paths, target_paths, context)
        type_matrix = self._datatype_matcher.compute_shared(source_paths, target_paths, context)
        combined = (
            self._name_weight * name_matrix.values + self._type_weight * type_matrix.values
        )
        return SimilarityMatrix(source_paths, target_paths, combined)
