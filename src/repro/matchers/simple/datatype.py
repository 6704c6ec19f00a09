"""The DataType matcher (Section 4.1).

"This matcher uses a synonym table specifying the degree of compatibility
between a set of predefined generic data types, to which data types of schema
elements are mapped in order to determine their similarity."

The generic type system and the compatibility table live in
:mod:`repro.model.datatypes`; this matcher simply looks up the compatibility
of the generic types of the two paths' leaf elements.  The table can be
overridden per match operation via the :class:`~repro.matchers.base.MatchContext`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.combination.matrix import SimilarityMatrix
from repro.matchers.base import MatchContext, PairwiseMatcher
from repro.model.datatypes import TypeCompatibilityTable
from repro.model.path import SchemaPath


class DataTypeMatcher(PairwiseMatcher):
    """Similarity from the compatibility of the elements' generic data types."""

    name = "DataType"
    kind = "simple"

    def __init__(self, table: Optional[TypeCompatibilityTable] = None):
        self._table = table

    def memo_key(self) -> Optional[tuple]:
        return (type(self), self._table)

    def _table_for(self, context: MatchContext) -> TypeCompatibilityTable:
        return self._table if self._table is not None else context.type_compatibility

    def pair_similarity(
        self, source: SchemaPath, target: SchemaPath, context: MatchContext
    ) -> float:
        table = self._table_for(context)
        return table.compatibility(source.generic_type, target.generic_type)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant: one table lookup per pair of *distinct* generic types.

        Schemas use a handful of generic types, so the kernel scattered to the
        full matrix is typically just a few dozen cells.
        """
        table = self._table_for(context)
        source_profile = context.profiles(source_paths)
        target_profile = context.profiles(target_paths)
        values = np.array(
            [
                [table.compatibility(a, b) for b in target_profile.unique_types]
                for a in source_profile.unique_types
            ],
            dtype=float,
        )
        return SimilarityMatrix.from_unique(
            source_paths,
            target_paths,
            values,
            source_profile.type_inverse,
            target_profile.type_inverse,
        )

    def cache_key(self, path: SchemaPath, context: MatchContext) -> object:
        return path.generic_type
