"""The hybrid structural matchers Children and Leaves (Section 4.2, Table 4).

Both matchers derive the similarity of two *inner* elements from the combined
similarity of element sets beneath them, using a leaf-level matcher (TypeName
by default) for the base similarities and the (Both, Max1, Average) pipeline
of Table 4 for combining set matches:

* ``Children`` compares the *child* sets of two inner elements.  Children may
  themselves be inner elements, whose similarity is computed recursively.
* ``Leaves`` compares the *leaf descendant* sets of two inner elements, which
  is more stable under structural conflicts: in Figure 1, Children only finds
  ``ShipTo <-> Address`` whereas Leaves also identifies ``ShipTo <-> DeliverTo``.

Leaf-leaf pairs take their similarity directly from the leaf matcher; mixed
pairs (a leaf against an inner element) treat the leaf as a singleton set.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.combination.combined import (
    AVERAGE_COMBINED,
    CombinedSimilarityStrategy,
)
from repro.combination.direction import BOTH, Both, DirectionStrategy
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import MaxN, SelectionStrategy
from repro.matchers.base import MatchContext, Matcher
from repro.matchers.hybrid.type_name import TypeNameMatcher
from repro.model.path import SchemaPath
from repro.model.schema import Schema


class _StructuralMatcherBase(Matcher):
    """Shared implementation of the Children and Leaves matchers."""

    kind = "hybrid"

    def __init__(
        self,
        leaf_matcher: Optional[Matcher] = None,
        direction: DirectionStrategy = BOTH,
        selection: Optional[SelectionStrategy] = None,
        combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED,
    ):
        self._leaf_matcher = leaf_matcher if leaf_matcher is not None else TypeNameMatcher()
        self._direction = direction
        self._selection = selection if selection is not None else MaxN(1)
        self._combined = combined_similarity

    # -- configuration accessors ----------------------------------------------------

    @property
    def leaf_matcher(self) -> Matcher:
        """The matcher providing leaf-level similarities (TypeName by default)."""
        return self._leaf_matcher

    @property
    def combined_similarity(self) -> CombinedSimilarityStrategy:
        """The strategy collapsing set matches into one element similarity."""
        return self._combined

    def with_combined_similarity(
        self, combined_similarity: CombinedSimilarityStrategy
    ) -> "_StructuralMatcherBase":
        """A copy using a different combined-similarity strategy (Average vs Dice)."""
        leaf = self._leaf_matcher
        if hasattr(leaf, "with_combined_similarity"):
            leaf = leaf.with_combined_similarity(combined_similarity)  # type: ignore[attr-defined]
        return type(self)(
            leaf_matcher=leaf,
            direction=self._direction,
            selection=self._selection,
            combined_similarity=combined_similarity,
        )

    # -- template methods -------------------------------------------------------------

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        """The component set of an inner path (children or leaf descendants)."""
        raise NotImplementedError

    def _recursive(self) -> bool:
        """Whether component similarities are computed recursively (Children) or not."""
        raise NotImplementedError

    # -- computation ---------------------------------------------------------------------

    def compute(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        # The leaf matcher is evaluated over the full path sets once, so that
        # component paths outside the requested subsets are covered too.
        leaf_matrix = self._leaf_matcher.compute(
            context.source_schema.paths(), context.target_schema.paths(), context
        )
        return self._compute_from_leaf_matrix(source_paths, target_paths, context, leaf_matrix)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant: the leaf matrix runs through the batch path.

        The structural recursion over component sets is identical to the
        pairwise path and memoised per element pair.  It is not cheap: traced
        on generated pairs of 15-108 paths per side (2-vCPU x86 host),
        Children and Leaves spend 80-90 ms of a ~110 ms mean cold default
        match in their own code, i.e. in this recursion, while the leaf-level
        similarities it consumes take ~15 ms (TypeName ~0.9 ms itself, the
        rest in Name, its set similarity and the string kernels).
        """
        leaf_matrix = self._leaf_matcher.compute_batch(
            context.source_schema.paths(), context.target_schema.paths(), context
        )
        return self._compute_from_leaf_matrix(source_paths, target_paths, context, leaf_matrix)

    def _compute_from_leaf_matrix(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
        leaf_matrix: SimilarityMatrix,
    ) -> SimilarityMatrix:
        source_schema = context.source_schema
        target_schema = context.target_schema
        # Integer index maps into the leaf matrix: the recursion gathers leaf
        # similarities (and whole component blocks) by position instead of
        # going through the per-cell path accessors.
        leaf_row = {path: i for i, path in enumerate(leaf_matrix.source_paths)}
        leaf_column = {path: j for j, path in enumerate(leaf_matrix.target_paths)}
        leaf_values = leaf_matrix.values

        # Component sets are derived from the schema graph alone, so they are
        # memoised per path (leaf_paths_under / child_paths scan the schema).
        source_components: Dict[SchemaPath, Tuple[SchemaPath, ...]] = {}
        target_components: Dict[SchemaPath, Tuple[SchemaPath, ...]] = {}

        def components_of(
            schema: Schema, path: SchemaPath, cache: Dict[SchemaPath, Tuple[SchemaPath, ...]]
        ) -> Tuple[SchemaPath, ...]:
            components = cache.get(path)
            if components is None:
                components = self._component_paths(schema, path)
                cache[path] = components
            return components

        memo: Dict[Tuple[SchemaPath, SchemaPath], float] = {}

        def pair_similarity(source: SchemaPath, target: SchemaPath) -> float:
            key = (source, target)
            if key in memo:
                return memo[key]
            source_row = leaf_row.get(source) if source_schema.is_leaf(source.leaf) else None
            target_col = leaf_column.get(target) if target_schema.is_leaf(target.leaf) else None
            if source_row is not None and target_col is not None:
                value = float(leaf_values[source_row, target_col])
            else:
                source_set = (
                    (source,)
                    if source_row is not None
                    else components_of(source_schema, source, source_components)
                )
                target_set = (
                    (target,)
                    if target_col is not None
                    else components_of(target_schema, target, target_components)
                )
                value = self._set_similarity(
                    source_set, target_set, pair_similarity, leaf_values, leaf_row, leaf_column
                )
            memo[key] = value
            return value

        # Leaf-leaf cells (the bulk of the matrix) are one block gather from
        # the leaf matrix; only pairs involving an inner element recurse.
        source_leaf_rows = [
            leaf_row[path] if source_schema.is_leaf(path.leaf) else -1 for path in source_paths
        ]
        target_leaf_cols = [
            leaf_column[path] if target_schema.is_leaf(path.leaf) else -1 for path in target_paths
        ]
        values = leaf_values[
            np.ix_(
                [max(row, 0) for row in source_leaf_rows],
                [max(col, 0) for col in target_leaf_cols],
            )
        ].copy()
        for i, source in enumerate(source_paths):
            source_inner = source_leaf_rows[i] < 0
            for j, target in enumerate(target_paths):
                if source_inner or target_leaf_cols[j] < 0:
                    values[i, j] = pair_similarity(source, target)
        return SimilarityMatrix(source_paths, target_paths, values)

    def _set_similarity(
        self,
        source_set: Sequence[SchemaPath],
        target_set: Sequence[SchemaPath],
        recursive_similarity,
        leaf_values: np.ndarray,
        leaf_row: Dict[SchemaPath, int],
        leaf_column: Dict[SchemaPath, int],
    ) -> float:
        if not source_set or not target_set:
            return 0.0
        if self._recursive():
            component_values = np.empty((len(source_set), len(target_set)), dtype=float)
            for i, source in enumerate(source_set):
                for j, target in enumerate(target_set):
                    component_values[i, j] = recursive_similarity(source, target)
        else:
            component_values = leaf_values[
                np.ix_(
                    [leaf_row[path] for path in source_set],
                    [leaf_column[path] for path in target_set],
                )
            ]
        fast = self._singleton_selection(source_set, target_set, component_values)
        if fast is not None:
            selected = fast
        else:
            component_matrix = SimilarityMatrix(source_set, target_set, component_values)
            selected = self._direction.select_pairs(component_matrix, self._selection)
        return self._combined.combine(selected, len(source_set), len(target_set))

    def _singleton_selection(
        self,
        source_set: Sequence[SchemaPath],
        target_set: Sequence[SchemaPath],
        component_values: np.ndarray,
    ):
        """Exact shortcut for the default Both + Max1 selection on singleton sets.

        A leaf compared against a component set yields a ``1 x k`` (or
        ``k x 1``) matrix; under undirectional Max1 the intersection of both
        directions is exactly the single best pair -- with ties broken by path
        name order, as :meth:`SimilarityMatrix.ranked_targets` does.  Any other
        direction / selection configuration falls through to the generic
        strategy machinery (returns ``None``).
        """
        if not isinstance(self._direction, Both) or not isinstance(self._selection, MaxN):
            return None
        if self._selection.n != 1 or (len(source_set) > 1 and len(target_set) > 1):
            return None
        if len(source_set) == 1:
            row = component_values[0]
            best = min(
                range(len(target_set)), key=lambda j: (-row[j], target_set[j].names)
            )
            value = float(row[best])
            if value <= 0.0:
                return []
            return [(source_set[0], target_set[best], value)]
        column = component_values[:, 0]
        best = min(range(len(source_set)), key=lambda i: (-column[i], source_set[i].names))
        value = float(column[best])
        if value <= 0.0:
            return []
        return [(source_set[best], target_set[0], value)]


class ChildrenMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their children."""

    name = "Children"

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        return schema.child_paths(path)

    def _recursive(self) -> bool:
        return True


class LeavesMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their leaf sets."""

    name = "Leaves"

    def _component_paths(self, schema: Schema, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        leaves = schema.leaf_paths_under(path)
        # An inner element whose subtree is (pathologically) empty of leaves
        # falls back to its direct children to avoid an empty component set.
        return leaves if leaves else schema.child_paths(path)

    def _recursive(self) -> bool:
        return False
