"""The hybrid structural matchers Children and Leaves (Section 4.2, Table 4).

Both matchers derive the similarity of two *inner* elements from the combined
similarity of element sets beneath them, using a leaf-level matcher (TypeName
by default) for the base similarities and the (Both, Max1, Average) pipeline
of Table 4 for combining set matches (Dice may replace Average):

* ``Children`` compares the *child* sets of two inner elements.  Children may
  themselves be inner elements, whose similarity is computed first.
* ``Leaves`` compares the *leaf descendant* sets of two inner elements, which
  is more stable under structural conflicts: in Figure 1, Children only finds
  ``ShipTo <-> Address`` whereas Leaves also identifies ``ShipTo <-> DeliverTo``.

Leaf-leaf pairs take their similarity directly from the leaf matcher; mixed
pairs (a leaf against an inner element) treat the leaf as a singleton set.

Every cell comes from one array kernel over the full-schema leaf matrix.
Each side is indexed once in DFS preorder
(:class:`~repro.engine.profiles.PathTree`, cached on the shared path-set
profile): the subtree of a path is a contiguous preorder window, as in
:mod:`repro.search.intervals`, so the leaf set of an inner path is the
leaves of its window.  A leaf against an inner element is a singleton set,
whose cell is a segmented maximum over the other set
(:func:`_singleton_similarities`).  Pairs of inner elements are scored in
batches (:func:`_set_similarities`): one gather of their component blocks,
segmented row and column maxima for Max1 in both directions, and Average or
Dice over the mutual bests.  Children fills its cells level by level, by
height, so every level reads finished child pairs.  Level 1 is the paths
of height 1, whose children are their leaves, so its cells (between two
such paths, or one and a leaf) are the same for both matchers: they are
computed once per engine execution, over child sets, through the layer
memo (:func:`_level_one`), and Children and Leaves both start from that
array.  Leaves fills every taller path in one more pass, over leaf sets,
which hold only leaves.  Only the requested rows and columns are
evaluated, plus their descendants for Children, so a partial execution
costs what it asks for and its cells equal those of a full one bit for
bit; there the two matchers evaluate different rows, and each computes its
own level 1.

Traced on generated pairs of 15-108 paths per side (the benchmark's
``cold_match`` workload, 2-vCPU x86 host), the per-pair Python recursion
this kernel replaced spent 57 (Children) + 44 (Leaves) ms of a ~126 ms cold
default match in its own code.  The leaf matrix the kernel reads is the
TypeName layer itself, shared through the engine's layer memo
(:meth:`~repro.matchers.base.Matcher.compute_shared`).  Every inner path of
those pairs has height 1, so Leaves reads the whole level-1 array that
Children computed: a traced ``cold_match`` (seed 3, same host, p50 3.5-3.7
ms) spends 1.0-1.1 ms in Children, including both sides' path trees, and
0.11 in Leaves, against 0.55-0.68 before the pass was shared; 0.52-0.56 in
token-set similarity and 0.39-0.43 in profiles.  Children is the largest
layer of a cold match.

Examples
--------
Figure 1: Leaves sees the same leaf set below ``DeliverTo`` and below its
``Address`` child, so ``ShipTo`` is equally similar to both:

>>> from repro.core.match_operation import build_context
>>> from repro.datasets.figure1 import load_po1, load_po2
>>> po1, po2 = load_po1(), load_po2()
>>> matrix = LeavesMatcher().compute_batch(
...     po1.paths(), po2.paths(), build_context(po1, po2))
>>> ship_to = po1.find_path("PO1.ShipTo")
>>> deliver_to = po2.find_path("PO2.PO2.DeliverTo")
>>> address = po2.find_path("PO2.PO2.DeliverTo.Address")
>>> matrix.get(ship_to, deliver_to) == matrix.get(ship_to, address) > 0.0
True
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.combination.combined import (
    AVERAGE_COMBINED,
    AverageCombined,
    CombinedSimilarityStrategy,
    DiceCombined,
)
from repro.combination.matrix import SimilarityMatrix
from repro.exceptions import MatcherError
from repro.matchers.base import MatchContext, Matcher, memoised
from repro.matchers.hybrid.type_name import TypeNameMatcher
from repro.model.path import SchemaPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.profiles import PathTree

#: One component set per path (children or leaves, in name order).
ComponentSets = List[List[int]]

#: Cells of one gathered block at most; larger batches are split by rows.
_BLOCK_CELLS = 1 << 21


def _gather(sets: ComponentSets, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sets of ``nodes`` concatenated, with each set's offset and size."""
    groups = [sets[node] for node in nodes.tolist()]
    sizes = np.array([len(group) for group in groups], dtype=np.intp)
    offsets = np.zeros(len(groups), dtype=np.intp)
    np.cumsum(sizes[:-1], out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(groups), dtype=np.intp, count=int(sizes.sum()))
    return flat, offsets, sizes


def _singleton_similarities(
    values: np.ndarray,
    singles: np.ndarray,
    nodes: np.ndarray,
    sets: ComponentSets,
    combined: CombinedSimilarityStrategy,
) -> np.ndarray:
    """Leaf rows ``singles`` against the component sets of inner columns ``nodes``.

    Under Both + Max1 a singleton keeps its best match ``m`` if ``m > 0``, so
    the set similarity is ``(m + m) / (1 + k)`` for Average and ``2 / (1 + k)``
    for Dice, ``k`` being the set size.
    """
    flat, offsets, sizes = _gather(sets, nodes)
    best = np.maximum.reduceat(values[np.ix_(singles, flat)], offsets, axis=1)
    matched = 2.0 if isinstance(combined, DiceCombined) else best + best
    return np.clip(np.where(best > 0.0, matched / (1 + sizes), 0.0), 0.0, 1.0)


def _set_similarities(
    values: np.ndarray,
    rows: np.ndarray,
    columns: np.ndarray,
    source: PathTree,
    target: PathTree,
    source_sets: ComponentSets,
    target_sets: ComponentSets,
    combined: CombinedSimilarityStrategy,
) -> np.ndarray:
    """Both + Max1 + ``combined`` over the component sets of ``rows x columns``.

    ``values`` must hold every cell between a row's and a column's
    components.  Returns the ``len(rows) x len(columns)`` similarities.
    """
    column_sets = _gather(target_sets, columns)
    # Whole row sets per chunk, at most _BLOCK_CELLS block cells (>= 1 set).
    cells = np.cumsum([len(source_sets[row]) for row in rows.tolist()]) * len(column_sets[0])
    result = np.empty((len(rows), len(columns)))
    first = 0
    while first < len(rows):
        limit = _BLOCK_CELLS + (cells[first - 1] if first else 0)
        stop = max(first + 1, int(np.searchsorted(cells, limit, side="right")))
        result[first:stop] = _set_similarity_block(
            values, source, target, _gather(source_sets, rows[first:stop]), column_sets, combined
        )
        first = stop
    return result


def _set_similarity_block(values, source, target, row_sets, column_sets, combined) -> np.ndarray:
    rows_flat, row_offsets, row_sizes = row_sets
    columns_flat, column_offsets, column_sizes = column_sets
    rows, columns = len(row_offsets), len(column_offsets)
    height, width = len(rows_flat), len(columns_flat)
    block = values[np.ix_(rows_flat, columns_flat)]
    # Max1 per row component within each column set, and per column
    # component within each row set.  Sets are in name-rank order, so the
    # first position holding the maximum is the one Max1 prefers.
    row_best = np.maximum.reduceat(block, column_offsets, axis=1)
    row_choice = np.minimum.reduceat(
        np.where(block == np.repeat(row_best, column_sizes, axis=1), np.arange(width), width),
        column_offsets,
        axis=1,
    )
    column_best = np.maximum.reduceat(block, row_offsets, axis=0)
    column_choice = np.minimum.reduceat(
        np.where(
            block == np.repeat(column_best, row_sizes, axis=0), np.arange(height)[:, None], height
        ),
        row_offsets,
        axis=0,
    )
    owner = np.repeat(np.arange(rows), row_sizes)
    # Both: a cell is kept when it is the best of its row and of its column.
    mutual = (row_best > 0.0) & (
        column_choice[owner[:, None], row_choice] == np.arange(height)[:, None]
    )
    component, column = np.nonzero(mutual)
    pair = owner[component] * columns + column
    similarity = row_best[component, column]
    source_index = rows_flat[component]
    target_index = columns_flat[row_choice[component, column]]
    # The order select_cells keeps cells in: by source name, target
    # name, source position, target position.
    order = np.lexsort((
        target_index, source_index, target.dense[target_index], source.dense[source_index], pair
    ))
    pair, similarity = pair[order], similarity[order]

    totals = (row_sizes[:, None] + column_sizes[None, :]).ravel()
    if isinstance(combined, DiceCombined):
        counts = np.bincount(pair, minlength=len(totals))
        result = (counts + counts) / totals
    else:
        starts = np.flatnonzero(np.diff(pair, prepend=-1))
        ends = np.append(starts[1:], len(pair))
        # Builtin sum, as AverageCombined.combine_cells adds (compensated from 3.12).
        ordered = similarity.tolist()
        sums = np.zeros(len(totals))
        sums[pair[starts]] = [
            sum(ordered[start:end]) for start, end in zip(starts.tolist(), ends.tolist())
        ]
        result = (sums + sums) / totals
    np.clip(result, 0.0, 1.0, out=result)
    return result.reshape(rows, columns)


class _Axis(NamedTuple):
    """One side of a kernel pass: its tree, component sets and evaluated paths."""

    tree: PathTree
    sets: ComponentSets
    leaves: np.ndarray  #: the evaluated leaf paths
    inner: np.ndarray  #: the evaluated inner paths
    levels: np.ndarray  #: the level of each path of ``inner``

    @classmethod
    def of(cls, tree: PathTree, sets: ComponentSets, levels: np.ndarray, paths: np.ndarray):
        leaf = tree.leaf[paths]
        inner = paths[~leaf]
        return cls(tree, sets, paths[leaf], inner, levels[inner])


def _fill_level(
    values: np.ndarray, level: int, source: _Axis, target: _Axis,
    combined: CombinedSimilarityStrategy,
) -> None:
    """Fill the cells of ``level``'s inner paths against leaves and inner paths up to ``level``.

    Every cell filled reads only leaf x leaf cells and cells of lower levels.
    """
    level_rows = source.inner[source.levels == level]
    level_columns = target.inner[target.levels == level]
    if len(source.leaves) and len(level_columns):
        values[np.ix_(source.leaves, level_columns)] = _singleton_similarities(
            values, source.leaves, level_columns, target.sets, combined
        )
    if len(level_rows) and len(target.leaves):
        values[np.ix_(level_rows, target.leaves)] = _singleton_similarities(
            values.T, target.leaves, level_rows, source.sets, combined
        ).T
    for pair_rows, pair_columns in (
        (level_rows, target.inner[target.levels <= level]),
        (source.inner[source.levels < level], level_columns),
    ):
        if len(pair_rows) and len(pair_columns):
            values[np.ix_(pair_rows, pair_columns)] = _set_similarities(
                values, pair_rows, pair_columns, source.tree, target.tree,
                source.sets, target.sets, combined,
            )


def _level_one(
    leaf_matrix: SimilarityMatrix, source: PathTree, target: PathTree,
    rows: np.ndarray, columns: np.ndarray, combined: CombinedSimilarityStrategy,
) -> np.ndarray:
    """The leaf matrix with level 1 filled over ``rows x columns``, read-only.

    Level 1 is the paths of height 1, whose children are their leaves, so
    Children and Leaves both start from this array.
    """
    values = np.array(leaf_matrix.values)
    _fill_level(
        values, 1,
        _Axis.of(source, source.children, source.height, rows),
        _Axis.of(target, target.children, target.height, columns),
        combined,
    )
    values.flags.writeable = False
    return values


class _StructuralMatcherBase(Matcher):
    """Shared implementation of the Children and Leaves matchers."""

    kind = "hybrid"

    def __init__(
        self,
        leaf_matcher: Optional[Matcher] = None,
        combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED,
    ):
        if not isinstance(combined_similarity, (AverageCombined, DiceCombined)):
            raise MatcherError(
                f"{self.name} combines set matches with Average or Dice, "
                f"got {combined_similarity}"
            )
        self._leaf_matcher = leaf_matcher if leaf_matcher is not None else TypeNameMatcher()
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
        return type(self)(leaf_matcher=leaf, combined_similarity=combined_similarity)

    # -- template methods -------------------------------------------------------------

    def _component_sets(self, tree: PathTree) -> ComponentSets:
        """Every inner path's component set: its children or its leaves."""
        raise NotImplementedError

    def _levels(self, tree: PathTree) -> np.ndarray:
        """Per path, the level after whose cells its own cells are filled."""
        raise NotImplementedError

    def _needed(self, tree: PathTree, requested: np.ndarray) -> np.ndarray:
        """The paths whose cells the requested cells are computed from."""
        return requested

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
        return self._from_leaf_matrix(source_paths, target_paths, leaf_matrix, context)

    def compute_batch(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        context: MatchContext,
    ) -> SimilarityMatrix:
        """Batch variant: the leaf matrix comes through the layer memo.

        Within one engine execution the default TypeName leaf matrix is the
        TypeName layer itself, both sides' path trees come from the shared
        path-set profiles, and Children and Leaves share the level-1 pass,
        so they add only the kernel: about 1.0 and 0.11 ms of a ~3.6 ms
        cold default match on the benchmark's generated pairs (see the
        module docstring).
        """
        leaf_matrix = self._leaf_matcher.compute_shared(
            context.source_schema.paths(), context.target_schema.paths(), context
        )
        return self._from_leaf_matrix(source_paths, target_paths, leaf_matrix, context)

    def _from_leaf_matrix(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        leaf_matrix: SimilarityMatrix,
        context: MatchContext,
    ) -> SimilarityMatrix:
        source = context.profiles(leaf_matrix.source_paths).path_tree()
        target = context.profiles(leaf_matrix.target_paths).path_tree()
        requested_rows = source.index_of(source_paths)
        requested_columns = target.index_of(target_paths)
        rows = self._needed(source, np.unique(requested_rows))
        columns = self._needed(target, np.unique(requested_columns))
        # Leaf x leaf cells are the leaf matrix, and every other cell of a
        # level reads only cells of lower levels.  Level 1 does not depend on
        # the matcher, so it is computed once per execution for each leaf
        # matrix, strategy and evaluated rows and columns.  The entry holds
        # the leaf matrix, so its id is not reused while the memo lives.
        combined = self._combined
        values, _ = memoised(
            context,
            ("level one", id(leaf_matrix), combined, rows.tobytes(), columns.tobytes()),
            lambda: (
                _level_one(leaf_matrix, source, target, rows, columns, combined), leaf_matrix
            ),
        )
        source_axis = _Axis.of(source, self._component_sets(source), self._levels(source), rows)
        target_axis = _Axis.of(target, self._component_sets(target), self._levels(target), columns)
        top = int(max(source_axis.levels.max(initial=0), target_axis.levels.max(initial=0)))
        if top > 1:
            values = np.array(values)
            for level in range(2, top + 1):
                _fill_level(values, level, source_axis, target_axis, combined)
        return SimilarityMatrix(
            source_paths, target_paths, values[np.ix_(requested_rows, requested_columns)]
        )


class ChildrenMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their children."""

    name = "Children"

    def _component_sets(self, tree: PathTree) -> ComponentSets:
        return tree.children

    def _levels(self, tree: PathTree) -> np.ndarray:
        return tree.height

    def _needed(self, tree: PathTree, requested: np.ndarray) -> np.ndarray:
        return tree.with_descendants(requested)


class LeavesMatcher(_StructuralMatcherBase):
    """Similarity of inner elements from the combined similarity of their leaf sets."""

    name = "Leaves"

    def _component_sets(self, tree: PathTree) -> ComponentSets:
        return tree.leaves

    def _levels(self, tree: PathTree) -> np.ndarray:
        # Taller paths' leaf sets hold only leaves: one pass after level 1.
        return tree.height.clip(max=2)
