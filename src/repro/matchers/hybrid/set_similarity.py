"""Combined similarity between two sets of arbitrary items (tokens).

Hybrid matchers apply the three combination steps of Section 6 not to schema
elements but to *components* of schema elements -- most prominently the token
sets produced by name tokenization.  Tokens are plain strings, so this module
provides a light-weight, numpy-based implementation of the same pipeline
(aggregation over several string matchers, Both/Max1 selection, Average or
Dice combined similarity) that works on any item type.

:func:`set_similarity` scores one pair of sets and is the pairwise reference.
:func:`batch_set_similarity` scores every pair of two set lists at once from
two side tables: the best target item per (source item, target set) and the
best source item per (source set, target item).  It adds each pair's kept
values left to right in item order, so a cell does not depend on which other
sets are requested with it.

The path-level machinery in :mod:`repro.combination` is *not* reused here on
purpose: its axes are :class:`~repro.model.path.SchemaPath` objects and
wrapping tokens into fake paths would obscure rather than simplify the code.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.combination.aggregation import (
    AggregationStrategy,
    AverageAggregation,
    MaxAggregation,
    MinAggregation,
    WeightedAggregation,
)
from repro.combination.combined import CombinedSimilarityStrategy, DiceCombined
from repro.exceptions import CombinationError

#: A similarity function over two items (e.g. a bound string matcher).
ItemSimilarity = Callable[[str, str], float]


def _aggregate_layers(layers: np.ndarray, aggregation: AggregationStrategy) -> np.ndarray:
    """Collapse the first (matcher) axis of a ``k x m x n`` array."""
    if isinstance(aggregation, MaxAggregation):
        return layers.max(axis=0)
    if isinstance(aggregation, MinAggregation):
        return layers.min(axis=0)
    if isinstance(aggregation, AverageAggregation):
        return layers.mean(axis=0)
    if isinstance(aggregation, WeightedAggregation):
        raise CombinationError(
            "Weighted aggregation over token-set layers is not supported; "
            "use Max, Min or Average inside hybrid name matchers"
        )
    raise CombinationError(f"unsupported aggregation strategy for token sets: {aggregation}")


def _mutual_best_pairs(matrix: np.ndarray) -> List[Tuple[int, int, float]]:
    """Max1 selection in both directions: pairs that are each other's best candidate.

    Ties are broken by the lower index so the result is deterministic.  Cells
    with similarity 0 are never selected.
    """
    if matrix.size == 0:
        return []
    rows, columns = matrix.shape
    best_for_row = matrix.argmax(axis=1)
    best_for_column = matrix.argmax(axis=0)
    pairs: List[Tuple[int, int, float]] = []
    for i in range(rows):
        j = int(best_for_row[i])
        value = float(matrix[i, j])
        if value <= 0.0:
            continue
        if int(best_for_column[j]) == i:
            pairs.append((i, j, value))
    return pairs


def set_similarity(
    items_a: Sequence[str],
    items_b: Sequence[str],
    similarity_layers: Sequence[ItemSimilarity],
    aggregation: AggregationStrategy,
    combined: CombinedSimilarityStrategy,
) -> float:
    """The combined similarity of two item sets.

    Parameters
    ----------
    items_a / items_b:
        The two component sets (e.g. the token sets of two element names).
    similarity_layers:
        One similarity function per constituent matcher; each contributes one
        layer of the token-level similarity cube.
    aggregation:
        How to aggregate the layers per item pair (Max by default in the Name
        matcher, because tokens are typically similar according to only some
        matchers).
    combined:
        Average or Dice, applied to the mutually-best (Both + Max1) pairs.
    """
    unique_a = list(dict.fromkeys(items_a))
    unique_b = list(dict.fromkeys(items_b))
    if not unique_a or not unique_b:
        return 0.0
    if not similarity_layers:
        raise CombinationError("set_similarity requires at least one similarity layer")

    layers = np.zeros((len(similarity_layers), len(unique_a), len(unique_b)), dtype=float)
    for k, layer in enumerate(similarity_layers):
        for i, item_a in enumerate(unique_a):
            for j, item_b in enumerate(unique_b):
                layers[k, i, j] = min(1.0, max(0.0, float(layer(item_a, item_b))))

    aggregated = _aggregate_layers(layers, aggregation)
    selected = _mutual_best_pairs(aggregated)
    if not selected:
        return 0.0

    total_items = len(unique_a) + len(unique_b)
    matched_rows: Dict[int, float] = {}
    matched_columns: Dict[int, float] = {}
    for i, j, value in selected:
        matched_rows[i] = max(matched_rows.get(i, 0.0), value)
        matched_columns[j] = max(matched_columns.get(j, 0.0), value)

    if isinstance(combined, DiceCombined):
        value = (len(matched_rows) + len(matched_columns)) / total_items
    else:
        # Added left to right, as the batch kernel does: the builtin sum is
        # compensated from Python 3.12 on.
        row_sum = column_sum = 0.0
        for row_value in matched_rows.values():
            row_sum += row_value
        for column_value in matched_columns.values():
            column_sum += column_value
        value = (row_sum + column_sum) / total_items
    return min(1.0, max(0.0, value))


# ---------------------------------------------------------------------------
# Batch evaluation over a shared item vocabulary
# ---------------------------------------------------------------------------

#: Upper bound on the result cells of one row block.  Larger requests run the
#: kept-value loop block by block, so its per-position temporaries stay this
#: size; the side tables and the result itself are built whole.
MAX_CHUNK_ELEMENTS = 4_000_000


def _padded(
    index_sets: Sequence[Sequence[int]], lengths: np.ndarray, width: int, fill: int
) -> np.ndarray:
    """The sets as rows of a ``len(index_sets) x width`` array, padded with ``fill``."""
    padded = np.full((len(index_sets), width), fill, dtype=np.intp)
    padded[np.arange(width) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(index_sets), dtype=np.intp, count=int(lengths.sum())
    )
    return padded


def _first_best(slabs: Iterator[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Per cell, the index of the first slab holding the maximum, and the maximum.

    A loop over the few slabs: numpy's argmax over a short last axis costs a
    call per output cell, and only two slabs are alive at a time.
    """
    best = next(slabs)
    position = np.zeros(best.shape, dtype=np.intp)
    for k, slab in enumerate(slabs, start=1):
        better = slab > best
        best = np.where(better, slab, best)
        position[better] = k
    return position, best


def batch_set_similarity(
    vocabulary_matrix: np.ndarray,
    index_sets_a: Sequence[Sequence[int]],
    index_sets_b: Sequence[Sequence[int]],
    combined: CombinedSimilarityStrategy,
) -> np.ndarray:
    """All-pairs combined set similarity over a pre-aggregated item vocabulary.

    This is the vectorized counterpart of :func:`set_similarity` used by the
    batch Name/NamePath matchers: the per-item-pair similarities are read
    from ``vocabulary_matrix`` (the constituent layers aggregated once over the
    full token vocabulary) instead of being recomputed per set pair, and the
    Both/Max1 selection plus Average/Dice combination run as array operations
    over every ``(set_a, set_b)`` pair at once.

    Max1's choice for a source item depends only on that item and the target
    set, and its choice for a target item only on that item and the source
    set.  So the kernel builds two side tables instead of gathering every
    item pair of every set pair:

    * per source item and target set, the first best position in the set and
      its value (``|items_a| x count_b``);
    * per source set and target item, the first best position in the set
      (``count_a x |items_b|``).

    Row ``i`` of a set pair is kept iff the target item it picks points back
    to ``i`` and its value is positive.  Each set pair's kept values are added
    left to right, one item position at a time, so a cell's bits depend only
    on its own two sets -- not on the longest set among the requested rows.
    That keeps :meth:`~repro.engine.engine.MatchEngine.execute_partial`'s
    cells equal to a full execution's.

    Parameters
    ----------
    vocabulary_matrix:
        The aggregated item-similarity matrix, rows indexed by the source-side
        item vocabulary and columns by the target-side one (values already
        clamped to ``[0, 1]``).
    index_sets_a / index_sets_b:
        Per set, the integer row / column indices of its *deduplicated* items
        (order preserved -- ties in the Max1 selection break by item order,
        exactly as in :func:`set_similarity`).

    Returns
    -------
    A ``len(index_sets_a) x len(index_sets_b)`` matrix of combined similarities.

    Examples
    --------
    Source item 0 scores 0.8 against both target items and takes the first;
    target item 1 scores 0.8 against both source items and also takes the
    first.  So in the set ``[0, 1]`` item 1 stays unmatched, while listing
    the same items as ``[1, 0]`` matches both:

    >>> from repro.combination.combined import AVERAGE_COMBINED
    >>> values = np.array([[0.8, 0.8], [0.0, 0.8]])
    >>> batch_set_similarity(values, [[0, 1], [1, 0]], [[0, 1]], AVERAGE_COMBINED)
    array([[0.4],
           [0.8]])
    """
    count_a = len(index_sets_a)
    count_b = len(index_sets_b)
    result = np.zeros((count_a, count_b), dtype=float)
    if count_a == 0 or count_b == 0:
        return result

    lengths_a = np.array([len(indices) for indices in index_sets_a], dtype=np.intp)
    lengths_b = np.array([len(indices) for indices in index_sets_b], dtype=np.intp)
    width_a = int(lengths_a.max())
    width_b = int(lengths_b.max())
    if width_a == 0 or width_b == 0:
        # One side consists only of empty sets: every similarity is 0.
        return result

    # Padding slots point at an extra row / column of -1, which never wins a
    # maximum against a real item (real values are >= 0).
    items_a, items_b = vocabulary_matrix.shape
    extended = np.full((items_a + 1, items_b + 1), -1.0)
    extended[:items_a, :items_b] = vocabulary_matrix
    padded_a = _padded(index_sets_a, lengths_a, width_a, items_a)
    padded_b = _padded(index_sets_b, lengths_b, width_b, items_b)

    # Per source item x target set: the target item Max1 picks, and its value.
    position, row_best = _first_best(extended.take(column, axis=1) for column in padded_b.T)
    row_target = padded_b.ravel().take(position + np.arange(count_b) * width_b)
    # Per source set x target item: the position of the source item it picks.
    column_best, _ = _first_best(extended.take(column, axis=0) for column in padded_a.T)

    use_dice = isinstance(combined, DiceCombined)
    totals = lengths_a[:, None] + lengths_b[None, :]
    chunk_rows = max(1, MAX_CHUNK_ELEMENTS // count_b)
    for start in range(0, count_a, chunk_rows):
        stop = min(start + chunk_rows, count_a)
        back_flat = column_best[start:stop].ravel()
        back_offsets = np.arange(stop - start)[:, None] * (items_b + 1)
        contribution = np.zeros((stop - start, count_b))
        for i, items in enumerate(padded_a[start:stop].T):
            value = row_best.take(items, axis=0)
            back = back_flat.take(row_target.take(items, axis=0) + back_offsets)
            # Max1 in both directions: the row's pick points back to it.
            matched = (back == i) & (value > 0.0)
            if use_dice:
                contribution += matched
            else:
                contribution += value * matched
        # Each mutual pair matches exactly one row and one column, so both
        # directions contribute the same count / value sum.
        with np.errstate(divide="ignore", invalid="ignore"):
            block = np.where(
                totals[start:stop] > 0, 2.0 * contribution / totals[start:stop], 0.0
            )
        result[start:stop] = np.clip(block, 0.0, 1.0)
    return result
