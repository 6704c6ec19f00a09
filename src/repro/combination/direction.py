"""Match direction and the direction-aware application of selection (Section 6.2).

COMA distinguishes directional and undirectional matching.  Given two schemas
S1 and S2 with ``|S2| <= |S1|`` (S1 the larger schema):

* ``LargeSmall`` -- elements from the larger schema S1 are ranked and selected
  with respect to each element of the smaller target S2,
* ``SmallLarge`` -- elements of the smaller schema S2 are ranked and selected
  for each S1 element,
* ``Both`` -- both directions are evaluated and a pair is only accepted if it
  is selected in both directions (the undirectional match of Section 3).

The direction strategy consumes the aggregated similarity matrix (rows = S1
paths, columns = S2 paths, in *input* order, regardless of size) together with
a :class:`~repro.combination.selection.SelectionStrategy` and produces the set
of selected ``(source path, target path, similarity)`` triples.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import SelectionStrategy
from repro.model.path import SchemaPath

#: One selected correspondence: source path (S1), target path (S2), similarity.
SelectedPair = Tuple[SchemaPath, SchemaPath, float]


def _selected_cells(
    values: np.ndarray, candidates: Sequence[SchemaPath], selection: SelectionStrategy
) -> Iterator[Tuple[int, int, float]]:
    """The ``(row, candidate, similarity)`` cells ``selection`` keeps in ``values``.

    Cells come in ranking order: rows in axis order, each row's candidates by
    descending similarity, ties by candidate name and then position -- the
    order of :meth:`SimilarityMatrix.ranked_targets`.  Callers insert them
    into a set in this order, so the set (and the order of equal-name pairs
    after sorting) is the same as when every row was ranked on its own.
    """
    order = np.array(
        sorted(range(len(candidates)), key=lambda j: candidates[j].names), dtype=np.intp
    )
    rank = np.argsort(order)
    rows, columns = np.nonzero(selection.mask(values, order))
    similarities = values[rows, columns]
    sequence = np.lexsort((rank[columns], -similarities, rows))
    return zip(
        rows[sequence].tolist(), columns[sequence].tolist(), similarities[sequence].tolist()
    )


def _select_source_to_target(
    matrix: SimilarityMatrix, selection: SelectionStrategy
) -> Set[SelectedPair]:
    """For each source (row) element, select candidates among the targets."""
    sources, targets = matrix.source_paths, matrix.target_paths
    return {
        (sources[i], targets[j], similarity)
        for i, j, similarity in _selected_cells(matrix.values, targets, selection)
    }


def _select_target_to_source(
    matrix: SimilarityMatrix, selection: SelectionStrategy
) -> Set[SelectedPair]:
    """For each target (column) element, select candidates among the sources."""
    sources, targets = matrix.source_paths, matrix.target_paths
    return {
        (sources[i], targets[j], similarity)
        for j, i, similarity in _selected_cells(matrix.values.T, sources, selection)
    }


class DirectionStrategy(abc.ABC):
    """Base class for match direction strategies."""

    name: str = "direction"

    @abc.abstractmethod
    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        """Apply ``selection`` in the configured direction(s) over ``matrix``."""

    @staticmethod
    def _source_is_larger(matrix: SimilarityMatrix) -> bool:
        rows, columns = matrix.shape
        return rows >= columns

    def __call__(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        return self.select_pairs(matrix, selection)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectionStrategy) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    @staticmethod
    def _sorted(pairs: Set[SelectedPair]) -> List[SelectedPair]:
        return sorted(pairs, key=lambda p: (p[0].names, p[1].names))


class LargeSmall(DirectionStrategy):
    """Rank and select elements of the larger schema for each smaller-schema element."""

    name = "LargeSmall"

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        if self._source_is_larger(matrix):
            # S1 (rows) is larger: select S1 candidates for each S2 element.
            pairs = _select_target_to_source(matrix, selection)
        else:
            # S2 (columns) is larger: select S2 candidates for each S1 element.
            pairs = _select_source_to_target(matrix, selection)
        return self._sorted(pairs)


class SmallLarge(DirectionStrategy):
    """Rank and select elements of the smaller schema for each larger-schema element."""

    name = "SmallLarge"

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        if self._source_is_larger(matrix):
            pairs = _select_source_to_target(matrix, selection)
        else:
            pairs = _select_target_to_source(matrix, selection)
        return self._sorted(pairs)


class Both(DirectionStrategy):
    """Undirectional matching: a pair must be selected in both directions."""

    name = "Both"

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        forward = _select_source_to_target(matrix, selection)
        backward = _select_target_to_source(matrix, selection)
        return self._sorted(forward & backward)


#: Canonical instances.
LARGE_SMALL = LargeSmall()
SMALL_LARGE = SmallLarge()
BOTH = Both()

_BY_NAME = {
    "largesmall": LARGE_SMALL,
    "smalllarge": SMALL_LARGE,
    "both": BOTH,
}


def direction_by_name(name: str) -> DirectionStrategy:
    """Resolve a direction strategy from its name."""
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise CombinationError(
            f"unknown direction strategy {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
