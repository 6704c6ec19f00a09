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
a :class:`~repro.combination.selection.SelectionStrategy` and produces the
selected cells: row and column index arrays into the matrix
(:meth:`DirectionStrategy.select_cells`), or the same cells as
``(source path, target path, similarity)`` triples
(:meth:`DirectionStrategy.select_pairs`).

Everything runs on matrix indices.  Each direction is one boolean mask over
the matrix (:meth:`DirectionStrategy.mask`): the selection rule applied to the
matrix, one row per source, or to its transpose, one row per target; ``Both``
is the AND of the two.  Candidates rank by the axes' dense name ranks
(:meth:`~repro.combination.matrix.SimilarityMatrix.name_ranks`).  The kept
cells come out ordered by source name, then target name, then source and
target position, and stay index arrays: the mapping, the combined similarity
and the wire formats read them as such.  Pairs whose name tuples tie on both
sides therefore come in axis order.  Element ids never order the
output: they come from a process-wide counter, so the same two schemas would
serialize differently depending on what the process built before.

Examples
--------
Two source paths share the name ``City``; both pairs are kept and come in
axis order:

>>> from repro.combination.selection import Threshold
>>> from repro.model.element import SchemaElement
>>> source, target = SchemaElement("S"), SchemaElement("T")
>>> cities = [SchemaPath([source, SchemaElement("City")]) for _ in range(2)]
>>> town = SchemaPath([target, SchemaElement("Town")])
>>> matrix = SimilarityMatrix(cities, [town], np.array([[0.8], [0.8]]))
>>> [(cities.index(s), str(t), v) for s, t, v in BOTH.select_pairs(matrix, Threshold(0.5))]
[(0, 'T.Town', 0.8), (1, 'T.Town', 0.8)]
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import SelectionStrategy
from repro.model.path import SchemaPath

#: One selected correspondence: source path (S1), target path (S2), similarity.
SelectedPair = Tuple[SchemaPath, SchemaPath, float]


class SelectedCells(NamedTuple):
    """The cells a selection keeps: row and column indexes and their similarities.

    In the order of :meth:`DirectionStrategy.select_cells`.
    """

    rows: np.ndarray
    columns: np.ndarray
    values: np.ndarray


def _kept(values: np.ndarray, candidate_ranks: np.ndarray, selection: SelectionStrategy):
    """``selection``'s mask over ``values``: one row per element, candidates by name."""
    return selection.mask(values, np.argsort(candidate_ranks, kind="stable"))


def _forward(matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
    """For each source (row) element, the candidates selected among the targets."""
    return _kept(matrix.values, matrix.name_ranks()[1], selection)


def _backward(matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
    """For each target (column) element, the candidates selected among the sources."""
    return _kept(matrix.values.T, matrix.name_ranks()[0], selection).T


class DirectionStrategy:
    """Base class for match direction strategies."""

    name: str = "direction"

    def mask(self, matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
        """The cells of ``matrix`` that ``selection`` keeps in this direction."""
        raise NotImplementedError(f"{self.name} selects cells without a cell mask")

    def select_cells(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Apply ``selection`` in the configured direction(s) over ``matrix``.

        Returns the kept cells as ``(rows, columns)`` index arrays, ordered by
        source name, target name, source position and target position.
        """
        rows, columns = np.nonzero(self.mask(matrix, selection))
        source_ranks, target_ranks = matrix.name_ranks()
        order = np.lexsort((columns, rows, target_ranks[columns], source_ranks[rows]))
        return rows[order], columns[order]

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        """The cells of :meth:`select_cells` as path triples, in the same order."""
        rows, columns = self.select_cells(matrix, selection)
        sources, targets = matrix.source_paths, matrix.target_paths
        return list(zip(
            [sources[i] for i in rows.tolist()],
            [targets[j] for j in columns.tolist()],
            matrix.values[rows, columns].tolist(),
        ))

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
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(str(self))  # equal values print equal names


class LargeSmall(DirectionStrategy):
    """Rank and select elements of the larger schema for each smaller-schema element."""

    name = "LargeSmall"

    def mask(self, matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
        # S1 (rows) is larger: select S1 candidates for each S2 element, and
        # the other way round otherwise.
        if self._source_is_larger(matrix):
            return _backward(matrix, selection)
        return _forward(matrix, selection)


class SmallLarge(DirectionStrategy):
    """Rank and select elements of the smaller schema for each larger-schema element."""

    name = "SmallLarge"

    def mask(self, matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
        if self._source_is_larger(matrix):
            return _forward(matrix, selection)
        return _backward(matrix, selection)


class Both(DirectionStrategy):
    """Undirectional matching: a pair must be selected in both directions."""

    name = "Both"

    def mask(self, matrix: SimilarityMatrix, selection: SelectionStrategy) -> np.ndarray:
        return _forward(matrix, selection) & _backward(matrix, selection)


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
