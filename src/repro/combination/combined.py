"""Computation of combined similarity for element/component sets (Section 6.3).

Hybrid matchers need a third step: turning the list of selected match
candidates between two *sets* (token sets, child sets, leaf sets) into one
combined similarity value for the pair of schema objects that own those sets.
The same computation also produces the *schema similarity* used by Figure 8.

Two strategies are supported:

* ``Average`` -- the sum of the similarities of all match candidates of both
  sets divided by the total number of set elements ``|S1| + |S2|``,
* ``Dice`` -- the ratio of the number of matched elements over the total
  number of set elements (the similarity values themselves do not matter),
  based on the Dice coefficient.

Both follow Figure 7: the selected cells passed in are the directional match
results ``S1 -> S2`` and ``S2 -> S1`` produced by step 2 with direction
``Both``; Dice is more optimistic than Average whenever individual similarities
are below 1.0, and both coincide when every similarity equals 1.0.  One
kernel over the kept cells computes both
(:meth:`CombinedSimilarityStrategy.combine_cells`);
:meth:`~CombinedSimilarityStrategy.combine` takes path triples instead.
Target 1 is matched twice and counts once, with its best similarity:

>>> from repro.combination.direction import SelectedCells
>>> cells = SelectedCells(np.array([0, 1]), np.array([1, 1]), np.array([0.8, 0.6]))
>>> AVERAGE_COMBINED.combine_cells(cells, 2, 2), DICE_COMBINED.combine_cells(cells, 2, 2)
(0.55, 0.75)
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.direction import SelectedCells, SelectedPair


class CombinedSimilarityStrategy(abc.ABC):
    """Base class for combined-similarity (set similarity) strategies."""

    name: str = "combined-similarity"

    def combine_cells(
        self, cells: SelectedCells, source_size: int, target_size: int
    ) -> float:
        """Combine the selected cells between two sets into one similarity value.

        Parameters
        ----------
        cells:
            The selected cells (undirected, i.e. each matched pair appears
            once): row indexes into the first set, column indexes into the
            second, and their similarities.
        source_size / target_size:
            The total number of elements in the two sets (``|S1|`` / ``|S2|``).
        """
        self._validate_sizes(source_size, target_size)
        if not len(cells.values):
            return 0.0
        value = self._matched(
            _side_maxima(cells.rows, cells.values), _side_maxima(cells.columns, cells.values)
        ) / (source_size + target_size)
        return min(1.0, max(0.0, value))

    @abc.abstractmethod
    def _matched(self, source_maxima: List[float], target_maxima: List[float]):
        """The numerator of Figure 7 from each side's per-element maxima."""

    def combine(
        self,
        selected_pairs: Sequence[SelectedPair],
        source_size: int,
        target_size: int,
    ) -> float:
        """:meth:`combine_cells` over ``(source, target, similarity)`` triples.

        Each distinct path is numbered in the order it first appears.
        """
        sources: Dict[object, int] = {}
        targets: Dict[object, int] = {}
        cells = SelectedCells(
            np.array([sources.setdefault(s, len(sources)) for s, _, _ in selected_pairs],
                     dtype=np.intp),
            np.array([targets.setdefault(t, len(targets)) for _, t, _ in selected_pairs],
                     dtype=np.intp),
            np.array([similarity for _, _, similarity in selected_pairs], dtype=float),
        )
        return self.combine_cells(cells, source_size, target_size)

    def __call__(
        self,
        selected_pairs: Sequence[SelectedPair],
        source_size: int,
        target_size: int,
    ) -> float:
        return self.combine(selected_pairs, source_size, target_size)

    @staticmethod
    def _validate_sizes(source_size: int, target_size: int) -> None:
        if source_size <= 0 or target_size <= 0:
            raise CombinationError(
                f"set sizes must be positive, got |S1|={source_size}, |S2|={target_size}"
            )

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(str(self))  # equal values print equal names


def _side_maxima(indexes: np.ndarray, values: np.ndarray) -> List[float]:
    """Each matched element's largest similarity, in the order elements first appear.

    Figure 7 counts the match candidates of *both* sets: a source element with
    one candidate contributes its similarity once for the S1 -> S2 direction
    and the target element contributes once for S2 -> S1.  With at most one
    candidate per element (the usual case after Max1/Delta selection) this is
    equivalent to counting each matched element once per side.  ``fmax``
    floors each maximum at 0.0 and skips NaN, as a running ``max`` from 0.0
    does.
    """
    order = np.argsort(indexes, kind="stable")
    ordered = indexes[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    if len(starts) == len(indexes) - 1:  # no element is matched twice
        return np.fmax(values, 0.0).tolist()
    starts = np.concatenate(([0], starts))
    maxima = np.fmax(np.fmax.reduceat(values[order], starts), 0.0)
    # The stable sort puts each element's first appearance first in its run.
    return maxima[np.argsort(order[starts])].tolist()


class AverageCombined(CombinedSimilarityStrategy):
    """Sum of candidate similarities of both sets over the total number of elements."""

    name = "Average"

    def _matched(self, source_maxima: List[float], target_maxima: List[float]) -> float:
        # The builtin sum, in first-appearance order: it is compensated from
        # Python 3.12 on, and the structural kernel adds the same way.
        return sum(source_maxima) + sum(target_maxima)


class DiceCombined(CombinedSimilarityStrategy):
    """Number of matched elements of both sets over the total number of elements."""

    name = "Dice"

    def _matched(self, source_maxima: List[float], target_maxima: List[float]) -> int:
        return len(source_maxima) + len(target_maxima)


#: Canonical instances.
AVERAGE_COMBINED = AverageCombined()
DICE_COMBINED = DiceCombined()

_BY_NAME = {
    "average": AVERAGE_COMBINED,
    "avg": AVERAGE_COMBINED,
    "dice": DICE_COMBINED,
}


def combined_similarity_by_name(name: str) -> CombinedSimilarityStrategy:
    """Resolve a combined-similarity strategy from its name."""
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise CombinationError(
            f"unknown combined-similarity strategy {name!r}; expected one of {sorted(set(_BY_NAME))}"
        ) from None
