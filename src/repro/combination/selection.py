"""Selection of match candidates (Section 6.2).

Given the similarity matrix, the candidates for one element are ranked in
descending order of similarity and a *selection strategy* decides which of
them to keep:

* ``MaxN`` -- the ``n`` candidates with maximal similarity (``Max1`` is the
  natural choice for 1:1 correspondences),
* ``MaxDelta`` -- the best candidate plus every candidate whose similarity
  differs from the best by at most a tolerance ``d`` (absolute or relative),
* ``Threshold`` -- every candidate whose similarity is at least a threshold
  ``t``,
* combinations of the above (e.g. ``Threshold(0.5) + Delta(0.02)``), realised
  by :class:`CombinedSelection`, which keeps only candidates accepted by every
  constituent strategy.

Candidates with similarity ``0`` are never selected: a zero similarity means
"strong dissimilarity" (Section 3) and must not become a match candidate just
because a row of the matrix happens to be all zeros.

Each strategy is one array rule, :meth:`SelectionStrategy.mask`, applied to
every element at once: a dense ``rows x candidates`` array in, a boolean
array of kept candidates out.  Ties in the ranking are broken by candidate
name (then position), which only ``MaxN`` depends on; the name order is
passed in as an index permutation.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.model.path import SchemaPath

#: A ranked candidate: the candidate path and its similarity.
RankedCandidate = Tuple[SchemaPath, float]


class SelectionStrategy(abc.ABC):
    """Base class for candidate selection strategies."""

    name: str = "selection"

    @abc.abstractmethod
    def mask(self, values: np.ndarray, order: np.ndarray) -> np.ndarray:
        """The candidates kept for every row of ``values``.

        Parameters
        ----------
        values:
            A ``rows x candidates`` similarity array: one row per element,
            one column per match candidate.
        order:
            The candidate (column) indices in name order; candidates of equal
            similarity rank in this order.

        Returns
        -------
        numpy.ndarray
            A boolean array shaped like ``values``; true cells are kept.

        Examples
        --------
        Candidates 1 and 2 tie at 0.9; candidate 2's name sorts first, so
        ``MaxN(1)`` keeps it:

        >>> values = np.array([[0.5, 0.9, 0.9]])
        >>> MaxN(1).mask(values, order=np.array([2, 1, 0]))
        array([[False, False,  True]])
        >>> Threshold(0.5).mask(values, order=np.array([2, 1, 0]))
        array([[ True,  True,  True]])
        """

    def select(self, ranked: Sequence[RankedCandidate]) -> List[RankedCandidate]:
        """Choose match candidates from a descending-ranked candidate list.

        The list is one row for :meth:`mask`, already in rank order.
        """
        if not ranked:
            return []
        values = np.array([[similarity for _, similarity in ranked]], dtype=float)
        kept = self.mask(values, np.arange(len(ranked)))[0]
        return [candidate for candidate, keep in zip(ranked, kept.tolist()) if keep]

    def __call__(self, ranked: Sequence[RankedCandidate]) -> List[RankedCandidate]:
        return self.select(ranked)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(str(self))  # equal values print equal names

    def combined_with(self, other: "SelectionStrategy") -> "CombinedSelection":
        """The selection keeping only candidates accepted by both strategies."""
        return CombinedSelection([self, other])

    def __add__(self, other: "SelectionStrategy") -> "CombinedSelection":
        return self.combined_with(other)


class MaxN(SelectionStrategy):
    """Select the ``n`` candidates with maximal similarity."""

    def __init__(self, n: int = 1):
        if n < 1:
            raise CombinationError(f"MaxN requires n >= 1, got {n}")
        self.n = int(n)
        self.name = f"MaxN({self.n})"

    def mask(self, values: np.ndarray, order: np.ndarray) -> np.ndarray:
        # The first n of a stable descending sort of the name-ordered
        # candidates: n times, the first maximum of what is left, so equal
        # values rank by name.
        ranked = values[:, order]
        rows = np.arange(len(values))
        kept = np.zeros(values.shape, dtype=bool)
        for _ in range(min(self.n, len(order))):
            best = ranked.argmax(axis=1)
            kept[rows, order[best]] = True
            ranked[rows, best] = -np.inf
        return kept & (values > 0.0)


class MaxDelta(SelectionStrategy):
    """Select the best candidate plus all candidates within a tolerance of it.

    The tolerance ``delta`` is interpreted relative to the best similarity when
    ``relative`` is true (the paper's evaluation uses relative deltas of
    0.01 - 0.1), otherwise as an absolute difference.
    """

    def __init__(self, delta: float = 0.02, relative: bool = True):
        if delta < 0:
            raise CombinationError(f"MaxDelta requires a non-negative delta, got {delta}")
        self.delta = float(delta)
        self.relative = bool(relative)
        kind = "rel" if self.relative else "abs"
        self.name = f"Delta({self.delta:g},{kind})"

    def mask(self, values: np.ndarray, order: np.ndarray) -> np.ndarray:
        best = values.max(axis=1, keepdims=True)
        tolerance = best * self.delta if self.relative else self.delta
        return (values > 0.0) & (values >= best - tolerance)


class Threshold(SelectionStrategy):
    """Select every candidate whose similarity is at least ``t``."""

    def __init__(self, threshold: float = 0.5):
        if not 0.0 < threshold <= 1.0:
            raise CombinationError(f"Threshold requires 0 < t <= 1, got {threshold}")
        self.threshold = float(threshold)
        self.name = f"Thr({self.threshold:g})"

    def mask(self, values: np.ndarray, order: np.ndarray) -> np.ndarray:
        return (values > 0.0) & (values >= self.threshold)


class CombinedSelection(SelectionStrategy):
    """Keep only candidates accepted by every constituent strategy.

    This realises the paper's combined criteria such as
    ``Threshold(0.5) + MaxN(1)`` and ``Threshold(0.5) + Delta(0.02)``.
    """

    def __init__(self, strategies: Sequence[SelectionStrategy]):
        flattened: List[SelectionStrategy] = []
        for strategy in strategies:
            if isinstance(strategy, CombinedSelection):
                flattened.extend(strategy.strategies)
            else:
                flattened.append(strategy)
        if len(flattened) < 2:
            raise CombinationError("CombinedSelection requires at least two strategies")
        self.strategies: Tuple[SelectionStrategy, ...] = tuple(flattened)
        self.name = "+".join(str(s) for s in self.strategies)

    def mask(self, values: np.ndarray, order: np.ndarray) -> np.ndarray:
        kept = self.strategies[0].mask(values, order)
        for strategy in self.strategies[1:]:
            kept &= strategy.mask(values, order)
        return kept


#: The paper's default selection: Threshold(0.5) combined with Delta(0.02).
def default_selection() -> SelectionStrategy:
    """The default selection strategy identified in Section 7.2."""
    return CombinedSelection([Threshold(0.5), MaxDelta(0.02)])
