"""Aggregation of matcher-specific results (Section 6.1).

The first combination step aggregates, for every pair of schema elements, the
similarity values computed by multiple matchers into one combined value.  The
paper supports four strategies:

* ``Max`` -- optimistic: the maximum similarity of any matcher,
* ``Weighted`` -- a weighted sum with user-supplied relative weights,
* ``Average`` -- the special case of ``Weighted`` with equal weights,
* ``Min`` -- pessimistic: the lowest similarity of any matcher.

Each strategy turns a :class:`~repro.combination.cube.SimilarityCube` into a
single :class:`~repro.combination.matrix.SimilarityMatrix`.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix


class AggregationStrategy(abc.ABC):
    """Base class for cube -> matrix aggregation strategies."""

    #: Short name used in reports and the evaluation grid.
    name: str = "aggregation"

    @abc.abstractmethod
    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        """Collapse the matcher axis of ``cube`` into one similarity matrix."""

    def __call__(self, cube: SimilarityCube) -> SimilarityMatrix:
        return self.aggregate(cube)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self) -> int:
        return hash(str(self))  # equal values print equal names


def _require_layers(cube: SimilarityCube) -> np.ndarray:
    if len(cube) == 0:
        raise CombinationError("cannot aggregate an empty similarity cube")
    return cube.as_array()


class MaxAggregation(AggregationStrategy):
    """Optimistic aggregation: the maximum similarity of any matcher."""

    name = "Max"

    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        array = _require_layers(cube)
        return SimilarityMatrix(cube.source_paths, cube.target_paths, array.max(axis=0))


class MinAggregation(AggregationStrategy):
    """Pessimistic aggregation: the minimum similarity of any matcher."""

    name = "Min"

    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        array = _require_layers(cube)
        return SimilarityMatrix(cube.source_paths, cube.target_paths, array.min(axis=0))


class AverageAggregation(AggregationStrategy):
    """Average aggregation: all matchers are considered equally important."""

    name = "Average"

    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        array = _require_layers(cube)
        return SimilarityMatrix(cube.source_paths, cube.target_paths, array.mean(axis=0))


class WeightedAggregation(AggregationStrategy):
    """Weighted sum of matcher-specific similarities.

    Weights are given per matcher name; they are normalised to sum to one so
    the aggregated values stay within ``[0, 1]``.  Matchers present in the cube
    but absent from the weight mapping receive weight zero, and a ``default``
    weight may be supplied for the positional case (weights given as a
    sequence aligned to the cube's matcher order).
    """

    name = "Weighted"

    def __init__(
        self,
        weights: Mapping[str, float] | Sequence[float],
        *,
        label: Optional[str] = None,
    ):
        if isinstance(weights, Mapping):
            self._named_weights: Optional[Dict[str, float]] = {
                str(k): float(v) for k, v in weights.items()
            }
            self._positional_weights: Optional[tuple[float, ...]] = None
        else:
            self._named_weights = None
            self._positional_weights = tuple(float(w) for w in weights)
        if label:
            self.name = label
        self._validate()

    def _validate(self) -> None:
        values = (
            list(self._named_weights.values())
            if self._named_weights is not None
            else list(self._positional_weights or ())
        )
        if not values:
            raise CombinationError("Weighted aggregation requires at least one weight")
        if any(w < 0 for w in values):
            raise CombinationError("Weighted aggregation weights must be non-negative")
        if sum(values) <= 0:
            raise CombinationError("Weighted aggregation weights must not all be zero")

    def weight_vector(self, cube: SimilarityCube) -> np.ndarray:
        """The normalised weight per cube layer, in layer order."""
        names = cube.matcher_names
        if self._named_weights is not None:
            raw = np.array([self._named_weights.get(name, 0.0) for name in names], dtype=float)
        else:
            positional = self._positional_weights or ()
            if len(positional) != len(names):
                raise CombinationError(
                    f"got {len(positional)} positional weights for {len(names)} matchers"
                )
            raw = np.array(positional, dtype=float)
        total = raw.sum()
        if total <= 0:
            raise CombinationError(
                "Weighted aggregation weights assign zero total weight to the cube's matchers"
            )
        return raw / total

    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        array = _require_layers(cube)
        weights = self.weight_vector(cube)
        combined = np.tensordot(weights, array, axes=(0, 0))
        # numerical noise can push values marginally outside [0, 1]
        combined = np.clip(combined, 0.0, 1.0)
        return SimilarityMatrix(cube.source_paths, cube.target_paths, combined)


#: Canonical instances for the strategies without parameters.
MAX = MaxAggregation()
MIN = MinAggregation()
AVERAGE = AverageAggregation()

_BY_NAME = {
    "max": MAX,
    "min": MIN,
    "average": AVERAGE,
    "avg": AVERAGE,
}


def aggregation_by_name(name: str) -> AggregationStrategy:
    """Resolve a parameter-free aggregation strategy from its name."""
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise CombinationError(
            f"unknown aggregation strategy {name!r}; expected one of {sorted(set(_BY_NAME))}"
        ) from None
