"""The similarity cube: stacked per-matcher similarity matrices.

The result of the matcher execution phase with ``k`` matchers, ``m`` S1
elements and ``n`` S2 elements is a ``k x m x n`` cube of similarity values
(Section 3), which is kept (in the session's cache and the
:class:`~repro.repository.store.SimilarityStore`) for the later combination
and selection steps.  The cube keeps the matcher names so aggregation strategies
such as ``Weighted`` can address individual layers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.matrix import SimilarityMatrix
from repro.model.path import SchemaPath


class SimilarityCube:
    """A ``k x m x n`` stack of similarity matrices, one layer per matcher."""

    def __init__(self, source_paths: Sequence[SchemaPath], target_paths: Sequence[SchemaPath]):
        self._source_paths: Tuple[SchemaPath, ...] = tuple(source_paths)
        self._target_paths: Tuple[SchemaPath, ...] = tuple(target_paths)
        if not self._source_paths or not self._target_paths:
            raise CombinationError("a similarity cube needs at least one path on each side")
        self._layers: Dict[str, SimilarityMatrix] = {}
        self._order: List[str] = []

    # -- axes ------------------------------------------------------------------

    @property
    def source_paths(self) -> Tuple[SchemaPath, ...]:
        """The source (S1) path axis shared by all layers."""
        return self._source_paths

    @property
    def target_paths(self) -> Tuple[SchemaPath, ...]:
        """The target (S2) path axis shared by all layers."""
        return self._target_paths

    @property
    def matcher_names(self) -> Tuple[str, ...]:
        """The matcher names in insertion order (the layer axis)."""
        return tuple(self._order)

    @property
    def shape(self) -> Tuple[int, int, int]:
        """The ``(k, m, n)`` cube shape."""
        return (len(self._order), len(self._source_paths), len(self._target_paths))

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_layers(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        layers: Iterable[Tuple[str, SimilarityMatrix]],
    ) -> "SimilarityCube":
        """Build a cube from pre-computed ``(matcher name, matrix)`` pairs.

        This is the bulk constructor used by the batch match engine, which
        computes all layers first (possibly concurrently) and stacks them in
        one step.
        """
        cube = cls(source_paths, target_paths)
        for matcher_name, matrix in layers:
            cube.add_layer(matcher_name, matrix)
        return cube

    # -- layer management ----------------------------------------------------------

    def add_layer(self, matcher_name: str, matrix: SimilarityMatrix) -> None:
        """Add (or replace) the matrix produced by ``matcher_name``.

        The matrix must be defined over exactly the cube's path axes.
        """
        if matrix.source_paths != self._source_paths or matrix.target_paths != self._target_paths:
            raise CombinationError(
                f"matrix axes of matcher {matcher_name!r} do not match the cube axes"
            )
        if matcher_name not in self._layers:
            self._order.append(matcher_name)
        self._layers[matcher_name] = matrix

    def layer(self, matcher_name: str) -> SimilarityMatrix:
        """The matrix of one matcher."""
        try:
            return self._layers[matcher_name]
        except KeyError:
            raise CombinationError(f"no layer for matcher {matcher_name!r} in this cube") from None

    def has_layer(self, matcher_name: str) -> bool:
        """True if the cube contains a layer for ``matcher_name``."""
        return matcher_name in self._layers

    def layers(self) -> Iterator[Tuple[str, SimilarityMatrix]]:
        """Iterate over ``(matcher name, matrix)`` pairs in insertion order."""
        for name in self._order:
            yield name, self._layers[name]

    # -- numeric views ------------------------------------------------------------------

    def as_array(self) -> np.ndarray:
        """The full cube as a ``k x m x n`` numpy array (copy)."""
        if not self._order:
            raise CombinationError("cannot materialise an empty similarity cube")
        return np.stack([self._layers[name].values for name in self._order], axis=0)

    def cell(self, source: SchemaPath, target: SchemaPath) -> Dict[str, float]:
        """All matcher-specific similarities for one ``(source, target)`` pair."""
        return {name: self._layers[name].get(source, target) for name in self._order}

    def sub_cube(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
    ) -> "SimilarityCube":
        """A cube restricted to subsets of the path axes (layers are re-sliced)."""
        sub = SimilarityCube(source_paths, target_paths)
        for name, matrix in self.layers():
            restricted = SimilarityMatrix(source_paths, target_paths)
            for source in source_paths:
                for target in target_paths:
                    restricted.set(source, target, matrix.get(source, target))
            sub.add_layer(name, restricted)
        return sub

    # -- dunder protocol --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, matcher_name: object) -> bool:
        return isinstance(matcher_name, str) and matcher_name in self._layers

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityCube(matchers={self._order}, shape={self.shape})"
