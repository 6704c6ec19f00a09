"""Similarity matrices: the per-matcher result over two path sets.

Every matcher produces an ``m x n`` matrix of similarity values, with rows
indexed by the source (S1) paths and columns by the target (S2) paths.  The
matrix is numpy-backed, but exposes path-aware accessors so that the rest of
the system never has to juggle integer indices.  The path -> index dicts
behind those accessors are built on first use: the combination step works on
indices and name ranks only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.model.path import SchemaPath


def dense_name_ranks(paths: Sequence[SchemaPath]) -> np.ndarray:
    """Each path's rank among the distinct name tuples of ``paths``.

    >>> from repro.model.element import SchemaElement
    >>> root = SchemaElement("S")
    >>> paths = [SchemaPath([root, SchemaElement(name)]) for name in ("b", "a", "b")]
    >>> dense_name_ranks(paths).tolist()
    [1, 0, 1]
    """
    names = [path.names for path in paths]
    rank = {name: position for position, name in enumerate(sorted(set(names)))}
    return np.fromiter(map(rank.__getitem__, names), dtype=np.intp, count=len(names))


class SimilarityMatrix:
    """An ``m x n`` matrix of similarities between source and target paths."""

    def __init__(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        values: Optional[np.ndarray] = None,
    ):
        self._source_paths: Tuple[SchemaPath, ...] = tuple(source_paths)
        self._target_paths: Tuple[SchemaPath, ...] = tuple(target_paths)
        if not self._source_paths or not self._target_paths:
            raise CombinationError("a similarity matrix needs at least one path on each side")
        shape = (len(self._source_paths), len(self._target_paths))
        if values is None:
            self._values = np.zeros(shape, dtype=float)
        else:
            array = np.asarray(values, dtype=float)
            if array.shape != shape:
                raise CombinationError(
                    f"value array shape {array.shape} does not match path counts {shape}"
                )
            self._values = array.copy()
        self._index: Optional[Tuple[Dict[SchemaPath, int], Dict[SchemaPath, int]]] = None
        self._ranks: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def filled(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        fill_value: float,
    ) -> "SimilarityMatrix":
        """A matrix whose every cell holds ``fill_value``."""
        matrix = cls(source_paths, target_paths)
        matrix._values.fill(float(fill_value))
        return matrix

    @classmethod
    def from_unique(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        unique_values: np.ndarray,
        source_inverse: Sequence[int],
        target_inverse: Sequence[int],
    ) -> "SimilarityMatrix":
        """Scatter a matrix computed over *unique* cache keys to all path pairs.

        Batch matchers evaluate their similarity function only once per pair of
        distinct cache keys (e.g. distinct leaf names); ``unique_values`` holds
        that ``u x v`` result, and ``source_inverse`` / ``target_inverse`` map
        every path to the row / column of its key.  The full ``m x n`` matrix
        is materialised with one fancy-indexing gather, and values are clamped
        to ``[0, 1]`` exactly like the pairwise reference implementation.
        """
        unique = np.asarray(unique_values, dtype=float)
        rows = np.asarray(source_inverse, dtype=np.intp)
        columns = np.asarray(target_inverse, dtype=np.intp)
        if rows.shape != (len(source_paths),) or columns.shape != (len(target_paths),):
            raise CombinationError(
                "inverse index lengths do not match the path counts: "
                f"{rows.shape[0]} x {columns.shape[0]} vs {len(source_paths)} x {len(target_paths)}"
            )
        values = unique[np.ix_(rows, columns)]
        np.clip(values, 0.0, 1.0, out=values)
        return cls(source_paths, target_paths, values)

    def copy(self) -> "SimilarityMatrix":
        """An independent copy of this matrix."""
        return SimilarityMatrix(self._source_paths, self._target_paths, self._values)

    # -- axes --------------------------------------------------------------------

    @property
    def source_paths(self) -> Tuple[SchemaPath, ...]:
        """Row axis: the source (S1) paths."""
        return self._source_paths

    @property
    def target_paths(self) -> Tuple[SchemaPath, ...]:
        """Column axis: the target (S2) paths."""
        return self._target_paths

    @property
    def shape(self) -> Tuple[int, int]:
        """The ``(rows, columns)`` shape."""
        return self._values.shape  # type: ignore[return-value]

    @property
    def values(self) -> np.ndarray:
        """A read-only view of the underlying value array."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def name_ranks(self) -> Tuple[np.ndarray, np.ndarray]:
        """The :func:`dense_name_ranks` of the row and column paths.

        Computed on first use, unless :meth:`use_name_ranks` supplied them.
        """
        if self._ranks is None:
            self._ranks = (
                dense_name_ranks(self._source_paths), dense_name_ranks(self._target_paths)
            )
        return self._ranks

    def use_name_ranks(self, source_ranks: np.ndarray, target_ranks: np.ndarray) -> None:
        """Adopt precomputed :meth:`name_ranks`, e.g. a cached profile's."""
        self._ranks = (source_ranks, target_ranks)

    # -- element access ------------------------------------------------------------

    def _positions(self) -> Tuple[Dict[SchemaPath, int], Dict[SchemaPath, int]]:
        """The path -> index dicts of the row and column axes, built on first use."""
        if self._index is None:
            self._index = (
                {path: i for i, path in enumerate(self._source_paths)},
                {path: j for j, path in enumerate(self._target_paths)},
            )
        return self._index

    def get(self, source: SchemaPath, target: SchemaPath) -> float:
        """The similarity stored for ``(source, target)``."""
        rows, columns = self._positions()
        return float(self._values[rows[source], columns[target]])

    def set(self, source: SchemaPath, target: SchemaPath, similarity: float) -> None:
        """Store a similarity for ``(source, target)`` (must be within [0, 1])."""
        if not 0.0 <= similarity <= 1.0:
            raise CombinationError(
                f"similarity must be within [0, 1], got {similarity!r} for {source} / {target}"
            )
        rows, columns = self._positions()
        self._values[rows[source], columns[target]] = float(similarity)

    # -- bulk operations ----------------------------------------------------------------

    def ranked_targets(self, source: SchemaPath) -> List[Tuple[SchemaPath, float]]:
        """Targets ranked by descending similarity to ``source`` (ties: path order)."""
        row = self._values[self._positions()[0][source], :]
        order = sorted(
            range(len(self._target_paths)), key=lambda j: (-row[j], self._target_paths[j].names)
        )
        return [(self._target_paths[j], float(row[j])) for j in order]

    def ranked_sources(self, target: SchemaPath) -> List[Tuple[SchemaPath, float]]:
        """Sources ranked by descending similarity to ``target`` (ties: path order)."""
        column = self._values[:, self._positions()[1][target]]
        order = sorted(
            range(len(self._source_paths)),
            key=lambda i: (-column[i], self._source_paths[i].names),
        )
        return [(self._source_paths[i], float(column[i])) for i in order]

    def nonzero_pairs(self) -> List[Tuple[SchemaPath, SchemaPath, float]]:
        """All cells with a strictly positive similarity as triples."""
        rows, cols = np.nonzero(self._values > 0.0)
        return [
            (self._source_paths[i], self._target_paths[j], float(self._values[i, j]))
            for i, j in zip(rows.tolist(), cols.tolist())
        ]

    # -- dunder protocol ----------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityMatrix(shape={self.shape})"
