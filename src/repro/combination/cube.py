"""The similarity cube: one ``k x m x n`` stack of per-matcher similarities.

The result of the matcher execution phase with ``k`` matchers, ``m`` S1
elements and ``n`` S2 elements is a ``k x m x n`` cube of similarity values
(Section 3), which is kept (in the session's cache and the
:class:`~repro.repository.store.SimilarityStore`) for the later combination
and selection steps.  The cube is that stack and nothing more: one read-only,
C-contiguous ``float64`` array, the matcher names along its first axis (so
aggregation strategies such as ``Weighted`` can address individual layers)
and the two path axes.  The engine, the session's cache, the store, the
process codec and aggregation all pass the array through as it is, and a
cached cube cannot be changed through any of them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.matrix import SimilarityMatrix
from repro.model.path import SchemaPath


class SimilarityCube:
    """A read-only ``k x m x n`` stack of similarities, one layer per matcher.

    The cube takes ``values`` over as its own state: a C-contiguous
    ``float64`` array is kept as it is (and marked read-only), anything else
    is converted once.  Callers hand over an array they no longer write.

    Examples
    --------
    >>> from repro.datasets.figure1 import load_po1, load_po2
    >>> a, b = load_po1().paths(), load_po2().paths()
    >>> cube = SimilarityCube(a, b, ("Name",), np.zeros((1, len(a), len(b))))
    >>> cube.as_array() is cube.as_array(), cube.as_array().flags.writeable
    (True, False)
    """

    def __init__(
        self,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        matcher_names: Sequence[str],
        values: np.ndarray,
    ):
        self._source_paths: Tuple[SchemaPath, ...] = tuple(source_paths)
        self._target_paths: Tuple[SchemaPath, ...] = tuple(target_paths)
        if not self._source_paths or not self._target_paths:
            raise CombinationError("a similarity cube needs at least one path on each side")
        self._matcher_names: Tuple[str, ...] = tuple(matcher_names)
        if len(set(self._matcher_names)) != len(self._matcher_names):
            raise CombinationError(
                f"duplicate matcher names in a similarity cube: {list(self._matcher_names)}"
            )
        stack = np.ascontiguousarray(values, dtype=np.float64)
        if stack.shape != self.shape:
            raise CombinationError(
                f"value stack shape {stack.shape} does not match the cube shape {self.shape}"
            )
        stack.flags.writeable = False
        self._values = stack

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
        """The matcher names in layer order (the first axis)."""
        return self._matcher_names

    @property
    def shape(self) -> Tuple[int, int, int]:
        """The ``(k, m, n)`` cube shape."""
        return (len(self._matcher_names), len(self._source_paths), len(self._target_paths))

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_layers(
        cls,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        layers: Iterable[Tuple[str, SimilarityMatrix]],
    ) -> "SimilarityCube":
        """Stack pre-computed ``(matcher name, matrix)`` pairs into one cube.

        This is the constructor of the batch match engine, which computes
        all layers first and stacks them in one copy.  Every matrix must be
        defined over exactly the cube's path axes.
        """
        source_paths, target_paths = tuple(source_paths), tuple(target_paths)
        names, arrays = [], []
        for matcher_name, matrix in layers:
            if matrix.source_paths != source_paths or matrix.target_paths != target_paths:
                raise CombinationError(
                    f"matrix axes of matcher {matcher_name!r} do not match the cube axes"
                )
            names.append(matcher_name)
            arrays.append(matrix.values)
        if arrays:
            stack = np.stack(arrays)
        else:
            stack = np.empty((0, len(source_paths), len(target_paths)))
        return cls(source_paths, target_paths, names, stack)

    # -- layers ----------------------------------------------------------------

    def layer(self, matcher_name: str) -> SimilarityMatrix:
        """A copy of one matcher's layer as a matrix."""
        try:
            index = self._matcher_names.index(matcher_name)
        except ValueError:
            raise CombinationError(f"no layer for matcher {matcher_name!r} in this cube") from None
        return SimilarityMatrix(self._source_paths, self._target_paths, self._values[index])

    def layers(self) -> Iterator[Tuple[str, SimilarityMatrix]]:
        """Iterate over ``(matcher name, matrix copy)`` pairs in layer order."""
        for name, values in zip(self._matcher_names, self._values):
            yield name, SimilarityMatrix(self._source_paths, self._target_paths, values)

    def as_array(self) -> np.ndarray:
        """The cube's own read-only ``k x m x n`` array (no copy)."""
        return self._values

    # -- dunder protocol --------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._matcher_names)

    def __contains__(self, matcher_name: object) -> bool:
        return matcher_name in self._matcher_names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityCube(matchers={list(self._matcher_names)}, shape={self.shape})"
