"""Match results (mappings) between two schemas.

The result of the match operation is a set of *mapping elements*: pairs of
schema paths together with a similarity value in ``[0, 1]`` indicating the
plausibility of their correspondence (Section 3 of the paper).  This module
provides:

* :class:`Correspondence` -- one mapping element,
* :class:`MatchResult` -- the full mapping between two schemas, with set-style
  operations, filtering, inversion and the relational view used by
  ``MatchCompose`` (Figure 3c).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple
)

import numpy as np

from repro.exceptions import SchemaError
from repro.model.path import SchemaPath
from repro.model.schema import Schema


@dataclasses.dataclass(frozen=True)
class Correspondence:
    """A single mapping element: two paths and the plausibility of their match."""

    source: SchemaPath
    target: SchemaPath
    similarity: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.similarity <= 1.0:
            raise ValueError(
                f"similarity must be within [0, 1], got {self.similarity!r} "
                f"for {self.source} <-> {self.target}"
            )

    @property
    def pair(self) -> Tuple[SchemaPath, SchemaPath]:
        """The ``(source, target)`` path pair, without the similarity."""
        return (self.source, self.target)

    def inverted(self) -> "Correspondence":
        """The same correspondence read in the opposite direction."""
        return Correspondence(self.target, self.source, self.similarity)

    def __str__(self) -> str:
        return f"{self.source} <-> {self.target} ({self.similarity:.2f})"


class _Cells(NamedTuple):
    """A mapping's kept matrix cells: indexes into two path axes, and similarities."""

    source_paths: Sequence[SchemaPath]
    target_paths: Sequence[SchemaPath]
    rows: List[int]
    columns: List[int]
    similarities: List[float]


#: Serialises the one switch of a cell-built mapping to its pair dict.
_TO_PAIRS = threading.Lock()


def _dotted(paths: Sequence[SchemaPath], schema: Schema) -> Sequence[str]:
    """The dotted forms of an axis; the schema's cached ones when it is ``schema.paths()``."""
    if paths is schema.paths():
        return schema.dotted_paths()
    return [path.dotted() for path in paths]


class MatchResult:
    """A mapping between a source and a target schema.

    The mapping stores at most one similarity per ``(source path, target path)``
    pair; adding the same pair again keeps the maximum similarity (a pair that
    several strategies propose is at least as plausible as either proposal).

    A mapping built by :meth:`from_cells` holds only its cells until a caller
    looks a pair up or changes the mapping; reading it in order
    (:attr:`correspondences`, :meth:`as_tuples`, ``len``) builds no pair dict.
    """

    def __init__(
        self,
        source_schema: Schema,
        target_schema: Schema,
        correspondences: Optional[Iterable[Correspondence]] = None,
        name: Optional[str] = None,
    ):
        self._source_schema = source_schema
        self._target_schema = target_schema
        self._name = name or f"{source_schema.name}<->{target_schema.name}"
        self._by_pair: Dict[Tuple[SchemaPath, SchemaPath], Correspondence] = {}
        self._sorted: Optional[Tuple[Correspondence, ...]] = None
        self._cells: Optional[_Cells] = None
        for correspondence in correspondences or ():
            self.add(correspondence)

    @classmethod
    def from_cells(
        cls,
        source_schema: Schema,
        target_schema: Schema,
        source_paths: Sequence[SchemaPath],
        target_paths: Sequence[SchemaPath],
        rows: Sequence[int],
        columns: Sequence[int],
        similarities: Sequence[float],
        name: Optional[str] = None,
    ) -> "MatchResult":
        """A mapping over matrix cells, as a selection kernel keeps them.

        ``rows`` / ``columns`` index ``source_paths`` / ``target_paths``.  The
        cells must be distinct and ordered by source names, then target names:
        that order is the mapping's :attr:`correspondences` order.

        Raises
        ------
        ValueError
            If a similarity lies outside ``[0, 1]`` (as :class:`Correspondence`).
        """
        values = np.asarray(similarities, dtype=float)
        outside = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if len(outside):
            first = outside[0]
            Correspondence(  # raises the ValueError naming the pair
                source_paths[rows[first]], target_paths[columns[first]], float(values[first])
            )
        result = cls(source_schema, target_schema, name=name)
        result._cells = _Cells(
            source_paths, target_paths, np.asarray(rows).tolist(),
            np.asarray(columns).tolist(), values.tolist(),
        )
        return result

    def cells(self) -> Optional[Tuple[List[int], List[int], List[float]]]:
        """``(rows, columns, similarities)`` of a mapping built by :meth:`from_cells`.

        ``None`` once a pair lookup or a change has replaced the cells.
        """
        cells = self._cells
        return None if cells is None else (cells.rows, cells.columns, cells.similarities)

    def _pairs(self) -> Dict[Tuple[SchemaPath, SchemaPath], Correspondence]:
        """The pair dict.  A cell-built mapping builds it here, once, then drops its cells.

        The dict is complete before another thread can see it.
        """
        if self._cells is not None:
            with _TO_PAIRS:
                if self._cells is not None:
                    self._by_pair = {c.pair: c for c in self.correspondences}
                    self._cells = None
        return self._by_pair

    # -- identity -----------------------------------------------------------

    @property
    def source_schema(self) -> Schema:
        """The mapping's source (S1) schema."""
        return self._source_schema

    @property
    def target_schema(self) -> Schema:
        """The mapping's target (S2) schema."""
        return self._target_schema

    @property
    def name(self) -> str:
        """Human-readable mapping name (defaults to ``S1<->S2``)."""
        return self._name

    @property
    def schema_pair(self) -> Tuple[str, str]:
        """The ``(source name, target name)`` pair identifying the match task."""
        return (self._source_schema.name, self._target_schema.name)

    # -- mutation -------------------------------------------------------------

    def add(self, correspondence: Correspondence) -> None:
        """Add a correspondence, keeping the higher similarity on duplicates."""
        by_pair = self._pairs()
        key = correspondence.pair
        existing = by_pair.get(key)
        if existing is None or correspondence.similarity > existing.similarity:
            by_pair[key] = correspondence
            self._sorted = None

    def add_pair(self, source: SchemaPath, target: SchemaPath, similarity: float = 1.0) -> None:
        """Convenience wrapper building and adding a :class:`Correspondence`."""
        self.add(Correspondence(source, target, similarity))

    def remove_pair(self, source: SchemaPath, target: SchemaPath) -> bool:
        """Remove the correspondence for ``(source, target)``; returns True if present."""
        if self._pairs().pop((source, target), None) is None:
            return False
        self._sorted = None
        return True

    # -- access ----------------------------------------------------------------

    @property
    def correspondences(self) -> Tuple[Correspondence, ...]:
        """All correspondences, ordered by (source path, target path) names.

        Equal name pairs keep the order they were added in.  The sorted tuple
        is kept until the next change.  Cells are in this order already.
        """
        if self._sorted is None:
            cells = self._cells
            if cells is not None:
                sources, targets = cells.source_paths, cells.target_paths
                self._sorted = tuple(
                    Correspondence(sources[i], targets[j], similarity)
                    for i, j, similarity in zip(cells.rows, cells.columns, cells.similarities)
                )
            else:
                self._sorted = tuple(sorted(
                    self._by_pair.values(), key=lambda c: (c.source.names, c.target.names)
                ))
        return self._sorted

    def pairs(self) -> Tuple[Tuple[SchemaPath, SchemaPath], ...]:
        """The set of matched ``(source, target)`` path pairs, sorted."""
        return tuple(c.pair for c in self.correspondences)

    def similarity_of(self, source: SchemaPath, target: SchemaPath) -> Optional[float]:
        """The stored similarity of a pair, or ``None`` if the pair is not matched."""
        correspondence = self._pairs().get((source, target))
        return correspondence.similarity if correspondence else None

    def candidates_for_source(self, source: SchemaPath) -> Tuple[Correspondence, ...]:
        """All correspondences originating at ``source``, best first."""
        found = [c for c in self._pairs().values() if c.source == source]
        return tuple(sorted(found, key=lambda c: -c.similarity))

    def candidates_for_target(self, target: SchemaPath) -> Tuple[Correspondence, ...]:
        """All correspondences ending at ``target``, best first."""
        found = [c for c in self._pairs().values() if c.target == target]
        return tuple(sorted(found, key=lambda c: -c.similarity))

    def matched_sources(self) -> Tuple[SchemaPath, ...]:
        """Distinct source paths that received at least one match candidate."""
        return tuple(sorted({c.source for c in self._pairs().values()}, key=lambda p: p.names))

    def matched_targets(self) -> Tuple[SchemaPath, ...]:
        """Distinct target paths that received at least one match candidate."""
        return tuple(sorted({c.target for c in self._pairs().values()}, key=lambda p: p.names))

    # -- transformations ----------------------------------------------------------

    def inverted(self) -> "MatchResult":
        """The mapping read in the opposite direction (S2 -> S1)."""
        return MatchResult(
            self._target_schema,
            self._source_schema,
            (c.inverted() for c in self._pairs().values()),
            name=f"{self._target_schema.name}<->{self._source_schema.name}",
        )

    def filter(self, predicate: Callable[[Correspondence], bool]) -> "MatchResult":
        """A new mapping containing only correspondences satisfying ``predicate``."""
        return MatchResult(
            self._source_schema,
            self._target_schema,
            (c for c in self._pairs().values() if predicate(c)),
            name=self._name,
        )

    def above_threshold(self, threshold: float) -> "MatchResult":
        """A new mapping keeping only correspondences with similarity >= threshold."""
        return self.filter(lambda c: c.similarity >= threshold)

    def with_uniform_similarity(self, similarity: float = 1.0) -> "MatchResult":
        """A copy with every similarity replaced by ``similarity``.

        Mirrors the paper's treatment of manually derived mappings, whose
        element similarities are uniformly set to 1.0 (Section 7.1).
        """
        return MatchResult(
            self._source_schema,
            self._target_schema,
            (Correspondence(c.source, c.target, similarity) for c in self._pairs().values()),
            name=self._name,
        )

    def merged_with(self, other: "MatchResult") -> "MatchResult":
        """Union of two mappings over the same schema pair (max similarity on overlap)."""
        if other.schema_pair != self.schema_pair:
            raise SchemaError(
                f"cannot merge mapping over {other.schema_pair} into mapping over {self.schema_pair}"
            )
        merged = MatchResult(self._source_schema, self._target_schema, self._pairs().values(),
                             name=self._name)
        for correspondence in other.correspondences:
            merged.add(correspondence)
        return merged

    # -- relational view (Figure 3c) -------------------------------------------------

    def as_tuples(self) -> List[Tuple[str, str, float]]:
        """The mapping as ``(source dotted path, target dotted path, sim)`` tuples."""
        cells = self._cells
        if cells is None:
            return [
                (c.source.dotted(), c.target.dotted(), c.similarity)
                for c in self.correspondences
            ]
        sources = _dotted(cells.source_paths, self._source_schema)
        targets = _dotted(cells.target_paths, self._target_schema)
        return [
            (sources[i], targets[j], similarity)
            for i, j, similarity in zip(cells.rows, cells.columns, cells.similarities)
        ]

    @classmethod
    def from_tuples(
        cls,
        source_schema: Schema,
        target_schema: Schema,
        rows: Sequence[Tuple[str, str, float]] | Sequence[Tuple[str, str]],
        name: Optional[str] = None,
    ) -> "MatchResult":
        """Build a mapping from dotted-path tuples (the inverse of :meth:`as_tuples`)."""
        result = cls(source_schema, target_schema, name=name)
        for row in rows:
            source_dotted, target_dotted = row[0], row[1]
            similarity = float(row[2]) if len(row) > 2 else 1.0
            result.add_pair(
                source_schema.find_path(source_dotted),
                target_schema.find_path(target_dotted),
                similarity,
            )
        return result

    # -- comparison with a reference mapping -------------------------------------------

    def pair_set(self) -> frozenset:
        """The set of matched pairs keyed by dotted path strings (for evaluation)."""
        return frozenset((c.source.dotted(), c.target.dotted()) for c in self._pairs().values())

    # -- dunder protocol ---------------------------------------------------------------

    def __len__(self) -> int:
        cells = self._cells
        return len(self._by_pair) if cells is None else len(cells.rows)

    def __iter__(self) -> Iterator[Correspondence]:
        return iter(self.correspondences)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Correspondence):
            return item.pair in self._pairs()
        if isinstance(item, tuple) and len(item) == 2:
            first, second = item
            if isinstance(first, SchemaPath) and isinstance(second, SchemaPath):
                return (first, second) in self._pairs()
            if isinstance(first, str) and isinstance(second, str):
                return (first, second) in {
                    (c.source.dotted(), c.target.dotted()) for c in self._pairs().values()
                }
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult({self._name!r}, correspondences={len(self)})"
