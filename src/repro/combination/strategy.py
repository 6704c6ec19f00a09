"""The full combination pipeline (Figure 6): aggregation -> direction/selection -> combined sim.

A :class:`CombinationStrategy` bundles the tuple of sub-strategies the paper
uses to describe combinations, e.g. ``(Max, Both, Max1, Average)``:

1. an :class:`~repro.combination.aggregation.AggregationStrategy` collapsing
   the matcher axis of the similarity cube,
2. a :class:`~repro.combination.direction.DirectionStrategy` together with a
   :class:`~repro.combination.selection.SelectionStrategy` choosing the match
   candidates from the aggregated matrix,
3. optionally a
   :class:`~repro.combination.combined.CombinedSimilarityStrategy` collapsing
   the selected pairs into one similarity value (required inside hybrid
   matchers, optional — the "schema similarity" — for complete match results).

The same pipeline is used for combining independent matchers at the end of a
match iteration and, inside hybrid matchers, for combining component (token /
child / leaf) similarities.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional

from repro.combination.aggregation import AVERAGE, AggregationStrategy, aggregation_by_name
from repro.combination.combined import (
    AVERAGE_COMBINED,
    CombinedSimilarityStrategy,
    combined_similarity_by_name,
)
from repro.combination.cube import SimilarityCube
from repro.combination.direction import BOTH, DirectionStrategy, SelectedCells, direction_by_name
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import (
    CombinedSelection,
    MaxDelta,
    MaxN,
    SelectionStrategy,
    Threshold,
    default_selection,
)
from repro.exceptions import StrategyError


@dataclasses.dataclass(frozen=True)
class CombinationStrategy:
    """The 4-tuple of sub-strategies controlling how similarities are combined."""

    aggregation: AggregationStrategy = AVERAGE
    direction: DirectionStrategy = BOTH
    selection: SelectionStrategy = dataclasses.field(default_factory=default_selection)
    combined_similarity: CombinedSimilarityStrategy = AVERAGE_COMBINED

    # -- pipeline steps --------------------------------------------------------

    def aggregate(self, cube: SimilarityCube) -> SimilarityMatrix:
        """Step 1: collapse the matcher axis of the cube."""
        return self.aggregation.aggregate(cube)

    def select(self, matrix: SimilarityMatrix) -> SelectedCells:
        """Step 2: choose match candidates from the aggregated matrix, as its cells."""
        rows, columns = self.direction.select_cells(matrix, self.selection)
        return SelectedCells(rows, columns, matrix.values[rows, columns])

    def combine_pairs(
        self, selected: SelectedCells, source_size: int, target_size: int
    ) -> float:
        """Step 3: collapse the selected cells into one combined similarity value."""
        return self.combined_similarity.combine_cells(selected, source_size, target_size)

    # -- naming / parsing ----------------------------------------------------------

    def describe(self) -> str:
        """The paper-style tuple notation, e.g. ``(Average, Both, Thr(0.5)+Delta(0.02), Average)``."""
        return (
            f"({self.aggregation}, {self.direction}, {self.selection}, "
            f"{self.combined_similarity})"
        )

    def to_spec(self) -> str:
        """The compact spec form, e.g. ``"Average,Both,Thr(0.5)+Delta(0.02),Average"``.

        The spec round-trips through :func:`combination_from_spec` (and embeds
        into the full strategy grammar of :meth:`repro.core.strategy.MatchStrategy.to_spec`)
        for the named aggregation / direction / selection / combined-similarity
        strategies; a :class:`~repro.combination.aggregation.WeightedAggregation`
        carries weights the textual form cannot express and does not round-trip.
        """
        return (
            f"{self.aggregation},{self.direction},{self.selection},"
            f"{self.combined_similarity}"
        )

    @classmethod
    def parse(cls, spec: str) -> "CombinationStrategy":
        """Parse a spec produced by :meth:`to_spec` (see :func:`combination_from_spec`)."""
        return combination_from_spec(spec)

    def replaced(
        self,
        aggregation: Optional[AggregationStrategy] = None,
        direction: Optional[DirectionStrategy] = None,
        selection: Optional[SelectionStrategy] = None,
        combined_similarity: Optional[CombinedSimilarityStrategy] = None,
    ) -> "CombinationStrategy":
        """A copy with some sub-strategies replaced."""
        return CombinationStrategy(
            aggregation=aggregation or self.aggregation,
            direction=direction or self.direction,
            selection=selection or self.selection,
            combined_similarity=combined_similarity or self.combined_similarity,
        )

    def __str__(self) -> str:
        return self.describe()


def default_combination() -> CombinationStrategy:
    """The paper's default: ``(Average, Both, Threshold(0.5)+Delta(0.02), Average)``.

    Section 7.2 identifies this combination as the most effective default for
    no-reuse matchers and adopts it for the remaining experiments.
    """
    return CombinationStrategy(
        aggregation=AVERAGE,
        direction=BOTH,
        selection=CombinedSelection([Threshold(0.5), MaxDelta(0.02)]),
        combined_similarity=AVERAGE_COMBINED,
    )


#: One selection term: a strategy name, optionally followed by a parenthesised
#: argument list, e.g. ``MaxN(2)``, ``Delta(0.02,rel)``, ``Thr(0.5)``.
_SELECTION_TERM = re.compile(r"^([A-Za-z]+\d*)\s*(?:\(\s*([^()]*?)\s*\))?$")


def _parse_selection_term(part: str, spec: str) -> SelectionStrategy:
    term = _SELECTION_TERM.match(part)
    if term is None:
        raise StrategyError(f"malformed selection term {part!r} in {spec!r}")
    name, raw_arguments = term.group(1), term.group(2)
    arguments = [a.strip() for a in (raw_arguments or "").split(",") if a.strip()]
    lowered = name.lower()
    # Paper-style names fold the count into the name: Max1, Max2, MaxN3.
    trailing = re.match(r"^(maxn?)(\d+)$", lowered)
    if trailing and not arguments:
        lowered, arguments = trailing.group(1), [trailing.group(2)]
    try:
        if lowered in ("maxn", "max"):
            return MaxN(int(arguments[0]) if arguments else 1)
        if lowered in ("delta", "maxdelta"):
            delta = float(arguments[0]) if arguments else 0.02
            relative = True
            if len(arguments) > 1:
                mode = arguments[1].lower()
                if mode not in ("rel", "abs"):
                    raise StrategyError(
                        f"Delta mode must be 'rel' or 'abs', got {arguments[1]!r} in {spec!r}"
                    )
                relative = mode == "rel"
            return MaxDelta(delta, relative=relative)
        if lowered in ("thr", "threshold"):
            return Threshold(float(arguments[0]) if arguments else 0.5)
    except ValueError as error:
        raise StrategyError(f"invalid argument in selection {part!r}: {error}") from error
    raise StrategyError(f"unknown selection strategy {part!r} in {spec!r}")


def parse_selection(spec: str) -> SelectionStrategy:
    """Parse a selection specification such as ``"Thr(0.5)+Delta(0.02)"`` or ``"MaxN(2)"``.

    The accepted grammar mirrors the names used in the paper's Table 6:
    ``MaxN(n)`` (also ``Max1`` .. ``Max4``), ``Delta(d)`` / ``Delta(d,rel)`` /
    ``Delta(d,abs)``, ``Thr(t)`` and ``+``-separated combinations.  The ``str``
    form of every selection strategy parses back to an equal strategy.
    """
    parts = [part.strip() for part in spec.split("+") if part.strip()]
    if not parts:
        raise StrategyError(f"empty selection specification: {spec!r}")
    strategies: List[SelectionStrategy] = [
        _parse_selection_term(part, spec) for part in parts
    ]
    if len(strategies) == 1:
        return strategies[0]
    return CombinedSelection(strategies)


def split_top_level(text: str, separator: str = ",") -> List[str]:
    """Split ``text`` on ``separator`` occurrences outside any parentheses.

    The building block of the spec grammar: commas inside ``Delta(0.02,rel)``
    must not split the combination 4-tuple they appear in.
    """
    parts: List[str] = []
    current: List[str] = []
    depth = 0
    for character in text:
        if character == "(":
            depth += 1
        elif character == ")":
            depth -= 1
            if depth < 0:
                raise StrategyError(f"unbalanced parentheses in {text!r}")
        if character == separator and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(character)
    if depth != 0:
        raise StrategyError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    return [part.strip() for part in parts]


def _strip_outer_parentheses(text: str) -> str:
    """Remove one pair of outer parentheses if they enclose the whole text."""
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for index, character in enumerate(text):
        if character == "(":
            depth += 1
        elif character == ")":
            depth -= 1
            if depth == 0 and index < len(text) - 1:
                return text  # the first "(" closes early: not an outer pair
    return text[1:-1].strip()


def combination_from_spec(spec: str) -> CombinationStrategy:
    """Parse a full combination spec, e.g. ``"Average,Both,Thr(0.5)+Delta(0.02),Average"``.

    The spec lists aggregation, direction, selection and (optionally, default
    ``Average``) combined similarity, separated by top-level commas; the
    paper-style parenthesised tuple notation of :meth:`CombinationStrategy.describe`
    is accepted as well.
    """
    text = _strip_outer_parentheses(spec.strip())
    parts = [part for part in split_top_level(text, ",")]
    if any(not part for part in parts):
        raise StrategyError(f"empty sub-strategy in combination spec {spec!r}")
    if len(parts) == 3:
        parts.append("Average")
    if len(parts) != 4:
        raise StrategyError(
            f"a combination spec needs 3 or 4 sub-strategies "
            f"(aggregation, direction, selection[, combined similarity]), got {spec!r}"
        )
    return CombinationStrategy(
        aggregation=aggregation_by_name(parts[0]),
        direction=direction_by_name(parts[1]),
        selection=parse_selection(parts[2]),
        combined_similarity=combined_similarity_by_name(parts[3]),
    )


def parse_combination(
    aggregation: str = "Average",
    direction: str = "Both",
    selection: str = "Thr(0.5)+Delta(0.02)",
    combined_similarity: str = "Average",
) -> CombinationStrategy:
    """Build a :class:`CombinationStrategy` from the four textual sub-strategy names.

    This is the historical per-part entry point; :func:`combination_from_spec`
    parses the same information from one spec string.
    """
    return CombinationStrategy(
        aggregation=aggregation_by_name(aggregation),
        direction=direction_by_name(direction),
        selection=parse_selection(selection),
        combined_similarity=combined_similarity_by_name(combined_similarity),
    )
