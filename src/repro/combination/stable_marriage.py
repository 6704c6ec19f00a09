"""Stable-marriage based match candidate selection (the paper's future work).

Section 7.5 names "more comprehensive strategies for match candidate
selection, such as the stable marriage approach [Similarity Flooding]" as
future work.  This module provides that extension: instead of selecting
candidates independently per element, the whole similarity matrix is treated
as a preference structure and a *stable* one-to-one assignment is computed --
no two elements would both prefer each other over their assigned partners.

The strategy plugs into the existing pipeline as a
:class:`~repro.combination.direction.DirectionStrategy` replacement: it
consumes the aggregated similarity matrix directly (direction is irrelevant
because the assignment is inherently symmetric) and an optional minimum
similarity keeps clearly dissimilar elements unmatched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.combination.direction import DirectionStrategy, SelectedPair
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import SelectionStrategy


def stable_marriage_pairs(
    matrix: SimilarityMatrix, minimum_similarity: float = 0.0
) -> List[SelectedPair]:
    """Compute a stable one-to-one assignment from a similarity matrix.

    The classic Gale-Shapley algorithm with the source paths proposing in
    descending order of similarity.  Pairs below ``minimum_similarity`` are
    never formed, so elements without a plausible partner stay unmatched.
    """
    source_paths = list(matrix.source_paths)
    target_paths = list(matrix.target_paths)

    preferences = {
        source: [
            target for target, similarity in matrix.ranked_targets(source)
            if similarity > max(0.0, minimum_similarity - 1e-12)
        ]
        for source in source_paths
    }
    next_choice = {source: 0 for source in source_paths}
    engaged_to: Dict[object, object] = {}
    free_sources = [source for source in source_paths if preferences[source]]

    def prefers(target, challenger, incumbent) -> bool:
        challenger_sim = matrix.get(challenger, target)
        incumbent_sim = matrix.get(incumbent, target)
        if challenger_sim != incumbent_sim:
            return challenger_sim > incumbent_sim
        # deterministic tie-break by path name
        return challenger.names < incumbent.names

    while free_sources:
        source = free_sources.pop(0)
        choices = preferences[source]
        while next_choice[source] < len(choices):
            target = choices[next_choice[source]]
            next_choice[source] += 1
            incumbent = engaged_to.get(target)
            if incumbent is None:
                engaged_to[target] = source
                break
            if prefers(target, source, incumbent):
                engaged_to[target] = source
                free_sources.append(incumbent)
                break
        # otherwise the source has exhausted its preference list and stays free

    pairs: List[SelectedPair] = []
    for target, source in engaged_to.items():
        similarity = matrix.get(source, target)
        if similarity >= minimum_similarity and similarity > 0.0:
            pairs.append((source, target, similarity))
    return sorted(pairs, key=lambda p: (p[0].names, p[1].names))


class StableMarriageDirection(DirectionStrategy):
    """A direction/selection replacement producing a stable 1:1 assignment.

    The configured selection strategy is applied *after* the assignment, so
    e.g. a Threshold can still prune weak stable pairs.
    """

    name = "StableMarriage"

    def __init__(self, minimum_similarity: float = 0.0):
        if not 0.0 <= minimum_similarity <= 1.0:
            raise ValueError(
                f"minimum_similarity must be within [0, 1], got {minimum_similarity}"
            )
        self.minimum_similarity = float(minimum_similarity)

    def select_cells(
        self, matrix: SimilarityMatrix, selection: Optional[SelectionStrategy] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stable pairs the selection accepts, as indexes, in name order."""
        pairs = stable_marriage_pairs(matrix, self.minimum_similarity)
        if selection is not None:
            pairs = [pair for pair in pairs if selection.select([(pair[1], pair[2])])]
        row_of = {path: i for i, path in enumerate(matrix.source_paths)}
        column_of = {path: j for j, path in enumerate(matrix.target_paths)}
        return (
            np.array([row_of[source] for source, _, _ in pairs], dtype=np.intp),
            np.array([column_of[target] for _, target, _ in pairs], dtype=np.intp),
        )

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: Optional[SelectionStrategy] = None
    ) -> List[SelectedPair]:
        return super().select_pairs(matrix, selection)
