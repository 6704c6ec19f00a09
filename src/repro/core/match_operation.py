"""The match operation's building blocks: its context, its combination, its outcome.

One match operation (Figure 2) builds a
:class:`~repro.matchers.base.MatchContext`, executes the selected matchers into
a :class:`~repro.combination.cube.SimilarityCube`, and combines the cube
(Section 6): aggregate, apply user-feedback overrides, select match candidates
with the configured direction and selection strategies, and derive the
mapping plus the overall *schema similarity*.
:class:`~repro.session.session.MatchSession` runs that loop; this module holds
the two steps it shares with the rest of the system -- :func:`build_context`,
the only place a context is constructed, and :func:`combine_cube`, the only
implementation of the combination step.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.auxiliary.synonyms import SynonymDictionary, default_purchase_order_synonyms
from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix, dense_name_ranks
from repro.combination.strategy import CombinationStrategy
from repro.core.strategy import MatchStrategy
from repro.linguistic.tokenizer import NameTokenizer
from repro.matchers.base import MatchContext
from repro.matchers.simple.user_feedback import UserFeedbackMatcher, UserFeedbackStore
from repro.model.datatypes import DEFAULT_TYPE_COMPATIBILITY, TypeCompatibilityTable
from repro.model.mapping import MatchResult
from repro.model.path import SchemaPath
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.repository.repository import Repository


@dataclasses.dataclass
class MatchOutcome:
    """Everything produced by one match operation."""

    result: MatchResult
    cube: SimilarityCube
    aggregated: SimilarityMatrix
    schema_similarity: float
    strategy: MatchStrategy
    context: MatchContext

    @property
    def correspondences(self):
        """Shortcut to the correspondences of the final mapping."""
        return self.result.correspondences


def build_context(
    source: Schema,
    target: Schema,
    tokenizer: Optional[NameTokenizer] = None,
    synonyms: Optional[SynonymDictionary] = None,
    type_compatibility: Optional[TypeCompatibilityTable] = None,
    feedback: Optional[UserFeedbackStore] = None,
    repository: Optional["Repository"] = None,
    profile_cache: Optional[Dict[Tuple, object]] = None,
    token_memo: Optional[Dict[str, Tuple[str, ...]]] = None,
) -> MatchContext:
    """Assemble the match context shared by all matchers of one operation.

    ``profile_cache`` and ``token_memo`` (when given) are used *by reference*:
    passing the same dicts to several contexts shares the per-schema
    :class:`~repro.engine.profiles.PathSetProfile` objects and the name-token
    memo across operations, which is how
    :class:`~repro.session.session.MatchSession` builds each schema's profile
    at most once per session.  ``type_compatibility`` is used as given; the
    default is a fresh copy of the default table per context.
    """
    context = MatchContext(
        source_schema=source,
        target_schema=target,
        tokenizer=tokenizer if tokenizer is not None else NameTokenizer(),
        synonyms=synonyms if synonyms is not None else default_purchase_order_synonyms(),
        type_compatibility=(
            type_compatibility
            if type_compatibility is not None
            # A fresh copy per context: one operation customising its table
            # must not leak into other operations sharing the default.
            else DEFAULT_TYPE_COMPATIBILITY.copy()
        ),
        feedback=feedback,
        repository=repository,
        token_memo=token_memo,
    )
    if profile_cache is not None:
        context.profile_cache = profile_cache
    return context


def _name_ranks(context: MatchContext, paths: Tuple[SchemaPath, ...]) -> np.ndarray:
    """The dense name ranks of a cube axis.

    An axis whose profile is cached takes the profile's ranks, so every match
    over a schema in one session shares one rank array.
    """
    profile = context.profile_cache.get(paths)
    return dense_name_ranks(paths) if profile is None else profile.name_ranks()


def combine_cube(
    cube: SimilarityCube,
    combination: CombinationStrategy,
    context: MatchContext,
    apply_feedback_overrides: bool = True,
) -> tuple[MatchResult, SimilarityMatrix, float]:
    """Aggregate, apply feedback overrides, select candidates and build the mapping."""
    aggregated = combination.aggregate(cube)
    if apply_feedback_overrides and context.feedback:
        aggregated = UserFeedbackMatcher().apply_overrides(aggregated, context)
    aggregated.use_name_ranks(
        _name_ranks(context, cube.source_paths), _name_ranks(context, cube.target_paths)
    )
    selected = combination.select(aggregated)
    result = MatchResult.from_cells(
        context.source_schema, context.target_schema,
        aggregated.source_paths, aggregated.target_paths, *selected,
    )
    schema_similarity = combination.combine_pairs(
        selected, len(cube.source_paths), len(cube.target_paths)
    )
    return result, aggregated, schema_similarity
