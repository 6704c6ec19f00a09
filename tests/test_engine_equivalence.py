"""Engine equivalence: the batch pipeline must reproduce the pairwise reference.

The batch :class:`~repro.engine.engine.MatchEngine` evaluates matchers over
unique cache keys and scatters the results with numpy fancy indexing; these
tests assert that for every matcher of the default library the resulting
matrix is numerically identical (atol 1e-9) to the cell-by-cell pairwise
implementation -- on the paper's purchase-order schemas, on randomly generated
schema pairs, and through the full match operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.match_operation import build_context
from repro.core.processor import MatchProcessor
from repro.core.strategy import default_strategy
from repro.datasets.generators import generate_pair
from repro.engine import MatchEngine, PathSetProfile
from repro.matchers.registry import DEFAULT_LIBRARY
from repro.matchers.simple.user_feedback import UserFeedbackStore
from repro.session import MatchSession

BATCH_ENGINE = MatchEngine()
PAIRWISE_ENGINE = MatchEngine(use_batch=False)

#: Every library matcher whose execution does not require a repository.
NON_REUSE_MATCHERS = tuple(
    info.name for info in DEFAULT_LIBRARY.entries() if info.kind != "reuse"
)


def assert_engines_agree(matcher, source, target, context=None, atol=1e-9):
    active = context if context is not None else build_context(source, target)
    source_paths = source.paths()
    target_paths = target.paths()
    batch = BATCH_ENGINE.compute_matrix(matcher, source_paths, target_paths, active)
    reference = PAIRWISE_ENGINE.compute_matrix(matcher, source_paths, target_paths, active)
    assert batch.source_paths == reference.source_paths
    assert batch.target_paths == reference.target_paths
    np.testing.assert_allclose(batch.values, reference.values, atol=atol, rtol=0.0)


@pytest.mark.parametrize("matcher_name", NON_REUSE_MATCHERS)
def test_engine_matches_pairwise_on_purchase_orders(matcher_name, po1, po2):
    assert_engines_agree(DEFAULT_LIBRARY.create(matcher_name), po1, po2)


@pytest.mark.parametrize("matcher_name", NON_REUSE_MATCHERS)
def test_engine_matches_pairwise_on_tiny_pair(matcher_name, tiny_pair):
    left, right = tiny_pair
    assert_engines_agree(DEFAULT_LIBRARY.create(matcher_name), left, right)


@pytest.mark.parametrize(
    "sections,fields,overlap,seed",
    [
        (2, 3, 0.5, 1),
        (3, 4, 0.7, 11),
        (5, 2, 0.9, 42),
        (6, 5, 0.3, 7),
        (8, 6, 0.7, 23),
    ],
)
def test_engine_matches_pairwise_on_generated_schemas(sections, fields, overlap, seed):
    """Property-style sweep: random generated schema pairs, full matcher library."""
    pair = generate_pair(
        sections=sections, fields_per_section=fields, overlap=overlap, seed=seed
    )
    context = build_context(pair.source, pair.target)
    for matcher_name in NON_REUSE_MATCHERS:
        assert_engines_agree(
            DEFAULT_LIBRARY.create(matcher_name), pair.source, pair.target, context
        )


def test_engine_matches_pairwise_with_user_feedback(po1, po2):
    feedback = UserFeedbackStore()
    source_paths = po1.paths()
    target_paths = po2.paths()
    feedback.accept(source_paths[0], target_paths[0])
    feedback.reject(source_paths[1], target_paths[2])
    feedback.accept(source_paths[3].dotted(), target_paths[1].dotted())
    context = build_context(po1, po2, feedback=feedback)
    assert_engines_agree(DEFAULT_LIBRARY.create("UserFeedback"), po1, po2, context)


def test_execute_matchers_same_cube_for_both_engines(po1, po2):
    matchers = default_strategy().resolve_matchers(None)
    batch = BATCH_ENGINE.execute(matchers, build_context(po1, po2))
    reference = PAIRWISE_ENGINE.execute(matchers, build_context(po1, po2))
    assert batch.matcher_names == reference.matcher_names
    np.testing.assert_allclose(batch.as_array(), reference.as_array(), atol=1e-9, rtol=0.0)


def test_match_accepts_engine_override(po1, po2):
    batch = MatchSession().match(po1, po2)
    reference = MatchSession(engine=PAIRWISE_ENGINE).match(po1, po2)
    assert [
        (c.source.dotted(), c.target.dotted()) for c in batch.result
    ] == [(c.source.dotted(), c.target.dotted()) for c in reference.result]
    assert batch.schema_similarity == pytest.approx(reference.schema_similarity, abs=1e-9)


def test_processor_accepts_engine(po1, po2):
    processor = MatchProcessor(po1, po2, session=MatchSession(engine=PAIRWISE_ENGINE))
    outcome = processor.run_iteration()
    assert outcome.result.correspondences


def test_profiles_are_cached_per_context(po1, po2):
    context = build_context(po1, po2)
    paths = po1.paths()
    first = context.profiles(paths)
    second = context.profiles(paths)
    assert first is second
    assert isinstance(first, PathSetProfile)
    assert len(first.unique_names) <= len(paths)
    # The swapped context shares the same cache object.
    assert context.swapped().profiles(paths) is first


def test_type_compatibility_does_not_leak_between_contexts(po1, po2):
    from repro.model.datatypes import DEFAULT_TYPE_COMPATIBILITY, GenericType

    context = build_context(po1, po2)
    context.type_compatibility.set(GenericType.STRING, GenericType.INTEGER, 0.123)
    other = build_context(po1, po2)
    assert other.type_compatibility.compatibility(
        GenericType.STRING, GenericType.INTEGER
    ) != pytest.approx(0.123)
    assert DEFAULT_TYPE_COMPATIBILITY.compatibility(
        GenericType.STRING, GenericType.INTEGER
    ) != pytest.approx(0.123)
