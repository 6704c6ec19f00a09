"""The layer memo: one matrix per matcher configuration and path pair per execution.

Within one :meth:`MatchEngine.execute` the default strategy asks for the Name
matrix four times (its layer, TypeName, and the TypeName leaf matrices of
Children and Leaves) and for the TypeName matrix three times.  The memo must
compute each once, must never mix configurations, and must not outlive the
execution.  Name and NamePath over whole schemas also share one token
matrix, so their constituent string matchers run once per execution.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.combination import DICE_COMBINED
from repro.combination.aggregation import WeightedAggregation
from repro.core.match_operation import build_context
from repro.core.strategy import default_strategy
from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_pair
from repro.engine.engine import MatchEngine
from repro.exceptions import CombinationError
from repro.matchers.base import _LAYER_MEMO, layer_memo
from repro.matchers.hybrid.name import NameMatcher, NamePathMatcher
from repro.matchers.hybrid.structural import ChildrenMatcher, LeavesMatcher
from repro.matchers.hybrid.type_name import TypeNameMatcher
from repro.matchers.string.ngram import NGramMatcher
from repro.matchers.string.synonym import SynonymStringMatcher
from repro.model.datatypes import SOURCE_TYPE_MEMO_SIZE, GenericType, map_source_type
from repro.session import MatchSession


def _schemas(pair):
    """PO1/PO2, or a generated pair."""
    if pair == "po":
        return load_po1(), load_po2()
    generated = generate_pair(6, 5, overlap=0.7, seed=11)
    return generated.source, generated.target


@pytest.fixture()
def calls(monkeypatch):
    """``compute_batch`` calls per matcher name, and weak refs to their results."""
    counts = collections.Counter()
    results = []
    for owner in (NameMatcher, TypeNameMatcher):
        original = owner.__dict__["compute_batch"]

        def counting(self, source_paths, target_paths, context, _original=original):
            counts[self.name] += 1
            matrix = _original(self, source_paths, target_paths, context)
            results.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(owner, "compute_batch", counting)
    return counts, results


def test_default_match_computes_name_and_type_name_once(calls):
    counts, _ = calls
    po1, po2 = load_po1(), load_po2()
    matchers = default_strategy().resolve_matchers(None)
    cube = MatchEngine().execute(matchers, build_context(po1, po2))
    assert cube.matcher_names == ("Name", "NamePath", "TypeName", "Children", "Leaves")
    assert counts == {"Name": 1, "NamePath": 1, "TypeName": 1}


def test_one_execution_runs_the_name_constituents_once(monkeypatch):
    counts = collections.Counter()
    for owner in (NGramMatcher, SynonymStringMatcher):
        original = owner.__dict__["similarity_many"]

        def counting(self, sources, targets, _original=original, _owner=owner):
            counts[_owner.__name__] += 1
            return _original(self, sources, targets)

        monkeypatch.setattr(owner, "similarity_many", counting)
    po1, po2 = load_po1(), load_po2()
    matchers = default_strategy().resolve_matchers(None)
    MatchEngine().execute(matchers, build_context(po1, po2))
    # Name and NamePath read one token vocabulary over whole schemas.
    assert counts == {"NGramMatcher": 1, "SynonymStringMatcher": 1}


@pytest.mark.parametrize("pair", ["po", "generated"])
def test_dice_variant_keeps_its_own_name_layer(calls, pair):
    counts, _ = calls
    source, target = _schemas(pair)
    dice_children = ChildrenMatcher().with_combined_similarity(DICE_COMBINED)
    matchers = [
        NameMatcher(),
        dice_children,
        NamePathMatcher(),
        NamePathMatcher(include_schema_root=True),
        NameMatcher(combined_similarity=DICE_COMBINED),
    ]
    assert matchers[0].memo_key() != dice_children.leaf_matcher.name_matcher.memo_key()
    # One execution's layers (a cube would refuse the two NamePath names).
    context = build_context(source, target)
    with layer_memo(context):
        memoised = [
            MatchEngine().compute_matrix(matcher, source.paths(), target.paths(), context)
            for matcher in matchers
        ]
    # Two Name matrices: the Average layer, and the Dice one that the last
    # layer and the Dice TypeName leaf matcher share.  The layers share
    # token matrices, not matrices.
    assert counts["Name"] == 2
    assert counts["NamePath"] == 2
    for matrix, matcher in zip(memoised, matchers):
        alone = matcher.compute_batch(
            source.paths(), target.paths(), build_context(source, target)
        )
        assert matrix.values.tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("pair", ["po", "generated"])
def test_partial_execution_rows_equal_the_full_cube(pair):
    # Over a slice of rows, NamePath's vocabulary can hold ancestor tokens
    # that Name's lacks (the generated pair's Header); it then computes its
    # own token matrix.
    source, target = _schemas(pair)
    matchers = default_strategy().resolve_matchers(None)
    full = MatchEngine().execute(matchers, build_context(source, target))
    part = MatchEngine().execute_partial(
        matchers, build_context(source, target), source_rows=source.paths()[2:9]
    )
    assert part.as_array().tobytes() == full.as_array()[:, 2:9].tobytes()


def test_source_type_memo_stays_bounded():
    for index in range(10_000):
        assert map_source_type(f"frobnicator{index}") is GenericType.UNKNOWN
    info = map_source_type.cache_info()
    assert info.maxsize == SOURCE_TYPE_MEMO_SIZE
    assert info.currsize == SOURCE_TYPE_MEMO_SIZE
    assert map_source_type("VARCHAR(200)") is GenericType.STRING
    assert map_source_type("xsd:decimal") is GenericType.DECIMAL
    assert map_source_type("number") is GenericType.DECIMAL


def test_memo_keys_follow_configuration():
    assert NameMatcher().memo_key() == NameMatcher().memo_key()
    assert TypeNameMatcher().memo_key() == TypeNameMatcher().memo_key()
    assert NamePathMatcher().memo_key() != NamePathMatcher(include_schema_root=True).memo_key()
    assert NameMatcher().memo_key() != NamePathMatcher().memo_key()
    assert LeavesMatcher().memo_key() is None


def test_a_weighted_name_labelled_max_is_not_the_max_name():
    weighted = NameMatcher(
        aggregation=WeightedAggregation({"Trigram": 1.0, "Synonym": 1.0}, label="Max")
    )
    assert weighted.memo_key() != NameMatcher().memo_key()
    po1, po2 = load_po1(), load_po2()
    # Alone and after a default Name layer alike: the Max matrix is not its own.
    for matchers in ([], [NameMatcher()]):
        with pytest.raises(CombinationError, match="Weighted aggregation"):
            MatchEngine().execute(
                matchers + [TypeNameMatcher(name_matcher=weighted)], build_context(po1, po2)
            )


def test_nothing_from_the_memo_outlives_the_match(calls):
    counts, results = calls
    # Leaves' TypeName leaf matrix is not a layer of Name+Leaves, and the
    # cube keeps only its stack: once the match returns, no matcher matrix
    # may still be alive.
    session = MatchSession()
    outcome = session.match(load_po1(), load_po2(), strategy="Name+Leaves")
    assert _LAYER_MEMO.get() is None
    gc.collect()
    assert results and all(ref() is None for ref in results)
    assert outcome.cube.matcher_names == ("Name", "Leaves")
    assert counts["TypeName"] == 1


def test_memo_serves_only_its_own_context():
    po1, po2 = load_po1(), load_po2()
    context, other = build_context(po1, po2), build_context(po1, po2)
    matcher = NameMatcher()
    with layer_memo(context):
        first = matcher.compute_shared(po1.paths(), po2.paths(), context)
        assert matcher.compute_shared(po1.paths(), po2.paths(), context) is first
        assert matcher.compute_shared(po1.paths(), po2.paths(), other) is not first
    assert matcher.compute_shared(po1.paths(), po2.paths(), context) is not first


def test_memo_finds_path_sets_by_tuple_identity():
    po1, po2 = load_po1(), load_po2()
    context = build_context(po1, po2)
    matcher = NameMatcher()
    with layer_memo(context):
        first = matcher.compute_shared(po1.paths(), po2.paths(), context)
        # An equal but distinct tuple misses and computes its own matrix.
        again = matcher.compute_shared(tuple(list(po1.paths())), po2.paths(), context)
        assert again is not first
        assert again.values.tobytes() == first.values.tobytes()
