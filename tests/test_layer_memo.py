"""The layer memo: one matrix per matcher configuration and path pair per execution.

Within one :meth:`MatchEngine.execute` the default strategy asks for the Name
matrix four times (its layer, TypeName, and the TypeName leaf matrices of
Children and Leaves) and for the TypeName matrix three times.  The memo must
compute each once, must never mix configurations, and must not outlive the
execution.
"""

from __future__ import annotations

import collections
import gc
import weakref

import pytest

from repro.combination import DICE_COMBINED
from repro.core.match_operation import build_context
from repro.core.strategy import default_strategy
from repro.datasets.figure1 import load_po1, load_po2
from repro.engine.engine import MatchEngine
from repro.matchers.base import _LAYER_MEMO, layer_memo
from repro.matchers.hybrid.name import NameMatcher, NamePathMatcher
from repro.matchers.hybrid.structural import ChildrenMatcher, LeavesMatcher
from repro.matchers.hybrid.type_name import TypeNameMatcher
from repro.session import MatchSession


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


def test_dice_variant_shares_nothing_with_average_name(calls):
    counts, _ = calls
    po1, po2 = load_po1(), load_po2()
    dice_children = ChildrenMatcher().with_combined_similarity(DICE_COMBINED)
    matchers = [NameMatcher(), dice_children]
    assert matchers[0].memo_key() != dice_children.leaf_matcher.name_matcher.memo_key()
    memoised = MatchEngine().execute(matchers, build_context(po1, po2))
    # Average Name layer + Dice Name inside the Dice TypeName leaf matcher.
    assert counts["Name"] == 2
    context = build_context(po1, po2)
    for matcher in matchers:
        alone = matcher.compute_batch(po1.paths(), po2.paths(), context)
        assert memoised.layer(matcher.name).values.tobytes() == alone.values.tobytes()


def test_memo_keys_follow_configuration():
    assert NameMatcher().memo_key() == NameMatcher().memo_key()
    assert TypeNameMatcher().memo_key() == TypeNameMatcher().memo_key()
    assert NamePathMatcher().memo_key() != NamePathMatcher(include_schema_root=True).memo_key()
    assert NameMatcher().memo_key() != NamePathMatcher().memo_key()
    assert LeavesMatcher().memo_key() is None


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
