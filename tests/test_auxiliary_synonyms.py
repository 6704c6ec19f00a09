"""Tests for the synonym dictionary."""

import numpy as np
import pytest

from repro.auxiliary.synonyms import (
    SynonymDictionary,
    TermRelationship,
    default_purchase_order_synonyms,
)
from repro.exceptions import MatcherError
from repro.matchers.string.synonym import SynonymStringMatcher


class TestSynonymDictionary:
    def test_identity_is_synonymy(self):
        dictionary = SynonymDictionary()
        assert dictionary.similarity("City", "city") == 1.0
        assert dictionary.relationship("x", "X") is TermRelationship.SYNONYM

    def test_unknown_pair_scores_zero(self):
        dictionary = SynonymDictionary()
        assert dictionary.similarity("ship", "zebra") == 0.0
        assert dictionary.relationship("ship", "zebra") is None

    def test_synonym_and_hypernym_scores(self):
        dictionary = SynonymDictionary()
        dictionary.add("ship", "deliver")
        dictionary.add_hypernym("city", "address")
        assert dictionary.similarity("ship", "deliver") == 1.0
        assert dictionary.similarity("deliver", "ship") == 1.0
        assert dictionary.similarity("address", "city") == pytest.approx(0.8)

    def test_relationship_similarity_override(self):
        dictionary = SynonymDictionary({TermRelationship.HYPERNYM: 0.5})
        dictionary.add_hypernym("city", "address")
        assert dictionary.similarity("city", "address") == 0.5
        with pytest.raises(ValueError):
            dictionary.set_relationship_similarity(TermRelationship.SYNONYM, 2.0)

    def test_add_synonym_groups(self):
        dictionary = SynonymDictionary()
        dictionary.add_synonyms(("a", "b", "c"))
        assert dictionary.similarity("a", "c") == 1.0
        assert dictionary.similarity("b", "c") == 1.0
        assert len(dictionary) == 3

    def test_empty_entries_rejected(self):
        dictionary = SynonymDictionary()
        with pytest.raises(ValueError):
            dictionary.add("", "x")

    def test_merge(self):
        first = SynonymDictionary()
        first.add("ship", "deliver")
        second = SynonymDictionary()
        second.add("bill", "invoice")
        merged = first.merged_with(second)
        assert merged.similarity("ship", "deliver") == 1.0
        assert merged.similarity("bill", "invoice") == 1.0

    def test_contains(self):
        dictionary = SynonymDictionary()
        dictionary.add("ship", "deliver")
        assert ("deliver", "ship") in dictionary
        assert ("ship", "zebra") not in dictionary


class TestDefaultDictionary:
    def test_paper_domain_synonyms_present(self):
        dictionary = default_purchase_order_synonyms()
        assert dictionary.similarity("ship", "deliver") == 1.0
        assert dictionary.similarity("bill", "invoice") == 1.0
        assert dictionary.similarity("customer", "buyer") == 1.0

    def test_hypernyms_present(self):
        dictionary = default_purchase_order_synonyms()
        assert dictionary.similarity("city", "address") == pytest.approx(0.8)


class TestBulkLookup:
    """``similarity_many`` must equal the per-pair Synonym path cell for cell."""

    WORDS = ["Ship", " ship", "SHIP ", "deliver", "Delivery", "surname", "Name",
             "city", "Address", "zebra", "x", "X ", "", " ", "  "]

    @staticmethod
    def assert_bulk_equals_pairwise(matcher, sources, targets):
        expected = np.array(
            [[matcher.similarity(a, b) for b in targets] for a in sources]
        ).reshape(len(sources), len(targets))
        assert matcher.similarity_many(sources, targets).tobytes() == expected.tobytes()
        dictionary = matcher.dictionary
        assert dictionary.similarity_many(sources, targets).tobytes() == np.array(
            [[dictionary.similarity(a, b) for b in targets] for a in sources]
        ).reshape(len(sources), len(targets)).tobytes()

    def test_case_and_whitespace_variants(self):
        matcher = SynonymStringMatcher(default_purchase_order_synonyms())
        self.assert_bulk_equals_pairwise(matcher, self.WORDS, self.WORDS)
        self.assert_bulk_equals_pairwise(matcher, self.WORDS[:4], self.WORDS[::-1])

    def test_empty_and_whitespace_only_strings(self):
        matcher = SynonymStringMatcher(default_purchase_order_synonyms())
        values = matcher.similarity_many(["", " ", "ship"], ["", "  ", "ship"])
        # A raw-empty string scores 0 even against itself; two whitespace-only
        # strings share the normalised form "" and score as synonyms.
        assert values.tolist() == [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        self.assert_bulk_equals_pairwise(matcher, ["", " ", "ship"], ["", "  ", "ship"])
        assert matcher.similarity_many([], ["ship"]).shape == (0, 1)
        assert matcher.similarity_many(["ship"], []).shape == (1, 0)

    def test_stored_self_pair_scores_as_synonymy(self):
        dictionary = SynonymDictionary()
        dictionary.add("Name", "name ", TermRelationship.HYPERNYM)
        dictionary.add("name", "title", TermRelationship.HYPERNYM)
        matcher = SynonymStringMatcher(dictionary)
        assert matcher.similarity_many(["NAME"], ["name", "Title"]).tolist() == [[1.0, 0.8]]
        self.assert_bulk_equals_pairwise(matcher, ["name", "title"], ["Name", "title", "x"])

    def test_add_after_the_first_bulk_call_is_seen(self):
        dictionary = SynonymDictionary()
        dictionary.add("ship", "deliver")
        matcher = SynonymStringMatcher(dictionary)
        matcher.similarity_many(["ship"], ["send", "deliver"])
        dictionary.add("Send", "ship", TermRelationship.RELATED)
        dictionary.add("deliver", "ship", TermRelationship.HYPERNYM)
        self.assert_bulk_equals_pairwise(matcher, ["ship", "send"], ["send", "deliver", "ship"])

    def test_relationship_similarity_change_after_the_first_call_is_seen(self):
        dictionary = default_purchase_order_synonyms()
        matcher = SynonymStringMatcher(dictionary)
        assert matcher.similarity_many(["surname"], ["name"]).tolist() == [[0.8]]
        dictionary.set_relationship_similarity(TermRelationship.HYPERNYM, 0.3)
        dictionary.set_relationship_similarity(TermRelationship.SYNONYM, 0.9)
        assert matcher.similarity_many(["surname", "ship"], ["name", "deliver"]).tolist() == [
            [0.3, 0.0], [0.0, 0.9]
        ]
        self.assert_bulk_equals_pairwise(matcher, self.WORDS, self.WORDS)

    def test_merged_with(self):
        first = SynonymDictionary()
        first.add("ship", "deliver")
        first.add("bill", "invoice")
        second = SynonymDictionary({TermRelationship.HYPERNYM: 0.7})
        second.add("invoice", "bill", TermRelationship.HYPERNYM)
        second.add("city", "town")
        merged = first.merged_with(second)
        matcher = SynonymStringMatcher(merged)
        words = ["ship", "deliver", "bill", "invoice", "city", "town", "zebra"]
        assert matcher.similarity_many(["bill", "city"], ["invoice", "town"]).tolist() == [
            [0.7, 0.0], [0.0, 1.0]
        ]
        self.assert_bulk_equals_pairwise(matcher, words, words)

    def test_unbound_matcher_raises(self):
        with pytest.raises(MatcherError):
            SynonymStringMatcher().similarity_many(["ship"], ["deliver"])
        with pytest.raises(MatcherError):
            SynonymStringMatcher().similarity("ship", "deliver")
