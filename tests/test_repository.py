"""Tests for the SQLite repository and schema serialisation."""

import pytest

from repro.combination.aggregation import WeightedAggregation
from repro.combination.selection import Threshold
from repro.core.match_operation import build_context
from repro.core.strategy import MatchStrategy
from repro.exceptions import RepositoryError
from repro.matchers.reuse.provider import StoredMapping
from repro.matchers.reuse.schema_reuse import SchemaReuseMatcher
from repro.model.mapping import MatchResult
from repro.repository.repository import Repository
from repro.repository.serialization import schema_from_json, schema_to_json


class TestSerialization:
    def test_round_trip_preserves_paths(self, po2):
        restored = schema_from_json(schema_to_json(po2))
        assert {p.dotted() for p in restored.paths()} == {p.dotted() for p in po2.paths()}
        assert restored.statistics().as_row() == po2.statistics().as_row()

    def test_round_trip_preserves_types_and_references(self, po1):
        restored = schema_from_json(schema_to_json(po1))
        assert restored.find_path("PO1.ShipTo.poNo").source_type == "INT"
        assert len(restored.references()) == len(po1.references())

    def test_invalid_json_rejected(self):
        with pytest.raises(RepositoryError):
            schema_from_json("not json")

    def test_missing_keys_rejected(self):
        with pytest.raises(RepositoryError):
            schema_from_json("{}")


class TestRepositorySchemas:
    def test_store_and_load(self, po1):
        with Repository() as repository:
            repository.store_schema(po1)
            assert repository.has_schema("PO1")
            assert repository.schema_names() == ("PO1",)
            loaded = repository.load_schema("PO1")
            assert {p.dotted() for p in loaded.paths()} == {p.dotted() for p in po1.paths()}

    def test_missing_schema_raises(self):
        with Repository() as repository:
            with pytest.raises(RepositoryError):
                repository.load_schema("nope")

    def test_delete(self, po1):
        with Repository() as repository:
            repository.store_schema(po1)
            assert repository.delete_schema("PO1")
            assert not repository.delete_schema("PO1")

    def test_replace_flag(self, po1):
        with Repository() as repository:
            repository.store_schema(po1)
            with pytest.raises(RepositoryError):
                repository.store_schema(po1, replace=False)

    def test_file_backed_repository(self, tmp_path, po1):
        path = str(tmp_path / "repo.db")
        with Repository(path) as repository:
            repository.store_schema(po1)
        with Repository(path) as reopened:
            assert reopened.has_schema("PO1")


class TestRepositoryMappings:
    def test_store_match_result_and_filter_by_origin(self, po1, po2):
        result = MatchResult.from_tuples(
            po1, po2, [("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City", 0.9)]
        )
        with Repository() as repository:
            repository.store_mapping(result, origin="manual")
            repository.store_mapping(result, origin="automatic")
            assert repository.mapping_count() == 2
            assert repository.mapping_count(origin="manual") == 1
            manual = repository.stored_mappings(origin="manual")
            assert len(manual) == 1
            assert manual[0].rows[0][2] == pytest.approx(0.9)

    def test_mappings_between(self, po1, po2):
        result = MatchResult.from_tuples(
            po1, po2, [("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City", 1.0)]
        )
        with Repository() as repository:
            repository.store_mapping(result)
            assert len(repository.mappings_between("PO2", "PO1")) == 1
            assert len(repository.mappings_between("PO1", "Other")) == 0

    def test_delete_mappings(self, po1, po2):
        result = MatchResult.from_tuples(
            po1, po2, [("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City", 1.0)]
        )
        with Repository() as repository:
            repository.store_mapping(result, origin="manual")
            repository.store_mapping(result, origin="automatic")
            removed = repository.delete_mappings(origin="manual")
            assert removed == 1
            assert repository.mapping_count() == 1

    def test_repository_drives_schema_reuse_matcher(self, po1, po2):
        """End to end: store mappings, then let the Schema matcher reuse them via the context."""
        with Repository() as repository:
            repository.store_mapping(
                StoredMapping("PO1", "Middle", (("PO1.ShipTo.shipToCity", "Middle.City", 1.0),)),
                origin="manual",
            )
            repository.store_mapping(
                StoredMapping("Middle", "PO2",
                              (("Middle.City", "PO2.PO2.DeliverTo.Address.City", 0.8),)),
                origin="manual",
            )
            context = build_context(po1, po2, repository=repository)
            matcher = SchemaReuseMatcher(origin="manual")
            matrix = matcher.compute(po1.paths(), po2.paths(), context)
            assert matrix.get(
                po1.find_path("PO1.ShipTo.shipToCity"),
                po2.find_path("PO2.PO2.DeliverTo.Address.City"),
            ) == pytest.approx(0.9)


class TestRepositoryTransactions:
    """A write that raises leaves nothing behind for the next write to commit."""

    def test_failed_mapping_write_rolls_back_its_header(self):
        with Repository() as repository:
            bad = StoredMapping("A", "B", (("A.x", "B.y", "not a number"),))
            with pytest.raises(ValueError):
                repository.store_mapping(bad)
            repository.store_mapping(StoredMapping("A", "B", (("A.x", "B.y", 0.5),)))
            assert repository.mapping_count() == 1
            assert [m.rows for m in repository.stored_mappings()] == [(("A.x", "B.y", 0.5),)]


class TestRepositoryStrategies:
    """A stored strategy reloads into the same strategy, or is not stored."""

    SPEC = "Name+Leaves(Average,Both,Thr(0.5),Average)"

    @pytest.mark.parametrize(
        "replaced",
        [
            {"aggregation": WeightedAggregation({"Name": 2.0, "Leaves": 1.0}, label="Average")},
            {"selection": Threshold(0.1234567)},
        ],
        ids=["labelled-weighted", "threshold-beyond-six-digits"],
    )
    def test_a_strategy_that_would_reload_differently_is_refused(self, replaced):
        strategy = MatchStrategy.parse(self.SPEC)
        strategy = strategy.replaced(combination=strategy.combination.replaced(**replaced))
        # Its document reloads, but as another combination.
        assert MatchStrategy.from_dict(strategy.to_dict()) != strategy
        repository = Repository(":memory:")
        with pytest.raises(RepositoryError, match="reloads as a different strategy"):
            repository.store_strategy("tuned", strategy)
        assert repository.strategy_names() == ()

    def test_a_spec_form_strategy_stores_and_reloads(self):
        repository = Repository(":memory:")
        repository.store_strategy("tuned", self.SPEC)
        loaded = repository.load_strategy("tuned")
        assert loaded.to_spec() == self.SPEC
        assert loaded.combination == MatchStrategy.parse(self.SPEC).combination
