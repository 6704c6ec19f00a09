"""Tests for the schema graph model (elements, links, paths, statistics)."""

import pytest

from repro.exceptions import CycleError, SchemaError, UnknownElementError
from repro.model.element import ElementKind, LinkKind
from repro.model.schema import Schema, schemas_by_size


def _linear_schema():
    schema = Schema("S")
    a = schema.add_element("A")
    b = schema.add_element("B", parent=a)
    c = schema.add_element("C", parent=b, source_type="int")
    return schema, a, b, c


class TestConstruction:
    def test_root_is_created_automatically(self):
        schema = Schema("Orders")
        assert schema.root.name == "Orders"
        assert schema.root.kind is ElementKind.SCHEMA

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Schema("   ")

    def test_add_element_defaults_to_root_parent(self):
        schema = Schema("S")
        element = schema.add_element("A")
        assert schema.parents(element) == (schema.root,)

    def test_duplicate_containment_link_rejected(self):
        schema, a, b, _ = _linear_schema()
        with pytest.raises(SchemaError):
            schema.add_link(a, b)

    def test_cycle_detection(self):
        schema, a, b, c = _linear_schema()
        with pytest.raises(CycleError):
            schema.add_link(c, a)

    def test_self_cycle_detection(self):
        schema, a, _, _ = _linear_schema()
        with pytest.raises(CycleError):
            schema.add_link(a, a)

    def test_root_cannot_become_child(self):
        schema, a, _, _ = _linear_schema()
        with pytest.raises(CycleError):
            schema.add_link(a, schema.root)

    def test_foreign_element_rejected(self):
        schema = Schema("S")
        other = Schema("T")
        stranger = other.add_element("X")
        with pytest.raises(UnknownElementError):
            schema.add_link(schema.root, stranger)

    def test_reference_links_are_tracked_separately(self):
        schema, a, _, c = _linear_schema()
        schema.add_link(c, a, LinkKind.REFERENCE)
        assert len(schema.references()) == 1
        assert schema.references_from(c)[0].target is a
        # references do not create paths
        assert len(schema.paths()) == 3


class TestPaths:
    def test_paths_in_dfs_order(self):
        schema, a, b, c = _linear_schema()
        assert [p.dotted() for p in schema.paths()] == ["S.A", "S.A.B", "S.A.B.C"]

    def test_shared_fragment_yields_multiple_paths(self):
        schema = Schema("S")
        ship = schema.add_element("ShipTo")
        bill = schema.add_element("BillTo")
        address = schema.add_detached_element("Address")
        city = schema.add_element("City", parent=address)
        schema.add_link(ship, address)
        schema.add_link(bill, address)
        dotted = {p.dotted() for p in schema.paths()}
        assert "S.ShipTo.Address.City" in dotted
        assert "S.BillTo.Address.City" in dotted
        assert schema.is_shared(address)
        # 2 top elements + 2 * (Address + City) = 6 paths from 4 non-root nodes
        assert len(schema.paths()) == 6

    def test_dotted_paths_follow_the_paths(self):
        schema, a, b, c = _linear_schema()
        assert schema.dotted_paths() == ("S.A", "S.A.B", "S.A.B.C")
        schema.add_element("D", parent=c)
        assert schema.dotted_paths() == ("S.A", "S.A.B", "S.A.B.C", "S.A.B.C.D")

    def test_leaf_and_inner_paths(self):
        schema, a, b, c = _linear_schema()
        assert [p.dotted() for p in schema.leaf_paths()] == ["S.A.B.C"]
        assert [p.dotted() for p in schema.inner_paths()] == ["S.A", "S.A.B"]

    def test_find_path_accepts_with_and_without_root(self):
        schema, *_ = _linear_schema()
        assert schema.find_path("S.A.B.C").name == "C"
        assert schema.find_path("A.B.C").name == "C"
        with pytest.raises(UnknownElementError):
            schema.find_path("A.X")

    def test_child_and_descendant_paths(self):
        schema, a, b, c = _linear_schema()
        top = schema.find_path("S.A")
        assert [p.dotted() for p in schema.child_paths(top)] == ["S.A.B"]
        assert [p.dotted() for p in schema.descendant_paths(top)] == ["S.A.B", "S.A.B.C"]
        assert [p.dotted() for p in schema.leaf_paths_under(top)] == ["S.A.B.C"]

    def test_paths_of_shared_element(self):
        schema = Schema("S")
        x = schema.add_element("X")
        y = schema.add_element("Y")
        shared = schema.add_detached_element("Z")
        schema.add_link(x, shared)
        schema.add_link(y, shared)
        assert len(schema.paths_of(shared)) == 2

    def test_contains_protocol(self):
        schema, a, *_ = _linear_schema()
        assert a in schema
        assert "S.A.B" in schema
        assert "S.Nope" not in schema


class TestStatistics:
    def test_statistics_of_linear_schema(self):
        schema, *_ = _linear_schema()
        statistics = schema.statistics()
        assert statistics.node_count == 3
        assert statistics.path_count == 3
        assert statistics.inner_node_count == 2
        assert statistics.leaf_node_count == 1
        assert statistics.max_depth == 3

    def test_statistics_count_shared_nodes_once(self):
        schema = Schema("S")
        x = schema.add_element("X")
        y = schema.add_element("Y")
        shared = schema.add_detached_element("Z")
        schema.add_link(x, shared)
        schema.add_link(y, shared)
        statistics = schema.statistics()
        assert statistics.node_count == 3
        assert statistics.path_count == 4
        assert statistics.leaf_node_count == 1
        assert statistics.leaf_path_count == 2

    def test_schemas_by_size(self):
        small, *_ = _linear_schema()
        large = Schema("L")
        for index in range(5):
            large.add_element(f"E{index}")
        bigger, smaller = schemas_by_size(small, large)
        assert bigger is large and smaller is small
        bigger, smaller = schemas_by_size(large, small)
        assert bigger is large and smaller is small
