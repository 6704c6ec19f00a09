"""Tests for SchemaPath and MatchResult behaviour."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import SchemaError
from repro.model.builder import SchemaBuilder
from repro.model.mapping import Correspondence, MatchResult
from repro.model.path import SchemaPath
from repro.model.schema import Schema


@pytest.fixture()
def pair():
    left = SchemaBuilder("L")
    with left.inner("A"):
        left.leaf("x", "int")
        left.leaf("y", "int")
    left_schema = left.build()
    right = SchemaBuilder("R")
    with right.inner("B"):
        right.leaf("u", "int")
        right.leaf("v", "int")
    right_schema = right.build()
    return left_schema, right_schema


class TestSchemaPath:
    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            SchemaPath([])

    def test_accessors(self, pair):
        left, _ = pair
        path = left.find_path("L.A.x")
        assert path.name == "x"
        assert path.names == ("L", "A", "x")
        assert path.depth == 2
        assert path.root.name == "L"
        assert path.parent.dotted() == "L.A"
        assert path.dotted(skip_root=True) == "A.x"
        assert path.long_name() == "LAx"
        assert len(path) == 3
        assert path[1].name == "A"

    def test_equality_is_by_element_identity(self, pair):
        left, _ = pair
        first = left.find_path("L.A.x")
        second = left.find_path("L.A.x")
        assert first == second
        assert hash(first) == hash(second)
        assert first != left.find_path("L.A.y")

    def test_startswith(self, pair):
        left, _ = pair
        parent = left.find_path("L.A")
        child = left.find_path("L.A.x")
        assert child.startswith(parent)
        assert not parent.startswith(child)

    def test_root_path_has_no_parent(self, pair):
        left, _ = pair
        root_path = left.paths(include_root=True)[0]
        assert root_path.parent is None

    def test_sorting_is_by_names(self, pair):
        left, _ = pair
        paths = sorted(left.paths(), reverse=True)
        assert paths[0].name == "y"


class TestMatchResult:
    def test_similarity_bounds(self, pair):
        left, right = pair
        with pytest.raises(ValueError):
            Correspondence(left.find_path("L.A.x"), right.find_path("R.B.u"), 1.5)

    def test_add_keeps_max_similarity(self, pair):
        left, right = pair
        result = MatchResult(left, right)
        x, u = left.find_path("L.A.x"), right.find_path("R.B.u")
        result.add_pair(x, u, 0.4)
        result.add_pair(x, u, 0.7)
        result.add_pair(x, u, 0.2)
        assert result.similarity_of(x, u) == 0.7
        assert len(result) == 1

    def test_inverted_round_trip(self, pair):
        left, right = pair
        result = MatchResult.from_tuples(left, right, [("L.A.x", "R.B.u", 0.8)])
        inverted = result.inverted()
        assert inverted.source_schema is right
        assert inverted.pair_set() == frozenset({("R.B.u", "L.A.x")})
        assert inverted.inverted().pair_set() == result.pair_set()

    def test_filter_and_threshold(self, pair):
        left, right = pair
        result = MatchResult.from_tuples(
            left, right, [("L.A.x", "R.B.u", 0.9), ("L.A.y", "R.B.v", 0.3)]
        )
        assert len(result.above_threshold(0.5)) == 1
        assert len(result.filter(lambda c: c.target.name == "v")) == 1

    def test_uniform_similarity(self, pair):
        left, right = pair
        result = MatchResult.from_tuples(left, right, [("L.A.x", "R.B.u", 0.3)])
        uniform = result.with_uniform_similarity()
        assert uniform.correspondences[0].similarity == 1.0

    def test_merge_requires_same_schema_pair(self, pair):
        left, right = pair
        first = MatchResult(left, right)
        second = MatchResult(right, left)
        with pytest.raises(SchemaError):
            first.merged_with(second)

    def test_merge_unions_pairs(self, pair):
        left, right = pair
        first = MatchResult.from_tuples(left, right, [("L.A.x", "R.B.u", 0.5)])
        second = MatchResult.from_tuples(left, right, [("L.A.y", "R.B.v", 0.6)])
        merged = first.merged_with(second)
        assert len(merged) == 2

    def test_candidates_sorted_by_similarity(self, pair):
        left, right = pair
        result = MatchResult.from_tuples(
            left, right, [("L.A.x", "R.B.u", 0.5), ("L.A.x", "R.B.v", 0.9)]
        )
        candidates = result.candidates_for_source(left.find_path("L.A.x"))
        assert [c.target.name for c in candidates] == ["v", "u"]

    def test_contains_protocol(self, pair):
        left, right = pair
        result = MatchResult.from_tuples(left, right, [("L.A.x", "R.B.u", 0.5)])
        assert ("L.A.x", "R.B.u") in result
        assert (left.find_path("L.A.x"), right.find_path("R.B.u")) in result
        assert ("L.A.y", "R.B.u") not in result

    def test_as_tuples_round_trip(self, pair):
        left, right = pair
        rows = [("L.A.x", "R.B.u", 0.5), ("L.A.y", "R.B.v", 1.0)]
        result = MatchResult.from_tuples(left, right, rows)
        assert sorted(result.as_tuples()) == sorted(rows)


class TestCellBuiltResult:
    """A mapping built from kept cells reads like one built pair by pair."""

    ROWS, COLUMNS, SIMILARITIES = [1, 1, 2], [1, 2, 2], [0.9, 0.4, 0.7]

    def _both(self, pair):
        left, right = pair
        cells = MatchResult.from_cells(
            left, right, left.paths(), right.paths(),
            np.array(self.ROWS), np.array(self.COLUMNS), np.array(self.SIMILARITIES),
        )
        added = MatchResult(left, right, [
            Correspondence(left.paths()[i], right.paths()[j], similarity)
            for i, j, similarity in zip(self.ROWS, self.COLUMNS, self.SIMILARITIES)
        ])
        return cells, added

    def test_reads_keep_the_cells(self, pair):
        cells, added = self._both(pair)
        assert len(cells) == 3
        assert cells.as_tuples() == added.as_tuples() == [
            ("L.A.x", "R.B.u", 0.9), ("L.A.x", "R.B.v", 0.4), ("L.A.y", "R.B.v", 0.7)
        ]
        assert cells.correspondences == added.correspondences
        assert list(cells) == list(added) and cells.pairs() == added.pairs()
        assert cells.cells() == (self.ROWS, self.COLUMNS, self.SIMILARITIES)
        assert added.cells() is None

    def test_lookups_and_changes_behave_as_for_added_pairs(self, pair):
        left, right = pair
        x, u = left.find_path("L.A.x"), right.find_path("R.B.u")
        other = MatchResult.from_tuples(left, right, [("L.A.y", "R.B.u", 0.6)])
        for use in (
            lambda r: r.similarity_of(x, u),
            lambda r: ((x, u) in r, ("L.A.y", "R.B.v") in r, ("L.A.y", "R.B.u") in r),
            lambda r: r.candidates_for_source(x),
            lambda r: (r.matched_sources(), r.matched_targets()),
            lambda r: r.inverted().as_tuples(),
            lambda r: r.above_threshold(0.5).as_tuples(),
            lambda r: r.with_uniform_similarity().as_tuples(),
            lambda r: r.merged_with(other).as_tuples(),
            lambda r: r.pair_set(),
            lambda r: (r.add_pair(x, u, 0.95), r.add_pair(x, u, 0.5), r.as_tuples(), len(r)),
            lambda r: (r.remove_pair(x, u), r.as_tuples(), len(r), r.correspondences),
        ):
            cells, added = self._both(pair)
            assert use(cells) == use(added)
            assert cells.cells() is None  # the pair dict replaced the cells

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_a_similarity_outside_the_unit_interval_raises(self, pair, bad):
        left, right = pair
        with pytest.raises(ValueError, match=r"within \[0, 1\], got .* for L.A.y <-> R.B.v"):
            MatchResult.from_cells(
                left, right, left.paths(), right.paths(), [1, 2], [1, 2], [0.5, bad]
            )

    def test_axes_other_than_the_schema_paths(self, pair):
        left, right = pair
        result = MatchResult.from_cells(
            left, right, tuple(reversed(left.paths())), right.paths()[1:], [1], [0], [0.5]
        )
        assert result.as_tuples() == [("L.A.x", "R.B.u", 0.5)]

    def test_a_second_thread_never_sees_a_half_built_pair_dict(self, pair, monkeypatch):
        left, right = pair
        sources, targets = left.paths(), right.paths()
        key = Correspondence.pair

        def slow_key(correspondence):  # yields the GIL while the dict is built
            time.sleep(0.0005)
            return key.fget(correspondence)

        monkeypatch.setattr(Correspondence, "pair", property(slow_key))
        for _ in range(10):
            result = MatchResult.from_cells(
                left, right, sources, targets, [0, 0, 0, 1, 1, 1, 2, 2, 2], [0, 1, 2] * 3,
                [0.5] * 9,
            )
            barrier = threading.Barrier(4)
            seen = []

            def look_up():
                barrier.wait()
                seen.append(sum(result.similarity_of(s, t) is not None
                                for s in sources for t in targets))

            threads = [threading.Thread(target=look_up) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert seen == [9, 9, 9, 9]
