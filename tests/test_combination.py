"""Tests for the combination framework: matrix, cube, aggregation, direction, selection."""

import random

import numpy as np
import pytest

from repro.combination.aggregation import (
    AVERAGE,
    MAX,
    MIN,
    WeightedAggregation,
    aggregation_by_name,
)
from repro.combination.combined import AVERAGE_COMBINED, DICE_COMBINED, combined_similarity_by_name
from repro.combination.cube import SimilarityCube
from repro.combination.direction import (
    BOTH,
    LARGE_SMALL,
    SMALL_LARGE,
    SelectedCells,
    direction_by_name,
)
from repro.combination.matrix import SimilarityMatrix
from repro.combination.selection import CombinedSelection, MaxDelta, MaxN, Threshold
from repro.combination.strategy import (
    CombinationStrategy,
    default_combination,
    parse_combination,
    parse_selection,
)
from repro.exceptions import CombinationError, StrategyError
from repro.model.builder import SchemaBuilder


@pytest.fixture()
def axes():
    left = SchemaBuilder("L")
    with left.inner("A"):
        left.leaves("a1", "a2", "a3")
    left_schema = left.build()
    right = SchemaBuilder("R")
    with right.inner("B"):
        right.leaves("b1", "b2")
    right_schema = right.build()
    # exclude the inner paths for a compact 3x2 matrix
    sources = left_schema.leaf_paths()
    targets = right_schema.leaf_paths()
    return sources, targets


class TestSimilarityMatrix:
    def test_set_get_and_bounds(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        matrix.set(sources[0], targets[0], 0.7)
        assert matrix.get(sources[0], targets[0]) == 0.7
        with pytest.raises(CombinationError):
            matrix.set(sources[0], targets[0], 1.2)

    def test_shape_validation(self, axes):
        sources, targets = axes
        with pytest.raises(CombinationError):
            SimilarityMatrix(sources, targets, np.zeros((2, 2)))
        with pytest.raises(CombinationError):
            SimilarityMatrix([], targets)

    def test_ranked_targets_and_sources(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        matrix.set(sources[0], targets[0], 0.3)
        matrix.set(sources[0], targets[1], 0.9)
        ranked = matrix.ranked_targets(sources[0])
        assert ranked[0][0] == targets[1]
        ranked_sources = matrix.ranked_sources(targets[1])
        assert ranked_sources[0][0] == sources[0]

    def test_values_read_only(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        with pytest.raises(ValueError):
            matrix.values[0, 0] = 1.0

    def test_nonzero_pairs_and_fill_from(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        matrix.set(sources[0], targets[0], 0.4)
        matrix.set(sources[2], targets[1], 0.6)
        assert matrix.nonzero_pairs() == [
            (sources[0], targets[0], 0.4), (sources[2], targets[1], 0.6)
        ]


class TestSimilarityCube:
    def test_layers_and_cell(self, axes):
        sources, targets = axes
        cube = SimilarityCube.from_layers(sources, targets, [
            ("Name", SimilarityMatrix.filled(sources, targets, 0.4)),
            ("DataType", SimilarityMatrix.filled(sources, targets, 0.8)),
        ])
        assert cube.matcher_names == ("Name", "DataType")
        assert cube.shape == (2, 3, 2)
        assert cube.as_array()[:, 0, 0].tolist() == [0.4, 0.8]
        assert [name for name, _ in cube.layers()] == ["Name", "DataType"]
        assert cube.layer("DataType").get(sources[0], targets[0]) == 0.8
        assert "Name" in cube and "Other" not in cube

    def test_axis_mismatch_rejected(self, axes):
        sources, targets = axes
        with pytest.raises(CombinationError):
            SimilarityCube.from_layers(
                sources, targets, [("bad", SimilarityMatrix.filled(sources[:2], targets, 0.5))]
            )
        with pytest.raises(CombinationError):
            SimilarityCube(sources, targets, ("Name",), np.zeros((1, 2, 2)))
        with pytest.raises(CombinationError):
            SimilarityCube(sources, targets, ("Name", "Name"), np.zeros((2, 3, 2)))

    def test_missing_layer(self, axes):
        sources, targets = axes
        cube = SimilarityCube.from_layers(sources, targets, [])
        with pytest.raises(CombinationError):
            cube.layer("Name")

    def test_the_stack_is_the_cube_and_read_only(self, axes):
        sources, targets = axes
        cube = SimilarityCube.from_layers(
            sources, targets, [("Name", SimilarityMatrix.filled(sources, targets, 0.4))]
        )
        stack = cube.as_array()
        assert cube.as_array() is stack
        assert stack.flags.c_contiguous and stack.dtype == np.float64
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0
        # A layer is a copy: writing it leaves the cube as it was.
        layer = cube.layer("Name")
        layer.set(sources[0], targets[0], 1.0)
        assert stack[0, 0, 0] == 0.4


class TestAggregation:
    def _cube(self, axes):
        sources, targets = axes
        return SimilarityCube.from_layers(sources, targets, [
            ("m1", SimilarityMatrix.filled(sources, targets, 0.2)),
            ("m2", SimilarityMatrix.filled(sources, targets, 0.8)),
        ])

    def test_max_min_average(self, axes):
        cube = self._cube(axes)
        assert MAX.aggregate(cube).values.max() == pytest.approx(0.8)
        assert MIN.aggregate(cube).values.max() == pytest.approx(0.2)
        assert AVERAGE.aggregate(cube).values.max() == pytest.approx(0.5)

    def test_weighted_named(self, axes):
        cube = self._cube(axes)
        weighted = WeightedAggregation({"m1": 0.25, "m2": 0.75})
        assert weighted.aggregate(cube).values.max() == pytest.approx(0.65)

    def test_weighted_positional(self, axes):
        cube = self._cube(axes)
        weighted = WeightedAggregation([1.0, 3.0])
        assert weighted.aggregate(cube).values.max() == pytest.approx(0.65)

    def test_weighted_validation(self, axes):
        cube = self._cube(axes)
        with pytest.raises(CombinationError):
            WeightedAggregation({})
        with pytest.raises(CombinationError):
            WeightedAggregation({"m1": -1.0})
        with pytest.raises(CombinationError):
            WeightedAggregation([1.0]).aggregate(cube)
        with pytest.raises(CombinationError):
            WeightedAggregation({"other": 1.0}).aggregate(cube)

    def test_empty_cube_rejected(self, axes):
        sources, targets = axes
        with pytest.raises(CombinationError):
            MAX.aggregate(SimilarityCube.from_layers(sources, targets, []))

    def test_by_name(self):
        assert aggregation_by_name("max") is MAX
        assert aggregation_by_name("Average") is AVERAGE
        with pytest.raises(CombinationError):
            aggregation_by_name("median")


class TestSelection:
    def _ranked(self, axes):
        sources, targets = axes
        return [(sources[0], 0.9), (sources[1], 0.88), (sources[2], 0.4)]

    def test_maxn(self, axes):
        ranked = self._ranked(axes)
        assert len(MaxN(1).select(ranked)) == 1
        assert len(MaxN(2).select(ranked)) == 2
        with pytest.raises(CombinationError):
            MaxN(0)

    def test_maxdelta_relative_and_absolute(self, axes):
        ranked = self._ranked(axes)
        assert len(MaxDelta(0.02).select(ranked)) == 1
        assert len(MaxDelta(0.03).select(ranked)) == 2
        assert len(MaxDelta(0.02, relative=False).select(ranked)) == 2

    def test_threshold(self, axes):
        ranked = self._ranked(axes)
        assert len(Threshold(0.5).select(ranked)) == 2
        assert len(Threshold(0.95).select(ranked)) == 0
        with pytest.raises(CombinationError):
            Threshold(0.0)

    def test_zero_similarity_never_selected(self, axes):
        sources, _ = axes
        ranked = [(sources[0], 0.0), (sources[1], 0.0)]
        assert MaxN(1).select(ranked) == []
        assert MaxDelta(0.1).select(ranked) == []
        assert Threshold(0.5).select(ranked) == []

    def test_combined_selection(self, axes):
        ranked = self._ranked(axes)
        combined = Threshold(0.5) + MaxN(1)
        assert len(combined.select(ranked)) == 1
        assert "Thr(0.5)" in combined.name and "MaxN(1)" in combined.name
        with pytest.raises(CombinationError):
            CombinedSelection([MaxN(1)])

    def test_combined_selection_flattens(self):
        combined = (Threshold(0.5) + MaxN(1)) + MaxDelta(0.02)
        assert len(combined.strategies) == 3


class TestDirection:
    def _matrix(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        matrix.set(sources[0], targets[0], 0.9)
        matrix.set(sources[1], targets[0], 0.8)
        matrix.set(sources[1], targets[1], 0.7)
        matrix.set(sources[2], targets[1], 0.95)
        return matrix, sources, targets

    def test_both_requires_mutual_best(self, axes):
        matrix, sources, targets = self._matrix(axes)
        pairs = BOTH.select_pairs(matrix, MaxN(1))
        assert (sources[0], targets[0], 0.9) in pairs
        assert (sources[2], targets[1], 0.95) in pairs
        assert not any(p[0] == sources[1] for p in pairs)

    def test_large_small_selects_for_smaller_schema(self, axes):
        matrix, sources, targets = self._matrix(axes)
        # rows (3) > columns (2) -> LargeSmall selects S1 candidates per S2 element
        pairs = LARGE_SMALL.select_pairs(matrix, MaxN(1))
        assert len(pairs) == 2
        assert {p[1] for p in pairs} == set(targets)

    def test_small_large_selects_for_larger_schema(self, axes):
        matrix, sources, targets = self._matrix(axes)
        pairs = SMALL_LARGE.select_pairs(matrix, MaxN(1))
        assert {p[0] for p in pairs} == set(sources)

    def test_by_name(self):
        assert direction_by_name("both") is BOTH
        with pytest.raises(CombinationError):
            direction_by_name("sideways")


class TestCombinedSimilarity:
    def test_figure7_example(self, axes):
        """Figure 7: Average = 0.74, Dice = 0.86 for the 4+3 element example."""
        sources, targets = axes
        left = SchemaBuilder("X")
        with left.inner("S1"):
            left.leaves("s11", "s12", "s13", "s14")
        left_schema = left.build()
        right = SchemaBuilder("Y")
        with right.inner("S2"):
            right.leaves("s21", "s22", "s23")
        right_schema = right.build()
        s1 = {p.name: p for p in left_schema.leaf_paths()}
        s2 = {p.name: p for p in right_schema.leaf_paths()}
        pairs = [
            (s1["s11"], s2["s23"], 0.8),
            (s1["s12"], s2["s22"], 0.8),
            (s1["s13"], s2["s21"], 1.0),
        ]
        assert AVERAGE_COMBINED.combine(pairs, 4, 3) == pytest.approx(0.742857, abs=1e-4)
        assert DICE_COMBINED.combine(pairs, 4, 3) == pytest.approx(6 / 7)

    def test_empty_pairs(self):
        assert AVERAGE_COMBINED.combine([], 3, 3) == 0.0
        assert DICE_COMBINED.combine([], 3, 3) == 0.0

    def test_invalid_sizes(self):
        with pytest.raises(CombinationError):
            AVERAGE_COMBINED.combine([], 0, 3)

    def test_equal_when_all_similarities_one(self, axes):
        sources, targets = axes
        pairs = [(sources[0], targets[0], 1.0), (sources[1], targets[1], 1.0)]
        assert AVERAGE_COMBINED.combine(pairs, 3, 2) == DICE_COMBINED.combine(pairs, 3, 2)

    def test_by_name(self):
        assert combined_similarity_by_name("dice") is DICE_COMBINED
        with pytest.raises(CombinationError):
            combined_similarity_by_name("jaccard")

    @pytest.mark.parametrize("seed", range(4))
    def test_cell_kernel_keeps_the_bits_of_the_per_pair_loop(self, seed):
        # Exact ties, repeated elements, and sums whose bits depend on their order.
        values = (0.1, 0.2, 0.3, 1 / 3, 0.5 + 1e-12, 0.7, 1.0, float("nan"))
        rng = random.Random(seed)
        for _ in range(150):
            count = rng.randint(0, 12)
            cells = SelectedCells(
                np.array([rng.randrange(6) for _ in range(count)], dtype=np.intp),
                np.array([rng.randrange(5) for _ in range(count)], dtype=np.intp),
                np.array([rng.choice(values) for _ in range(count)]),
            )
            for combined in (AVERAGE_COMBINED, DICE_COMBINED):
                expected = _per_pair_loop(combined, cells, 6, 5)
                assert combined.combine_cells(cells, 6, 5).hex() == expected.hex(), cells


def _per_pair_loop(combined, cells, source_size, target_size) -> float:
    """The per-pair dict loop the cell kernel replaced: the reference for its bits."""
    sources, targets = {}, {}
    for source, target, similarity in zip(*(part.tolist() for part in cells)):
        sources[source] = max(sources.get(source, 0.0), similarity)
        targets[target] = max(targets.get(target, 0.0), similarity)
    if combined is DICE_COMBINED:
        matched = len(sources) + len(targets)
    else:
        matched = sum(sources.values()) + sum(targets.values())
    return min(1.0, max(0.0, matched / (source_size + target_size)))


class TestCombinationStrategy:
    def test_default_combination_description(self):
        strategy = default_combination()
        assert "Average" in strategy.describe()
        assert "Both" in strategy.describe()
        assert "Thr(0.5)" in strategy.describe()

    def test_run_pipeline(self, axes):
        sources, targets = axes
        matrix = SimilarityMatrix(sources, targets)
        matrix.set(sources[0], targets[0], 0.9)
        cube = SimilarityCube.from_layers(sources, targets, [("Name", matrix)])
        strategy = default_combination()
        selected = strategy.select(strategy.aggregate(cube))
        similarity = strategy.combine_pairs(selected, len(sources), len(targets))
        rows, columns, values = (part.tolist() for part in selected)
        pairs = [(sources[i], targets[j], v) for i, j, v in zip(rows, columns, values)]
        assert pairs == [(sources[0], targets[0], 0.9)]
        assert similarity == pytest.approx((0.9 + 0.9) / 5)

    def test_replaced(self):
        strategy = default_combination().replaced(aggregation=MAX)
        assert strategy.aggregation is MAX
        assert strategy.direction is BOTH

    def test_parse_selection(self):
        assert str(parse_selection("MaxN(2)")) == "MaxN(2)"
        assert str(parse_selection("Thr(0.5)+Delta(0.02)")).startswith("Thr(0.5)")
        assert str(parse_selection("Max1")) == "MaxN(1)"
        with pytest.raises(StrategyError):
            parse_selection("Unknown(1)")
        with pytest.raises(StrategyError):
            parse_selection("MaxN(abc)")
        with pytest.raises(StrategyError):
            parse_selection("   ")

    def test_parse_combination(self):
        strategy = parse_combination("Max", "LargeSmall", "MaxN(1)", "Dice")
        assert str(strategy.aggregation) == "Max"
        assert str(strategy.direction) == "LargeSmall"
        assert str(strategy.combined_similarity) == "Dice"
