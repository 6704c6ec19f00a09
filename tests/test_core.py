"""Tests for the match operation, strategies and the iterative processor."""

import numpy as np
import pytest

from repro.combination import SimilarityCube, SimilarityMatrix
from repro.combination.combined import DICE_COMBINED
from repro.combination.strategy import default_combination, parse_combination
from repro.core.match_operation import build_context, combine_cube
from repro.core.processor import MatchProcessor
from repro.core.strategy import MatchStrategy, default_strategy, single_matcher_strategy
from repro.engine.engine import MatchEngine
from repro.exceptions import ComaError, StrategyError
from repro.matchers.hybrid import NameMatcher
from repro.matchers.simple.user_feedback import UserFeedbackStore
from repro.session import MatchSession


class TestMatchStrategy:
    def test_default_strategy_runs_all_hybrids(self):
        strategy = default_strategy()
        assert strategy.matcher_names() == ("Name", "NamePath", "TypeName", "Children", "Leaves")
        assert strategy.name == "All"

    def test_resolve_matchers_by_name_and_instance(self):
        strategy = MatchStrategy(matchers=["Name", NameMatcher()])
        resolved = strategy.resolve_matchers()
        assert len(resolved) == 2
        assert all(m.name == "Name" for m in resolved)

    def test_invalid_reference_rejected(self):
        with pytest.raises(StrategyError):
            MatchStrategy(matchers=[42]).resolve_matchers()

    def test_empty_matchers_rejected(self):
        with pytest.raises(StrategyError):
            MatchStrategy(matchers=[]).resolve_matchers()

    def test_single_matcher_strategy(self):
        strategy = single_matcher_strategy("NamePath")
        assert strategy.matcher_names() == ("NamePath",)
        assert "NamePath" in strategy.describe()

    def test_replaced(self):
        strategy = default_strategy().replaced(matchers=["Name"], name="just-name")
        assert strategy.matcher_names() == ("Name",)
        assert strategy.name == "just-name"


class TestMatchOperation:
    def test_execute_matchers_builds_cube(self, tiny_pair, tiny_context):
        left, right = tiny_pair
        cube = MatchEngine().execute([NameMatcher()], tiny_context)
        assert cube.matcher_names == ("Name",)
        assert cube.shape == (1, len(left.paths()), len(right.paths()))

    def test_figure1_default_match_finds_city_correspondences(self, po1, po2):
        outcome = MatchSession().match(po1, po2)
        pairs = outcome.result.pair_set()
        assert ("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City") in pairs or (
            "PO1.Customer.custCity",
            "PO2.PO2.DeliverTo.Address.City",
        ) in pairs
        assert 0.0 <= outcome.schema_similarity <= 1.0
        assert outcome.cube.shape[0] == 5

    def test_match_with_selected_matchers(self, po1, po2):
        outcome = MatchSession().match(po1, po2, strategy="NamePath")
        assert outcome.cube.matcher_names == ("NamePath",)

    def test_match_with_custom_combination(self, po1, po2):
        combination = parse_combination("Max", "Both", "MaxN(1)")
        strategy = default_strategy().replaced(combination=combination)
        outcome = MatchSession().match(po1, po2, strategy=strategy)
        assert outcome.strategy.combination.aggregation.name == "Max"

    def test_feedback_overrides_result(self, po1, po2):
        feedback = UserFeedbackStore()
        feedback.reject("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City")
        feedback.accept("PO1.ShipTo.shipToZip", "PO2.PO2.BillTo.Address.Zip")
        outcome = MatchSession().match(po1, po2, feedback=feedback)
        pairs = outcome.result.pair_set()
        assert ("PO1.ShipTo.shipToCity", "PO2.PO2.DeliverTo.Address.City") not in pairs
        assert ("PO1.ShipTo.shipToZip", "PO2.PO2.BillTo.Address.Zip") in pairs

    def test_schema_similarity_from_reference(self, po1, po2):
        from repro.datasets.figure1 import figure1_reference_mapping

        reference = figure1_reference_mapping(po1, po2)
        pairs = [(c.source, c.target, c.similarity) for c in reference]
        value = DICE_COMBINED.combine(pairs, len(po1.paths()), len(po2.paths()))
        expected = (len(reference.matched_sources()) + len(reference.matched_targets())) / (
            len(po1.paths()) + len(po2.paths())
        )
        assert value == pytest.approx(expected)

    def test_a_kept_value_outside_the_unit_interval_raises(self, po1, po2):
        context = build_context(po1, po2)
        shape = (len(po1.paths()), len(po2.paths()))
        cube = SimilarityCube.from_layers(po1.paths(), po2.paths(), [
            ("Name", SimilarityMatrix(po1.paths(), po2.paths(), np.full(shape, 1.5)))
        ])
        with pytest.raises(ValueError, match=r"within \[0, 1\], got 1.5 for PO1\."):
            combine_cube(cube, default_combination(), context)

    def test_match_with_strategy_records_strategy(self, po1, po2):
        strategy = MatchStrategy(matchers=["Name"], combination=default_combination())
        outcome = MatchSession().match(po1, po2, strategy)
        assert outcome.strategy is strategy


class TestMatchProcessor:
    def test_automatic_single_iteration(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        outcome = processor.run_iteration()
        assert len(processor.iterations) == 1
        assert processor.last_outcome is outcome

    def test_last_outcome_requires_iteration(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        with pytest.raises(ComaError):
            _ = processor.last_outcome

    def test_interactive_feedback_loop(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        first = processor.run_iteration()
        assert len(first.result) > 0
        # reject everything proposed, accept one pair manually
        for correspondence in first.result:
            processor.reject(correspondence.source, correspondence.target)
        processor.accept("PO1.Customer.custName", "PO2.PO2.BillTo.Address.Street")
        second = processor.run_iteration()
        current = processor.current_result()
        assert ("PO1.Customer.custName", "PO2.PO2.BillTo.Address.Street") in current
        for correspondence in first.result:
            assert (correspondence.source, correspondence.target) not in current
        assert len(processor.iterations) == 2
        assert second is processor.last_outcome

    def test_pending_candidates_shrink_with_feedback(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        processor.run_iteration()
        pending_before = processor.pending_candidates()
        assert pending_before
        first = pending_before[0]
        processor.accept(first.source, first.target)
        assert len(processor.pending_candidates()) == len(pending_before) - 1

    def test_accept_all(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        outcome = processor.run_iteration()
        processor.accept_all(outcome.result)
        assert len(processor.feedback.accepted_pairs) == len(outcome.result)

    def test_strategy_change_between_iterations(self, po1, po2):
        processor = MatchProcessor(po1, po2)
        processor.run_iteration()
        processor.set_strategy(single_matcher_strategy("NamePath"))
        outcome = processor.run_iteration()
        assert outcome.cube.matcher_names == ("NamePath",)

    def test_later_iterations_are_cube_hits_that_follow_feedback(self, po1, po2):
        session = MatchSession()
        processor = MatchProcessor(po1, po2, session=session)
        first = processor.run_iteration()
        rejected = processor.pending_candidates()[0]
        processor.reject(rejected.source, rejected.target)
        second = processor.run_iteration()
        accepted = (
            po1.find_path("PO1.Customer.custName"),
            po2.find_path("PO2.PO2.BillTo.Address.Street"),
        )
        processor.accept(*accepted)
        third = processor.run_iteration()
        info = session.cache_info()
        assert (info["cube_misses"], info["cube_hits"]) == (1, 2)
        assert second.cube is first.cube and third.cube is first.cube
        assert (rejected.source, rejected.target) in first.result
        assert (rejected.source, rejected.target) not in second.result
        assert (rejected.source, rejected.target) not in third.result
        assert accepted not in second.result and accepted in third.result
        # the cube hit combines exactly as a cold match under the same feedback
        cold = MatchSession().match(po1, po2, feedback=processor.feedback)
        assert third.result.as_tuples() == cold.result.as_tuples()
        assert third.schema_similarity == cold.schema_similarity

