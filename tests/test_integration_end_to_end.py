"""End-to-end integration tests crossing all subsystems.

These tests walk the full workflow a downstream user would follow: import
external schemas, match them, evaluate against a reference, store everything
in the repository, and reuse stored mappings for a later match task.
"""

import pytest

from repro import MatchSession, Repository
from repro.core.match_operation import build_context
from repro.core.processor import MatchProcessor
from repro.datasets.figure1 import figure1_reference_mapping
from repro.datasets.gold_standard import load_task
from repro.datasets.purchase_orders import load_schema
from repro.evaluation.metrics import evaluate_mapping
from repro.importers.registry import DEFAULT_IMPORTERS
from repro.matchers.registry import DEFAULT_LIBRARY
from repro.matchers.reuse.schema_reuse import SchemaReuseMatcher


class TestImportMatchEvaluate:
    def test_figure1_quality_is_reasonable(self, po1, po2):
        outcome = MatchSession().match(po1, po2)
        reference = figure1_reference_mapping(po1, po2)
        quality = evaluate_mapping(outcome.result, reference)
        # the default operation should find at least half of the reference
        # correspondences on the paper's own running example
        assert quality.recall >= 0.5
        assert quality.precision >= 0.5

    def test_purchase_order_task_with_default_operation(self):
        task = load_task(1, 2)
        outcome = MatchSession().match(task.source, task.target)
        quality = evaluate_mapping(outcome.result, task.reference)
        assert quality.recall >= 0.5
        assert quality.overall > 0.0

    def test_file_import_then_match(self, tmp_path):
        from repro.datasets.figure1 import PO1_DDL, PO2_XSD

        sql_path = tmp_path / "orders.sql"
        sql_path.write_text(PO1_DDL, encoding="utf-8")
        xsd_path = tmp_path / "orders.xsd"
        xsd_path.write_text(PO2_XSD, encoding="utf-8")
        source = DEFAULT_IMPORTERS.import_file(sql_path, name="PO1")
        target = DEFAULT_IMPORTERS.import_file(xsd_path, name="PO2")
        outcome = MatchSession().match(source, target)
        assert len(outcome.result) > 0


class TestRepositoryReuseWorkflow:
    def test_store_confirm_and_reuse(self):
        """Match 1<->2 and 2<->3 automatically, confirm them, then reuse for 1<->3."""
        cidx = load_schema("CIDX")
        excel = load_schema("Excel")
        noris = load_schema("Noris")

        with Repository() as repository:
            repository.store_schema(cidx)
            repository.store_schema(excel)
            repository.store_schema(noris)

            session = MatchSession()
            first = session.match(cidx, excel)
            second = session.match(excel, noris)
            repository.store_mapping(first.result, origin="manual")
            repository.store_mapping(second.result, origin="manual")

            context = build_context(cidx, noris, repository=repository)
            reuse_matcher = SchemaReuseMatcher(origin="manual")
            matrix = reuse_matcher.compute(cidx.paths(), noris.paths(), context)
            assert matrix.values.max() > 0.0

            # the composed reuse layer should agree with the gold standard on
            # at least some of the strongest pairs
            task = load_task(1, 3)
            strong_pairs = {
                (source.dotted(), target.dotted())
                for source, target, value in matrix.nonzero_pairs()
                if value >= 0.7
            }
            gold = task.reference.pair_set()
            assert strong_pairs & gold

    def test_schema_round_trip_preserves_match_behaviour(self):
        cidx = load_schema("CIDX")
        excel = load_schema("Excel")
        with Repository() as repository:
            repository.store_schema(cidx)
            repository.store_schema(excel)
            restored_cidx = repository.load_schema("CIDX")
            restored_excel = repository.load_schema("Excel")
        direct = MatchSession().match(cidx, excel)
        restored = MatchSession().match(restored_cidx, restored_excel)
        assert direct.result.pair_set() == restored.result.pair_set()


class TestInteractiveImprovement:
    def test_feedback_improves_quality(self):
        """Accepting gold pairs and rejecting false positives must not hurt quality."""
        task = load_task(1, 2)
        processor = MatchProcessor(task.source, task.target)
        first = processor.run_iteration()
        before = evaluate_mapping(first.result, task.reference)

        gold = task.reference.pair_set()
        # simulate a user reviewing the first ten proposals
        for correspondence in list(first.result)[:10]:
            key = (correspondence.source.dotted(), correspondence.target.dotted())
            if key in gold:
                processor.accept(correspondence.source, correspondence.target)
            else:
                processor.reject(correspondence.source, correspondence.target)
        processor.run_iteration()
        after = evaluate_mapping(processor.current_result(), task.reference)
        assert after.precision >= before.precision
        assert after.overall >= before.overall


class TestLibraryExtensibility:
    def test_custom_matcher_can_be_registered_and_used(self, po1, po2):
        from repro.combination.matrix import SimilarityMatrix
        from repro.matchers.base import Matcher

        class ConstantMatcher(Matcher):
            name = "Constant"
            kind = "simple"

            def compute(self, source_paths, target_paths, context):
                return SimilarityMatrix.filled(source_paths, target_paths, 0.6)

        # Register on a private copy: mutating the process-wide DEFAULT_LIBRARY
        # would leak into every later test (and make the parent process digest
        # differently from freshly spawned match workers).
        from repro.matchers.registry import default_library

        library = default_library()
        library.register("Constant", ConstantMatcher, kind="simple")
        session = MatchSession(library=library)
        outcome = session.match(po1, po2, strategy="Constant+NamePath")
        assert "Constant" in outcome.cube.matcher_names
