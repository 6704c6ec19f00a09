"""Tests for the Similarity Flooding baseline and the command-line interface."""

import pytest

from repro.baselines.similarity_flooding import SimilarityFloodingMatcher
from repro.cli import console_main, main
from repro.datasets.figure1 import PO1_DDL, PO2_XSD
from repro.exceptions import ComaError


class TestSimilarityFlooding:
    def test_values_bounded_and_converges(self, po1, po2, figure1_context):
        matcher = SimilarityFloodingMatcher(max_iterations=30)
        matrix = matcher.compute(po1.paths(), po2.paths(), figure1_context)
        assert matrix.values.min() >= 0.0
        assert matrix.values.max() <= 1.0

    def test_structure_boosts_connected_pairs(self, po1, po2, figure1_context):
        """Flooding should rank the structurally supported City pair above an unrelated pair."""
        matrix = SimilarityFloodingMatcher().compute(po1.paths(), po2.paths(), figure1_context)
        city = po1.find_path("PO1.ShipTo.shipToCity")
        good = po2.find_path("PO2.PO2.DeliverTo.Address.City")
        unrelated = po2.find_path("PO2.PO2.BillTo")
        assert matrix.get(city, good) > matrix.get(city, unrelated)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SimilarityFloodingMatcher(max_iterations=0)
        with pytest.raises(ValueError):
            SimilarityFloodingMatcher(residual_threshold=0.0)

    def test_no_structure_falls_back_to_initial(self, tiny_pair, tiny_context):
        left, right = tiny_pair
        # restrict to leaf paths only: no containment edges within the subsets
        matcher = SimilarityFloodingMatcher()
        matrix = matcher.compute(left.leaf_paths(), right.leaf_paths(), tiny_context)
        assert matrix.values.max() <= 1.0


class TestCli:
    @pytest.fixture()
    def schema_files(self, tmp_path):
        po1 = tmp_path / "po1.sql"
        po1.write_text(PO1_DDL, encoding="utf-8")
        po2 = tmp_path / "po2.xsd"
        po2.write_text(PO2_XSD, encoding="utf-8")
        return str(po1), str(po2)

    def test_match_command(self, schema_files, capsys):
        source, target = schema_files
        exit_code = main(["match", source, target])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "schema similarity" in captured
        assert "po1" in captured

    def test_match_command_with_options(self, schema_files, capsys):
        source, target = schema_files
        exit_code = main([
            "match", source, target,
            "--matchers", "NamePath", "Leaves",
            "--aggregation", "Max",
            "--selection", "MaxN(1)",
            "--min-similarity", "0.4",
        ])
        assert exit_code == 0
        assert "Mapping" in capsys.readouterr().out

    def test_stats_command(self, schema_files, capsys):
        source, _ = schema_files
        exit_code = main(["stats", source])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "max_depth" in captured

    def test_tasks_command(self, capsys):
        exit_code = main(["tasks"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "1<->2" in captured
        assert "schema_similarity" in captured

    def test_match_command_with_full_strategy_spec(self, schema_files, capsys):
        source, target = schema_files
        exit_code = main([
            "match", source, target,
            "--strategy", "NamePath+Leaves(Max,Both,MaxN(1),Average)",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "NamePath+Leaves(Max,Both,MaxN(1),Average)" in captured
        assert "schema similarity" in captured

    def test_match_command_rejects_strategy_and_matchers(self, schema_files):
        source, target = schema_files
        with pytest.raises(ComaError):
            main([
                "match", source, target,
                "--strategy", "All(Average,Both,MaxN(1),Average)",
                "--matchers", "Name",
            ])

    def test_match_command_rejects_strategy_and_combination_parts(self, schema_files):
        source, target = schema_files
        with pytest.raises(ComaError, match="--selection"):
            main([
                "match", source, target,
                "--strategy", "Name",
                "--selection", "MaxN(1)",
            ])
        # an explicitly passed default value is a conflict too
        with pytest.raises(ComaError, match="--aggregation"):
            main([
                "match", source, target,
                "--strategy", "Name",
                "--aggregation", "Average",
            ])

    def test_strategies_command_lists_library(self, capsys):
        exit_code = main(["strategies"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Matcher library" in captured
        assert "NamePath" in captured
        assert "no stored named strategies" in captured

    def test_strategies_save_and_match_by_name(self, schema_files, tmp_path, capsys):
        source, target = schema_files
        db = str(tmp_path / "repo.db")
        exit_code = main([
            "strategies", "--repository", db,
            "--save", "tuned", "All(Max,Both,Thr(0.6),Dice)",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "tuned" in captured
        assert "All(Max,Both,Thr(0.6),Dice)" in captured
        # the stored name is addressable from `coma match`
        exit_code = main(["match", source, target, "--repository", db,
                          "--strategy", "tuned"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "All(Max,Both,Thr(0.6),Dice)" in captured

    def test_unreadable_schema_files_exit_1(self, schema_files, tmp_path, capsys):
        """A missing, directory or non-UTF-8 schema path: one error line, exit 1."""
        from repro.search import SchemaCorpus

        source, target = schema_files
        corpus = str(tmp_path / "corpus.db")
        SchemaCorpus(corpus).close()
        (tmp_path / "folder.sql").mkdir()
        (tmp_path / "latin1.sql").write_bytes("CREATE TABLE caf\xe9 (a INT);".encode("latin-1"))
        for bad in ("missing.sql", "folder.sql", "latin1.sql"):
            path = str(tmp_path / bad)
            for command in (
                ["match", path, target],
                ["rematch", source, path, target],
                ["stats", path],
                ["search", path, "--corpus", corpus],
                ["corpus", corpus, "add", path],
            ):
                assert console_main(command) == 1, command
                error = capsys.readouterr().err
                assert error.startswith("error: ") and error.count("\n") == 1, error
                assert path in error, error

    def test_strategies_save_requires_repository(self):
        with pytest.raises(ComaError):
            main(["strategies", "--save", "x", "Name"])

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])
