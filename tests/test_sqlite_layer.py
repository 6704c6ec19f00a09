"""The SQLite layer shared by the repository, the store and the corpus.

Each component refuses a file that is not its own -- a non-SQLite file, or a
database holding tables but none of the component's -- with its typed error
and without touching a byte of it, while files of older versions that hold
the component's tables open and are brought up to date.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import console_main
from repro.exceptions import RepositoryError, SearchError
from repro.repository import Repository, SimilarityStore
from repro.search import SchemaCorpus


def _tables(path):
    connection = sqlite3.connect(path)
    try:
        return {
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
    finally:
        connection.close()


@pytest.fixture()
def store_file(tmp_path):
    path = str(tmp_path / "store.db")
    SimilarityStore(path).close()
    return path


class TestForeignFiles:
    def test_corpus_refuses_a_similarity_store(self, store_file, capsys):
        before = open(store_file, "rb").read()
        assert console_main(["corpus", store_file, "info"]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "not a schema corpus" in error
        assert "corpus_schemas" in error
        assert open(store_file, "rb").read() == before
        with pytest.raises(SearchError, match="corpus_meta"):
            SchemaCorpus(store_file)

    def test_repository_refuses_a_similarity_store(self, store_file, capsys):
        before = open(store_file, "rb").read()
        assert console_main(["strategies", "--repository", store_file]) == 1
        error = capsys.readouterr().err
        assert error.startswith("error: ") and "not a repository" in error
        assert "mapping_rows" in error and "strategies" in error
        assert open(store_file, "rb").read() == before
        assert _tables(store_file) == {"cubes", "tokens", "counters", "subtrees"}

    def test_repository_refuses_a_non_sqlite_file(self, tmp_path, capsys):
        text = tmp_path / "notes.txt"
        text.write_text("not a database\n")
        assert console_main(["strategies", "--repository", str(text)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot open repository")
        assert text.read_text() == "not a database\n"
        with pytest.raises(RepositoryError):
            Repository(str(text))


class TestOlderFiles:
    def test_store_before_the_dtype_columns_and_subtrees(self, tmp_path):
        path = str(tmp_path / "old-store.db")
        connection = sqlite3.connect(path)
        connection.executescript(
            "CREATE TABLE cubes (key TEXT PRIMARY KEY, source_digest TEXT, "
            "target_digest TEXT, matchers TEXT, config_digest TEXT, "
            "matcher_names TEXT, shape TEXT, data BLOB, created_at REAL);"
            "CREATE TABLE tokens (config_digest TEXT, name TEXT, tokens TEXT, "
            "PRIMARY KEY (config_digest, name));"
            "CREATE TABLE counters (name TEXT PRIMARY KEY, value INTEGER);"
            "INSERT INTO counters VALUES ('hits', 7);"
            "INSERT INTO cubes (key, data) VALUES ('cube', x'00112233');"
        )
        connection.close()
        original = (tmp_path / "old-store.db").read_bytes()
        with SimilarityStore(path, readonly=True) as store:
            assert store.subtree_count() == 0 and store.token_count() == 0
            # The columns the migrations add read as their defaults.
            old_info = store.info()
        assert (tmp_path / "old-store.db").read_bytes() == original
        assert old_info["cube_bytes"] == 4
        assert old_info["cube_dtypes"] == {"float64": {"cubes": 1, "bytes": 4, "external": 0}}
        with SimilarityStore(path, writer=False):
            pass  # the first writable open migrates the file
        with SimilarityStore(path, readonly=True) as store:
            assert store.info() == old_info
        with SimilarityStore(path, writer=False) as store:
            store.store_path_signatures("digest", ["a", "b"])
            assert store.load_path_signatures("digest") == ("a", "b")
        with SimilarityStore(path, readonly=True) as store:
            info = store.info()
        assert info["lifetime_hits"] == 7 and info["subtrees"] == 1

    def test_repository_before_named_strategies(self, tmp_path, po1):
        path = str(tmp_path / "old-repository.db")
        with Repository(path) as repository:
            repository.store_schema(po1)
        connection = sqlite3.connect(path)
        connection.execute("DROP TABLE strategies")
        connection.close()
        with Repository(path) as repository:
            assert repository.schema_names() == ("PO1",)
            repository.store_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
            assert repository.strategy_names() == ("tuned",)
