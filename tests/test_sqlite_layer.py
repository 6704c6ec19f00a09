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
from repro.datasets.purchase_orders import load_all_schemas
from repro.exceptions import RepositoryError, SearchError
from repro.repository import Repository, SimilarityStore
from repro.search import SchemaCorpus
from repro.search.intervals import interval_encode
from repro.session import MatchSession


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
        assert old_info["cubes"] == 1 and old_info["external"] == 0
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

    def test_corpus_with_the_node_table(self, tmp_path):
        path = str(tmp_path / "old-corpus.db")
        schemas = list(load_all_schemas().values())
        with SchemaCorpus(path) as corpus:
            corpus.add_many(schemas)
            ranks = _rank_lists(corpus, schemas)
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(_CORPUS_NODES_DDL)
            ids = dict(connection.execute("SELECT name, schema_id FROM corpus_schemas"))
            connection.executemany(
                "INSERT INTO corpus_nodes VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (ids[schema.name], node.pre, node.post, node.depth, node.size,
                     node.name.lower(), node.dotted)
                    for schema in schemas
                    for node in interval_encode(schema)
                ],
            )
        connection.close()
        rows = _rows(path, exclude="corpus_nodes")
        assert "corpus_nodes" in _tables(path)
        with SchemaCorpus(path) as corpus:
            assert _rank_lists(corpus, schemas) == ranks
        assert "corpus_nodes" not in _tables(path)
        assert _rows(path) == rows
        _assert_second_open_changes_nothing(path, SchemaCorpus)

    def test_repository_with_the_cube_table(self, tmp_path, po1, po2):
        path = str(tmp_path / "old-repository.db")
        with Repository(path) as repository:
            repository.store_schema(po1)
            repository.store_mapping(MatchSession().match(po1, po2).result)
            repository.store_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
            stored = _repository_contents(repository)
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(_CUBE_ENTRIES_DDL)
            connection.executemany(
                "INSERT INTO cube_entries VALUES (?, ?, ?, ?, ?)",
                [("PO1<->PO2", "Name", "PO1.ShipTo", "PO2.DeliverTo", 0.5)] * 3,
            )
        connection.close()
        rows = _rows(path, exclude="cube_entries")
        with Repository(path) as repository:
            assert _repository_contents(repository) == stored
        assert "cube_entries" not in _tables(path)
        assert _rows(path) == rows
        _assert_second_open_changes_nothing(path, Repository)


#: The node interval table schema corpus files held until it was dropped.
_CORPUS_NODES_DDL = """
CREATE TABLE corpus_nodes (
    schema_id  INTEGER NOT NULL,
    pre        INTEGER NOT NULL,
    post       INTEGER NOT NULL,
    depth      INTEGER NOT NULL,
    size       INTEGER NOT NULL,
    label      TEXT NOT NULL,
    dotted     TEXT NOT NULL,
    PRIMARY KEY (schema_id, pre)
) WITHOUT ROWID;
CREATE INDEX corpus_nodes_by_label_size ON corpus_nodes (label, size);
"""

#: The cube table repository files held until it was dropped.
_CUBE_ENTRIES_DDL = """
CREATE TABLE cube_entries (
    task         TEXT NOT NULL,
    matcher      TEXT NOT NULL,
    source_path  TEXT NOT NULL,
    target_path  TEXT NOT NULL,
    similarity   REAL NOT NULL
);
CREATE INDEX idx_cube_task ON cube_entries (task, matcher);
"""


def _rows(path, exclude=None):
    """Every row of every table (but ``exclude``), by table name."""
    connection = sqlite3.connect(path)
    try:
        return {
            table: sorted(connection.execute(f"SELECT * FROM {table}"), key=repr)
            for table in _tables(path)
            if table != exclude
        }
    finally:
        connection.close()


def _rank_lists(corpus, schemas):
    return [
        [(c.name, c.score.hex(), c.digest) for c in corpus.rank_schema(schema)]
        for schema in schemas
    ]


def _repository_contents(repository):
    return (
        repository.schema_names(),
        repository.stored_mappings(),
        [repository.strategy_spec(name) for name in repository.strategy_names()],
    )


def _assert_second_open_changes_nothing(path, component):
    before = open(path, "rb").read()
    component(path).close()
    assert open(path, "rb").read() == before
