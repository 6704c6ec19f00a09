"""Tests for the corpus-search subsystem (repro/search/).

Covers the interval encoding, the inverted candidate index (round trip,
incremental add/remove, determinism), the recall invariant the pruning rests
on, the session / service / CLI wiring -- including the byte-identity of
``POST /search`` with the in-process ``MatchSession.search`` path -- and the
``coma stats --store`` failure modes.
"""

import itertools
import os
import random
import sqlite3

import numpy as np
import pytest

from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_corpus, generate_schema, mutate_schema
from repro.datasets.gold_standard import load_all_tasks
from repro.datasets.purchase_orders import load_all_schemas
from repro.exceptions import RepositoryError, SearchError, SessionError
from repro.linguistic.tokenizer import NameTokenizer
from repro.engine.profiles import PathSetProfile
from repro.search import (
    CorpusSearcher,
    SchemaCorpus,
    interval_encode,
    schema_vocabulary,
)
from repro.search.corpus import KIND_WEIGHTS, TERM_KINDS, vocabulary_norm
from repro.session import MatchSession


# -- interval encoding ---------------------------------------------------------


class TestIntervalEncoding:
    def test_pre_post_are_permutations(self):
        for schema in (load_po1(), load_po2()):
            nodes = interval_encode(schema)
            count = len(schema.paths()) + 1
            assert len(nodes) == count
            assert sorted(node.pre for node in nodes) == list(range(count))
            assert sorted(node.post for node in nodes) == list(range(count))

    def test_containment_matches_path_prefixes(self):
        """pre/post nesting must coincide exactly with path containment."""
        schema = load_po2()
        nodes = interval_encode(schema)
        for ancestor in nodes:
            for descendant in nodes:
                if ancestor is descendant:
                    continue
                expected = ancestor.path is None or (
                    descendant.path is not None
                    and descendant.path.startswith(ancestor.path)
                    and len(descendant.path) > len(ancestor.path)
                )
                assert ancestor.contains(descendant) == expected, (
                    ancestor.dotted,
                    descendant.dotted,
                )

    def test_subtree_size_counts_descendants(self):
        schema = load_po1()
        nodes = interval_encode(schema)
        for node in nodes:
            descendants = sum(1 for other in nodes if node.contains(other))
            assert node.size == descendants + 1
            low, high = node.leaf_window
            inside = [other for other in nodes if low <= other.pre <= high]
            assert len(inside) == node.size

    def test_root_node(self):
        nodes = interval_encode(load_po1())
        root = nodes[0]
        assert root.is_root and root.pre == 0 and root.depth == 0
        assert root.size == len(nodes)


# -- the corpus index ----------------------------------------------------------


class TestSchemaCorpus:
    def test_add_and_rank(self):
        corpus = SchemaCorpus(":memory:")
        corpus.add_many(load_all_schemas().values())
        assert len(corpus) == 5
        session = MatchSession()
        ranked = corpus.rank_schema(
            load_all_schemas()["CIDX"],
            profile=session.profile_for(load_all_schemas()["CIDX"]),
        )
        assert [c.name for c in ranked[:1]] != ["CIDX"]  # self excluded
        assert all(c.score > 0 for c in ranked)
        assert sorted(ranked, key=lambda c: (-c.score, c.name)) == ranked
        corpus.close()

    def test_rank_is_deterministic(self):
        corpus = SchemaCorpus(":memory:")
        corpus.add_many(load_all_schemas().values())
        query = load_po1()
        first = corpus.rank_schema(query)
        second = corpus.rank_schema(query)
        assert [(c.name, c.score) for c in first] == [
            (c.name, c.score) for c in second
        ]
        corpus.close()

    def test_round_trip_reopen_identical_candidates(self, tmp_path):
        """register -> persist -> reopen -> identical candidate sets."""
        path = str(tmp_path / "corpus.db")
        schemas = list(load_all_schemas().values())
        with SchemaCorpus(path) as corpus:
            corpus.add_many(schemas)
            before = [
                (c.name, c.score, c.digest)
                for c in corpus.rank_schema(load_po1())
            ]
            info_before = corpus.info()
        with SchemaCorpus(path) as reopened:
            after = [
                (c.name, c.score, c.digest)
                for c in reopened.rank_schema(load_po1())
            ]
            assert after == before
            info_after = reopened.info()
            for key in ("schemas", "terms", "postings"):
                assert info_after[key] == info_before[key]
            # The stored documents rebuild the identical schemas.
            for schema in schemas:
                loaded = reopened.load(schema.name)
                assert [p.dotted() for p in loaded.paths()] == [
                    p.dotted() for p in schema.paths()
                ]

    def test_incremental_add_matches_fresh_build(self):
        """Adding one by one must equal building the corpus in one go."""
        schemas = list(load_all_schemas().values())
        incremental = SchemaCorpus(":memory:")
        for schema in schemas:
            incremental.add(schema)
        fresh = SchemaCorpus(":memory:")
        fresh.add_many(schemas)
        query = load_po1()
        assert [(c.name, c.score) for c in incremental.rank_schema(query)] == [
            (c.name, c.score) for c in fresh.rank_schema(query)
        ]
        incremental.close()
        fresh.close()

    def test_remove_behaves_as_never_registered(self):
        """remove() must fully undo add(): postings, dfs and vocabulary."""
        schemas = list(load_all_schemas().values())
        without = SchemaCorpus(":memory:")
        without.add_many(schemas[1:])
        both = SchemaCorpus(":memory:")
        both.add_many(schemas)
        assert both.remove(schemas[0].name) is True
        assert both.remove(schemas[0].name) is False  # already gone
        query = load_po1()
        removed = both.rank_schema(query)
        reference = without.rank_schema(query)
        assert [c.name for c in removed] == [c.name for c in reference]
        # Term ids differ between the two corpora, so the float accumulation
        # order differs: scores agree to rounding, not bit-for-bit.
        assert [c.score for c in removed] == pytest.approx(
            [c.score for c in reference]
        )
        for key in ("schemas", "terms", "postings"):
            assert both.info()[key] == without.info()[key]
        without.close()
        both.close()

    def test_replace_updates_registration(self):
        corpus = SchemaCorpus(":memory:")
        corpus.add(load_po1())
        mutant = mutate_schema(load_po1(), load_po1().name, seed=5)
        corpus.add(mutant)  # same name, replace=True default
        assert len(corpus) == 1
        loaded = corpus.load(load_po1().name)
        assert [p.dotted() for p in loaded.paths()] == [
            p.dotted() for p in mutant.paths()
        ]
        with pytest.raises(SearchError):
            corpus.add(mutant, replace=False)
        corpus.close()

    def test_load_unknown_raises(self):
        corpus = SchemaCorpus(":memory:")
        with pytest.raises(SearchError):
            corpus.load("Nope")
        corpus.close()

    def test_tokenizer_digest_guard(self, tmp_path):
        path = str(tmp_path / "corpus.db")
        with SchemaCorpus(path) as corpus:
            corpus.add(load_po1())
        different = NameTokenizer(abbreviations={"po": "PurchaseOrder"})
        with pytest.raises(SearchError, match="tokenizer"):
            SchemaCorpus(path, tokenizer=different)

    def test_vocabulary_counts_per_path_occurrence(self):
        session = MatchSession()
        schema = load_po1()
        vocabulary = schema_vocabulary(session.profile_for(schema))
        assert vocabulary, "a real schema has a non-empty vocabulary"
        kinds = {kind for kind, _ in vocabulary}
        assert kinds == {"token", "gram", "soundex"}
        assert all(count >= 1 for count in vocabulary.values())


# -- the in-memory index and corpus writes ---------------------------------------


def _vocabulary(schema):
    return schema_vocabulary(PathSetProfile(schema.paths(), NameTokenizer()))


def _ranking(ranked):
    return [(c.name, c.score.hex()) for c in ranked]


def _sql_rank(path, vocabulary):
    """The ranking joined in SQL and summed with np.add.at, posting by posting."""
    connection = sqlite3.connect(path)
    total = connection.execute("SELECT COUNT(*) FROM corpus_schemas").fetchone()[0]
    by_kind = {}
    for kind, term in vocabulary:
        by_kind.setdefault(kind, []).append(term)
    ids, values = [], []
    for kind in TERM_KINDS:
        terms = sorted(by_kind.get(kind, ()))
        for start in range(0, len(terms), 400):
            chunk = terms[start:start + 400]
            rows = connection.execute(
                f"SELECT t.df, p.schema_id FROM corpus_terms t "
                f"JOIN corpus_postings p ON p.term_id = t.term_id "
                f"WHERE t.kind = ? AND t.term IN ({','.join('?' for _ in chunk)}) "
                f"ORDER BY t.term_id, p.schema_id",
                (kind, *chunk),
            ).fetchall()
            for df, schema_id in rows:
                ids.append(schema_id)
                values.append(KIND_WEIGHTS[kind] * float(np.log1p(total / max(df, 1))))
    unique, inverse = np.unique(np.asarray(ids, dtype=np.int64), return_inverse=True)
    scores = np.zeros(len(unique))
    np.add.at(scores, inverse, np.asarray(values))
    details = dict(
        (schema_id, (name, norm))
        for schema_id, name, norm in connection.execute(
            "SELECT schema_id, name, norm FROM corpus_schemas"
        )
    )
    connection.close()
    query_norm = vocabulary_norm(vocabulary)
    ranked = [
        (details[schema_id][0], float(score) / (query_norm * details[schema_id][1]))
        for schema_id, score in zip(unique.tolist(), scores)
    ]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return [(name, score.hex()) for name, score in ranked]


class TestCorpusIndex:
    def test_bincount_adds_like_add_at(self):
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 300, 50_000)
        values = rng.random(50_000) * rng.choice([1.0, 0.6, 0.25], 50_000)
        unique, inverse = np.unique(ids, return_inverse=True)
        reference = np.zeros(len(unique))
        np.add.at(reference, inverse, values)
        assert np.bincount(ids, weights=values)[unique].tobytes() == reference.tobytes()

    def test_failed_write_is_rolled_back(self, monkeypatch):
        """A write that raises leaves nothing for the next write to commit."""
        po1, po2 = load_po1(), load_po2()
        extra = generate_schema("Extra", sections=2, fields_per_section=2, seed=1)[0]
        corpus = SchemaCorpus(":memory:")
        corpus.add(po1)
        corpus.add(po2)
        corpus.rank(_vocabulary(po1))  # the in-memory index is live

        # An SQLite error surfaces as SearchError; anything else as itself.
        for error, raised in (
            (sqlite3.OperationalError("disk I/O error"), SearchError),
            (KeyError("term"), KeyError),
        ):
            def broken(*args, error=error):
                raise error

            monkeypatch.setattr(corpus, "_index_terms_locked", broken)
            with pytest.raises(raised):
                corpus.add(po2, replace=True)
        monkeypatch.undo()
        corpus.add(extra)

        clean = SchemaCorpus(":memory:")
        clean.add_many([po1, po2, extra])
        for key in ("schemas", "terms", "postings"):
            assert corpus.info()[key] == clean.info()[key], key
        assert corpus.info()["postings"] == 134
        for query in (po1, po2, extra):
            assert _ranking(corpus.rank(_vocabulary(query))) == _ranking(
                clean.rank(_vocabulary(query))
            )
        corpus.close()
        clean.close()

    def test_term_rows_without_postings_match_nothing(self, tmp_path):
        """A term row left without postings (a half-done write) ranks as before."""
        path = str(tmp_path / "corpus.db")
        with SchemaCorpus(path) as corpus:
            corpus.add(load_po1())
            query = _vocabulary(load_po2())
            expected = _ranking(corpus.rank(query))
        orphan = next(key for key in sorted(query) if key not in _vocabulary(load_po1()))
        connection = sqlite3.connect(path)
        connection.execute("INSERT INTO corpus_terms (kind, term, df) VALUES (?, ?, 1)", orphan)
        connection.commit()
        connection.close()
        with SchemaCorpus(path) as corpus:
            assert _ranking(corpus.rank(query)) == expected == _sql_rank(path, query)

    def test_writes_keep_df_and_index_exact(self, tmp_path):
        """50 seeded add / replace / remove calls, ranked in between."""
        path = str(tmp_path / "corpus.db")
        rng = random.Random(5)
        pool = list(load_all_schemas().values()) + generate_corpus(12, seed=3)
        queries = [_vocabulary(load_po1()), _vocabulary(pool[-1])]
        corpus = SchemaCorpus(path)
        registered = {}
        for step in range(50):
            choice = rng.random()
            if registered and choice < 0.25:
                name = rng.choice(sorted(registered))
                assert corpus.remove(name)
                del registered[name]
            elif registered and choice < 0.6:
                name = rng.choice(sorted(registered))
                registered[name] = mutate_schema(
                    registered[name], name, seed=step, rename_rate=0.2
                )
                corpus.add(registered[name])
            else:
                schema = rng.choice(pool)
                registered[schema.name] = schema
                corpus.add(schema)
            if step % 3 == 0:
                corpus.rank(queries[step % 2])
        connection = sqlite3.connect(path)
        rows = connection.execute(
            "SELECT t.df, COUNT(p.schema_id) FROM corpus_terms t "
            "LEFT JOIN corpus_postings p ON p.term_id = t.term_id GROUP BY t.term_id"
        ).fetchall()
        connection.close()
        assert rows and all(df == postings > 0 for df, postings in rows)
        fresh = SchemaCorpus(path)
        for vocabulary in queries:
            expected = _sql_rank(path, vocabulary)
            assert _ranking(corpus.rank(vocabulary)) == expected
            assert _ranking(fresh.rank(vocabulary)) == expected
        corpus.close()
        fresh.close()

    def test_handles_on_one_file_stay_coherent(self, tmp_path):
        """Writes through one handle are seen by another handle's next rank."""
        path = str(tmp_path / "corpus.db")
        schemas = list(load_all_schemas().values())
        writer, reader = SchemaCorpus(path), SchemaCorpus(path)
        writer.add_many(schemas[:3])
        vocabulary = _vocabulary(load_po1())

        def assert_coherent():
            with SchemaCorpus(path) as fresh:
                expected = _ranking(fresh.rank(vocabulary))
            assert _ranking(reader.rank(vocabulary)) == expected
            assert _ranking(writer.rank(vocabulary)) == expected

        assert_coherent()
        writer.add(schemas[3])
        assert_coherent()
        writer.add(mutate_schema(schemas[0], schemas[0].name, seed=5))
        assert_coherent()
        writer.remove(schemas[1].name)
        assert_coherent()
        reader.add(schemas[4])
        assert_coherent()
        writer.close()
        reader.close()

    def test_writes_through_a_stale_handle(self, tmp_path):
        """A handle whose index missed another handle's commit writes without error."""
        path = str(tmp_path / "corpus.db")
        schemas = list(load_all_schemas().values())
        target = schemas[1]
        vocabulary = _vocabulary(load_po1())
        writer, reader = SchemaCorpus(path), SchemaCorpus(path)
        writer.add_many(schemas[:3])
        # The writer adds X (absent) or replaces it (under a new schema id)
        # after the reader loaded its index; the reader then removes or
        # replaces X.
        for step, (writer_adds, reader_removes) in enumerate(
            itertools.product((False, True), (True, False))
        ):
            if writer_adds and writer.has(target.name):
                writer.remove(target.name)
            elif not writer_adds and not writer.has(target.name):
                writer.add(target)
            reader.rank(vocabulary)
            writer.add(mutate_schema(target, target.name, seed=step, rename_rate=0.3))
            if reader_removes:
                assert reader.remove(target.name)
            else:
                reader.add(target, replace=True)
            with SchemaCorpus(path) as fresh:
                expected = _ranking(fresh.rank(vocabulary))
            assert _ranking(reader.rank(vocabulary)) == expected
            assert expected == _sql_rank(path, vocabulary)
        writer.close()
        reader.close()


# -- the recall invariant ------------------------------------------------------


class TestRecallInvariant:
    def test_pruned_topk_contains_full_pipeline_top1(self):
        """The pruned top-K must contain the exhaustive top-1 on gold pairs."""
        corpus = SchemaCorpus(":memory:")
        corpus.add_many(load_all_schemas().values())
        corpus.add_many(generate_corpus(10, seed=11))
        session = MatchSession()
        searcher = CorpusSearcher(session, corpus)
        for task in load_all_tasks()[:3]:
            # Exhaustive reference: the full pipeline against *every*
            # registered schema (minus the query itself).
            names = [
                name for name in corpus.names()
                if name != task.source.name
            ]
            outcomes = session.match_many(
                [(task.source, corpus.load(name)) for name in names]
            )
            exhaustive = sorted(
                zip(names, outcomes),
                key=lambda pair: (-pair[1].schema_similarity, pair[0]),
            )
            top1 = exhaustive[0][0]
            pruned = [hit.name for hit in searcher.search(task.source, k=5)]
            assert top1 in pruned, (task.name, top1, pruned)
            # And the pruned ranking agrees with the exhaustive prefix.
            assert pruned[0] == top1
        corpus.close()

    def test_gold_targets_survive_decoys(self):
        """Gold targets stay in the top-10 with decoys in the corpus."""
        corpus = SchemaCorpus(":memory:")
        corpus.add_many(load_all_schemas().values())
        corpus.add_many(generate_corpus(20, seed=23))
        session = MatchSession()
        searcher = CorpusSearcher(session, corpus)
        for task in load_all_tasks()[:2]:
            names = [hit.name for hit in searcher.search(task.source, k=10)]
            assert task.target.name in names, (task.name, names)
        corpus.close()


# -- session wiring ------------------------------------------------------------


class TestSessionSearch:
    def test_search_through_session(self):
        session = MatchSession(corpus=":memory:")
        session.register(load_po2())
        assert session.corpus is not None and len(session.corpus) == 1
        hits = session.search(load_po1(), k=1)
        assert [hit.name for hit in hits] == ["PO2"]
        assert hits[0].mapping is hits[0].outcome.result
        session.close()

    def test_search_without_corpus_raises(self):
        session = MatchSession()
        with pytest.raises(SessionError, match="corpus"):
            session.search(load_po1())
        with pytest.raises(SessionError, match="corpus"):
            session.register(load_po1())

    def test_close_closes_owned_corpus(self, tmp_path):
        path = str(tmp_path / "corpus.db")
        session = MatchSession(corpus=path)
        session.register(load_po1())
        session.close()
        assert session.corpus is None
        # The file persists and is reopenable.
        with SchemaCorpus(path) as corpus:
            assert corpus.names() == ("PO1",)

    def test_shared_corpus_object_stays_open(self):
        corpus = SchemaCorpus(":memory:")
        corpus.add(load_po2())
        session = MatchSession(corpus=corpus)
        session.close()
        assert corpus.names() == ("PO2",)  # still usable: not owned
        corpus.close()

    def test_invalid_k_and_pool(self):
        session = MatchSession(corpus=":memory:")
        session.register(load_po2())
        with pytest.raises(SearchError):
            session.search(load_po1(), k=0)
        with pytest.raises(SearchError):
            session.search(load_po1(), k=5, candidates=2)
        session.close()

    def test_exclude_names(self):
        session = MatchSession(corpus=":memory:")
        for schema in load_all_schemas().values():
            session.register(schema)
        full = [c.name for c in session.searcher().rank(load_po1())]
        crowding = full[0]
        filtered = session.searcher().rank(load_po1(), exclude_names=[crowding])
        assert crowding not in {c.name for c in filtered}
        hits = session.searcher().search(
            load_po1(), k=2, exclude_names=[crowding]
        )
        assert crowding not in {hit.name for hit in hits}
        session.close()

    def test_search_keeps_no_query_profile(self):
        session = MatchSession(corpus=":memory:")
        for schema in load_all_schemas().values():
            session.register(schema)
        session.search(mutate_schema(load_po1(), "Query", seed=3), k=2)
        after_first = session.cache_info()["profiles"]
        session.search(mutate_schema(load_po1(), "Query", seed=3), k=2)
        assert session.cache_info()["profiles"] == after_first
        # A profile cached before the search stays.
        query = mutate_schema(load_po1(), "Query", seed=3)
        session.profile_for(query)
        session.search(query, k=2)
        assert session.cache_info()["profiles"] == after_first + 1
        session.close()

    def test_exclude_self(self):
        session = MatchSession(corpus=":memory:")
        session.register(load_po1())
        session.register(load_po2())
        names = [hit.name for hit in session.search(load_po1(), k=5)]
        assert "PO1" not in names
        included = session.searcher().search(load_po1(), k=5, exclude_self=False)
        assert [hit.name for hit in included][0] == "PO1"
        session.close()


# -- service wiring ------------------------------------------------------------


def _upload_paper_schemas(service, schemas=None):
    from repro.repository.serialization import schema_to_json
    import json as json_module

    if schemas is None:
        schemas = load_all_schemas()
    for name, schema in schemas.items():
        spec = json_module.loads(schema_to_json(schema))
        status, payload = service.handle_request(
            "POST", "/schemas", {"spec": spec, "name": name}
        )
        assert status in (200, 201), payload


def _record_profile_builds(monkeypatch) -> list:
    """Every PathSetProfile constructed from now on, in construction order."""
    built = []
    init = PathSetProfile.__init__

    def recorded(profile, *args, **kwargs):
        built.append(profile)
        init(profile, *args, **kwargs)

    monkeypatch.setattr(PathSetProfile, "__init__", recorded)
    return built


class TestServiceSearch:
    def test_search_endpoint_byte_identical_to_session(self, tmp_path):
        """POST /search must rank byte-identically to MatchSession.search."""
        from repro.service.server import MatchService

        corpus_path = str(tmp_path / "corpus.db")
        service = MatchService(pool_size=1, corpus_path=corpus_path)
        try:
            _upload_paper_schemas(service)
            status, payload = service.handle_request(
                "POST", "/search", {"source": "CIDX", "k": 4}
            )
            assert status == 200
            served = [
                (row["rank"], row["name"], row["schema_similarity"],
                 row["candidate_score"])
                for row in payload["results"]
            ]
        finally:
            service.close()
        with MatchSession(corpus=corpus_path) as session:
            # Query by the *registered* schema (the service matched the
            # uploaded spec), so self-exclusion sees the same content digest.
            local = session.search(session.corpus.load("CIDX"), k=4)
            expected = [
                (rank, hit.name, hit.schema_similarity, hit.candidate_score)
                for rank, hit in enumerate(local, start=1)
            ]
        assert served == expected  # exact float equality: byte-identical

    def test_one_session_profiles_each_upload_once(self, monkeypatch):
        """Uploads, /match and /search share the service's one session."""
        from repro.service.server import MatchService

        built = _record_profile_builds(monkeypatch)
        service = MatchService(pool_size=1, corpus_path=":memory:")
        try:
            _upload_paper_schemas(service, {"PO1": load_po1(), "PO2": load_po2()})
            # Each upload profiles the uploaded schema, which lookups then
            # answer with.
            assert len(built) == 2
            for route, body in (
                ("/match", {"source": "PO1", "target": "PO2"}),
                ("/search", {"source": "PO1", "k": 1}),
                ("/search", {"source": "PO2", "k": 1}),
            ):
                status, _ = service.handle_request("POST", route, body)
                assert status == 200
            assert len(built) == 2
            assert service.pool.cache_info()["profiles"] == 2
        finally:
            service.close()

    def test_search_leaves_no_query_profile_in_the_shard(self, monkeypatch):
        """The shard keeps the survivors' profiles, and the query's only if it had it."""
        from repro.service.server import MatchService

        service = MatchService(pool_size=1, corpus_path=":memory:")
        try:
            _upload_paper_schemas(service)
            built = _record_profile_builds(monkeypatch)
            status, payload = service.handle_request(
                "POST", "/search", {"source": "CIDX", "k": 4}
            )
            assert status == 200 and payload["count"] == 4
            # The uploads warmed all five profiles, the query's among them.
            assert service.pool.cache_info()["profiles"] == 5 and built == []
            status, _ = service.handle_request(
                "POST", "/match", {"source": "CIDX", "target": "Excel"}
            )
            assert status == 200
            warm = service.pool.cache_info()["profiles"]
            status, _ = service.handle_request(
                "POST", "/search", {"source": "CIDX", "k": 4}
            )
            assert status == 200
            assert service.pool.cache_info()["profiles"] == warm
        finally:
            service.close()

    def test_corpus_endpoint_and_delete(self):
        from repro.service.server import MatchService

        service = MatchService(pool_size=1, corpus_path=":memory:")
        try:
            _upload_paper_schemas(service)
            status, info = service.handle_request("GET", "/corpus", None)
            assert status == 200 and info["schemas"] == 5
            assert set(info["names"]) == set(load_all_schemas())
            status, _ = service.handle_request("DELETE", "/schemas/Noris", None)
            assert status == 200
            status, info = service.handle_request("GET", "/corpus", None)
            assert info["schemas"] == 4 and "Noris" not in info["names"]
        finally:
            service.close()

    def test_search_without_corpus_is_clean_400(self):
        from repro.service.server import MatchService

        service = MatchService(pool_size=1)
        try:
            status, payload = service.handle_request(
                "POST", "/search", {"source": "X"}
            )
            assert status == 400 and "corpus" in payload["error"]
            status, payload = service.handle_request("GET", "/corpus", None)
            assert status == 400 and "corpus" in payload["error"]
        finally:
            service.close()

    def test_search_unknown_source_404(self):
        from repro.service.server import MatchService

        service = MatchService(pool_size=1, corpus_path=":memory:")
        try:
            status, payload = service.handle_request(
                "POST", "/search", {"source": "Ghost"}
            )
            assert status == 404
        finally:
            service.close()


# -- CLI wiring ----------------------------------------------------------------


SQL_A = """
CREATE TABLE PurchaseOrder (
  OrderNumber INT,
  OrderDate DATE,
  ShipToCity VARCHAR(50)
);
"""

SQL_B = """
CREATE TABLE PO (
  PONumber INT,
  PODate DATE,
  DeliverToCity VARCHAR(50)
);
"""


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_corpus_and_search_commands(self, tmp_path, capsys):
        from repro.cli import console_main

        a = self._write(tmp_path, "a.sql", SQL_A)
        b = self._write(tmp_path, "b.sql", SQL_B)
        corpus_path = str(tmp_path / "corpus.db")
        assert console_main(["corpus", corpus_path, "add", b]) == 0
        assert console_main(["corpus", corpus_path, "list"]) == 0
        assert console_main(["corpus", corpus_path, "info"]) == 0
        assert console_main(
            ["search", a, "--corpus", corpus_path, "-k", "1", "--details"]
        ) == 0
        output = capsys.readouterr().out
        assert "Top-1 matches" in output
        assert console_main(["corpus", corpus_path, "remove", "b"]) == 0
        assert console_main(["corpus", corpus_path, "remove", "b"]) == 1

    def test_corpus_inspect_missing_file_exits_1(self, tmp_path, capsys):
        from repro.cli import console_main

        missing = str(tmp_path / "missing.db")
        for action in ("list", "info"):
            assert console_main(["corpus", missing, action]) == 1
        assert not os.path.exists(missing)
        assert console_main(
            ["search", str(tmp_path / "q.sql"), "--corpus", missing]
        ) == 1
        capsys.readouterr()

    def test_corpus_argument_validation(self, tmp_path, capsys):
        from repro.cli import console_main

        corpus_path = str(tmp_path / "corpus.db")
        assert console_main(["corpus", corpus_path, "add"]) == 1
        assert console_main(["corpus", corpus_path, "remove"]) == 1
        capsys.readouterr()


# -- coma stats --store failure modes (satellite) ------------------------------


class TestStatsStoreFailures:
    def test_missing_path_exits_1(self, tmp_path, capsys):
        from repro.cli import console_main

        missing = str(tmp_path / "nope.db")
        assert console_main(["stats", "--store", missing]) == 1
        assert "no similarity store" in capsys.readouterr().err
        assert not os.path.exists(missing)  # never conjured into existence

    def test_garbage_file_exits_1(self, tmp_path, capsys):
        from repro.cli import console_main

        garbage = tmp_path / "garbage.db"
        garbage.write_bytes(b"this is not a sqlite file")
        assert console_main(["stats", "--store", str(garbage)]) == 1
        assert "error:" in capsys.readouterr().err
        assert garbage.read_bytes() == b"this is not a sqlite file"

    def test_foreign_sqlite_db_exits_1_without_mutation(self, tmp_path, capsys):
        """A valid SQLite file that is NOT a store: clean error, no DDL run."""
        from repro.cli import console_main

        other = str(tmp_path / "other.db")
        connection = sqlite3.connect(other)
        connection.execute("CREATE TABLE strategies (name TEXT PRIMARY KEY)")
        connection.commit()
        connection.close()
        assert console_main(["stats", "--store", other]) == 1
        assert "not a similarity store" in capsys.readouterr().err
        connection = sqlite3.connect(other)
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        connection.close()
        assert tables == {"strategies"}  # the stats read mutated nothing

    def test_readonly_store_open_validates(self, tmp_path):
        from repro.repository.store import SimilarityStore

        with pytest.raises(RepositoryError):
            SimilarityStore(str(tmp_path / "absent.db"), readonly=True)
        with pytest.raises(RepositoryError):
            SimilarityStore(":memory:", readonly=True)
        # A real store opens read-only and reports its info.
        path = str(tmp_path / "store.db")
        SimilarityStore(path).close()
        with SimilarityStore(path, readonly=True) as store:
            info = store.info()
            assert info["cubes"] == 0

    def test_stats_on_valid_store_still_works(self, tmp_path, capsys):
        from repro.cli import console_main
        from repro.repository.store import SimilarityStore

        path = str(tmp_path / "store.db")
        SimilarityStore(path).close()
        assert console_main(["stats", "--store", path]) == 0
        assert "Persistent similarity store" in capsys.readouterr().out
