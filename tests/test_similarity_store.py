"""Tests for the persistent similarity store and its session/service wiring."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.gold_standard import load_all_tasks
from repro.repository.store import (
    SimilarityStore,
    cube_store_key,
    match_config_digest,
    schema_content_digest,
    tokenizer_digest,
)
from repro.auxiliary.synonyms import default_purchase_order_synonyms
from repro.linguistic.tokenizer import NameTokenizer
from repro.model.datatypes import DEFAULT_TYPE_COMPATIBILITY, GenericType
from repro.service.server import MatchService
from repro.session import MatchSession


def outcome_rows(outcome):
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "similarity-store.db")


class TestDigests:
    def test_schema_digest_is_content_based(self):
        # Two independent imports of the same content digest identically...
        assert schema_content_digest(load_po1()) == schema_content_digest(load_po1())
        # ...and different content digests differently.
        assert schema_content_digest(load_po1()) != schema_content_digest(load_po2())

    def test_config_digest_covers_every_input(self):
        tokenizer = NameTokenizer()
        synonyms = default_purchase_order_synonyms()
        types = DEFAULT_TYPE_COMPATIBILITY.copy()
        base = match_config_digest(tokenizer, synonyms, types)

        changed_synonyms = default_purchase_order_synonyms()
        changed_synonyms.add("warehouse", "depot")
        assert match_config_digest(tokenizer, changed_synonyms, types) != base

        changed_types = DEFAULT_TYPE_COMPATIBILITY.copy()
        changed_types.set(GenericType.STRING, GenericType.INTEGER, 0.9)
        assert match_config_digest(tokenizer, synonyms, changed_types) != base

        changed_tokenizer = NameTokenizer(drop_digits=True)
        assert match_config_digest(changed_tokenizer, synonyms, types) != base

        assert match_config_digest(tokenizer, synonyms, types) == base  # stable

    def test_library_digest_tracks_re_registration(self):
        from repro.matchers.base import NameStringMatcher
        from repro.matchers.registry import default_library
        from repro.matchers.string.edit_distance import EditDistanceMatcher
        from repro.repository.store import library_digest

        base = default_library()
        assert library_digest(base) == library_digest(default_library())
        changed = default_library()
        changed.register(
            "EditDistance",
            lambda: NameStringMatcher(EditDistanceMatcher(case_sensitive=True)),
            kind="simple",
            replace=True,
        )
        assert library_digest(changed) != library_digest(base)
        # ... and the library digest feeds the cube config digest.
        tokenizer = NameTokenizer()
        synonyms = default_purchase_order_synonyms()
        types = DEFAULT_TYPE_COMPATIBILITY.copy()
        assert match_config_digest(
            tokenizer, synonyms, types, library=base
        ) != match_config_digest(tokenizer, synonyms, types, library=changed)

    def test_tokenizer_digest_covers_abbreviations(self):
        plain = NameTokenizer()
        extended = NameTokenizer()
        extended.abbreviations.add("whs", ("warehouse",))
        assert tokenizer_digest(plain) != tokenizer_digest(extended)


class TestStoreRoundTrip:
    def test_cube_round_trip_is_bit_exact(self, store_path):
        session = MatchSession()
        source, target = load_po1(), load_po2()
        outcome = session.match(source, target)
        digest_s = schema_content_digest(source)
        digest_t = schema_content_digest(target)
        usage = outcome.cube.matcher_names
        key = cube_store_key(digest_s, digest_t, usage, "config")
        with SimilarityStore(store_path, writer=False) as store:
            store.store_cube(key, outcome.cube, digest_s, digest_t, usage, "config")
            loaded = store.load_cube(key, source.paths(), target.paths())
            assert loaded is not None
            assert loaded.matcher_names == outcome.cube.matcher_names
            for name, matrix in outcome.cube.layers():
                assert np.array_equal(loaded.layer(name).values, matrix.values)
            assert store.info()["hits"] == 1

    def test_missing_key_is_a_miss(self, store_path):
        with SimilarityStore(store_path, writer=False) as store:
            assert store.load_cube("nope", load_po1().paths(), load_po2().paths()) is None
            assert store.info()["misses"] == 1

    def test_shape_mismatch_is_a_miss_not_an_error(self, store_path):
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        with SimilarityStore(store_path, writer=False) as store:
            store.store_cube(
                "key", outcome.cube, "s", "t", outcome.cube.matcher_names, "c"
            )
            # Asking for the stored cube over the wrong path axes must miss.
            assert store.load_cube("key", load_po2().paths(), load_po1().paths()) is None

    def test_truncated_blob_degrades_to_miss(self, store_path):
        """A corrupt data blob (right shape, wrong length) is a miss, not a crash."""
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        with SimilarityStore(store_path, writer=False) as store:
            store.store_cube(
                "key", outcome.cube, "s", "t", outcome.cube.matcher_names, "c"
            )
            store._connection.execute(
                "UPDATE cubes SET data = ? WHERE key = 'key'", (b"\x00" * 16,)
            )
            store._connection.commit()
            assert store.load_cube("key", load_po1().paths(), load_po2().paths()) is None
            assert store.info()["misses"] == 1

    def test_load_after_close_is_a_miss_for_inflight_readers(self, store_path):
        """A reader holding a snapshot of a just-closed store degrades to a miss."""
        store = SimilarityStore(store_path)
        store.close()
        assert store.load_cube("key", load_po1().paths(), load_po2().paths()) is None

    def test_token_round_trip(self, store_path):
        with SimilarityStore(store_path, writer=False) as store:
            store.store_tokens("cfg", [("ShipTo", ("ship", "to")), ("PONo", ("purchase",))])
            loaded = store.load_tokens("cfg")
            assert loaded == {"ShipTo": ("ship", "to"), "PONo": ("purchase",)}
            assert store.load_tokens("other-cfg") == {}
            assert store.token_count() == 2

    def test_prune_cubes(self, store_path):
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        with SimilarityStore(store_path, writer=False) as store:
            for index in range(5):
                store.store_cube(
                    f"key{index}", outcome.cube, "s", "t", ("All",), "c"
                )
            removed = store.prune_cubes(2)
            assert removed == 3
            assert store.cube_count() == 2

    def test_async_writer_flush(self, store_path):
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        store = SimilarityStore(store_path)  # with the background writer
        try:
            store.store_cube_async(
                "key", outcome.cube, "s", "t", outcome.cube.matcher_names, "c"
            )
            store.flush()
            assert store.cube_count() == 1
        finally:
            store.close()

    def test_async_write_after_close_is_dropped_without_deadlock(self, store_path):
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        store = SimilarityStore(store_path)
        store.close()
        # A write-back racing close() is dropped silently...
        store.store_cube_async(
            "late", outcome.cube, "s", "t", outcome.cube.matcher_names, "c"
        )
        store.flush()  # ...and flush() returns instead of joining a dead queue
        store.close()  # idempotent

    def test_lifetime_counters_accumulate_across_opens(self, store_path):
        with SimilarityStore(store_path, writer=False) as store:
            store.load_cube("absent", load_po1().paths(), load_po2().paths())
        with SimilarityStore(store_path, writer=False) as store:
            info = store.info()
            assert info["misses"] == 0  # process-local counter starts fresh
            assert info["lifetime_misses"] == 1  # persisted on close


class TestSessionIntegration:
    def test_restarted_session_is_warm_and_byte_identical(self, store_path):
        source, target = load_po1(), load_po2()
        baseline = outcome_rows(MatchSession().match(source, target))

        first = MatchSession(store=store_path)
        cold = first.match(source, target)
        assert first.cache_info()["store_misses"] == 1
        first.store.flush()

        second = MatchSession(store=store_path)  # simulates a restarted process
        warm = second.match(source, target)
        info = second.cache_info()
        assert info["store_hits"] == 1 and info["store_misses"] == 0
        # The warm path never executed a matcher, yet the mapping is
        # byte-identical to both the cold run and a store-less session.
        assert outcome_rows(warm) == outcome_rows(cold) == baseline
        assert warm.schema_similarity == cold.schema_similarity
        first.store.close()

    def test_store_hit_skips_profile_building(self, store_path):
        source, target = load_po1(), load_po2()
        first = MatchSession(store=store_path)
        first.match(source, target)
        first.store.flush()
        second = MatchSession(store=store_path)
        second.match(source, target)
        assert second.cache_info()["profiles"] == 0

    def test_config_change_invalidates(self, store_path):
        source, target = load_po1(), load_po2()
        first = MatchSession(store=store_path)
        first.match(source, target)
        first.store.flush()

        synonyms = default_purchase_order_synonyms()
        synonyms.add("warehouse", "depot")
        changed = MatchSession(store=store_path, synonyms=synonyms)
        changed.match(source, target)
        # The changed configuration addresses a different key: a miss, and a
        # second cube is stored alongside the first.
        assert changed.cache_info()["store_misses"] == 1
        changed.store.flush()
        assert changed.store.cube_count() == 2
        first.store.close()

    def test_in_place_mutation_plus_clear_caches_re_addresses(self, store_path):
        source, target = load_po1(), load_po2()
        session = MatchSession(store=store_path)
        session.match(source, target)
        session.store.flush()
        session._synonyms.add("warehouse", "depot")
        session.clear_caches()
        session.match(source, target)
        info = session.cache_info()
        assert info["store_misses"] == 2 and info["store_hits"] == 0

    def test_different_strategy_usage_misses(self, store_path):
        source, target = load_po1(), load_po2()
        session = MatchSession(store=store_path)
        session.match(source, target)
        session.match(source, target, strategy="Name(Max,Both,MaxN(1),Dice)")
        assert session.cache_info()["store_misses"] == 2

    def test_non_cacheable_strategies_bypass_store(self, store_path):
        from repro.repository import Repository

        source, target = load_po1(), load_po2()
        session = MatchSession(store=store_path, repository=Repository(":memory:"))
        # Reuse matchers depend on repository state: never stored.
        session.match(source, target, strategy="Name+Schema(Max,Both,MaxN(1),Dice)")
        info = session.cache_info()
        assert info["store_hits"] == 0 and info["store_misses"] == 0

    def test_token_artifacts_seed_the_next_session(self, store_path):
        source, target = load_po1(), load_po2()
        first = MatchSession(store=store_path)
        # A partial workload (one schema matched against itself) leaves
        # tokens behind even though the next session's pair differs.
        first.match(source, source)
        first.store.flush()
        second = MatchSession(store=store_path)
        assert len(second._token_memo) > 0
        # The seeded memo agrees with the tokenizer on every stored name.
        tokenizer = NameTokenizer()
        for name, tokens in second._token_memo.items():
            assert tokens == tokenizer.tokenize(name)
        first.store.close()

    def test_custom_library_bypasses_store(self, store_path):
        """Stored cubes are addressed by matcher *name*; a session whose
        library may resolve those names differently must never consult them."""
        from repro.matchers.base import NameStringMatcher
        from repro.matchers.registry import default_library
        from repro.matchers.string.edit_distance import EditDistanceMatcher

        source, target = load_po1(), load_po2()
        spec = "EditDistance(Average,Both,Thr(0.3),Average)"
        writer = MatchSession(store=store_path)
        writer.match(source, target, strategy=spec)
        writer.store.flush()

        library = default_library()
        library.register(
            "EditDistance",
            lambda: NameStringMatcher(EditDistanceMatcher(case_sensitive=True)),
            kind="simple",
            replace=True,
        )
        custom = MatchSession(store=store_path, library=library)
        reconfigured = custom.match(source, target, strategy=spec)
        info = custom.cache_info()
        assert info["store_hits"] == 0 and info["store_misses"] == 0
        # ... and the result really is the case-sensitive one, not the
        # store-writer's case-insensitive cube.
        expected = MatchSession(library=library).match(source, target, strategy=spec)
        assert outcome_rows(reconfigured) == outcome_rows(expected)
        writer.close()

    def test_schema_mutation_plus_clear_caches_re_addresses(self, store_path):
        """Renaming an element in place + clear_caches() must not serve the
        pre-mutation cube from the store."""
        source, target = load_po1(), load_po2()
        session = MatchSession(store=store_path)
        session.match(source, target)
        session.store.flush()
        # In-place mutation: same path count, different content.
        renamed = source.paths()[-1].leaf
        renamed.name = renamed.name + "Renamed"
        session.clear_caches()
        session.match(source, target)
        info = session.cache_info()
        assert info["store_misses"] == 2 and info["store_hits"] == 0
        renamed.name = renamed.name[: -len("Renamed")]  # restore shared dataset
        session.close()

    def test_session_close_persists_counters(self, store_path):
        source, target = load_po1(), load_po2()
        with MatchSession(store=store_path) as session:
            session.match(source, target)
            assert session._owns_store
        # close() flushed the async writes and persisted the counters.
        with SimilarityStore(store_path, writer=False) as store:
            info = store.info()
            assert info["cubes"] == 1
            assert info["lifetime_misses"] == 1

    def test_close_leaves_shared_store_running(self, store_path):
        shared = SimilarityStore(store_path)
        try:
            session = MatchSession(store=shared)
            session.match(load_po1(), load_po2())
            session.close()
            shared.flush()  # still open: the session did not own it
            assert shared.cube_count() == 1
        finally:
            shared.close()

    def test_cli_stats_rejects_missing_store(self, tmp_path, capsys):
        from repro.cli import console_main

        missing = str(tmp_path / "typo.db")
        assert console_main(["stats", "--store", missing]) == 1
        assert "no similarity store" in capsys.readouterr().err
        assert not (tmp_path / "typo.db").exists()

    def test_corrupt_store_file_raises_cleanly(self, tmp_path, capsys):
        from repro.cli import console_main
        from repro.exceptions import RepositoryError

        bogus = tmp_path / "not-a-database.db"
        bogus.write_text("CREATE TABLE pretend (x);")  # not SQLite
        with pytest.raises(RepositoryError):
            SimilarityStore(str(bogus), writer=False)
        # ... and the CLI surfaces it as a clean error, not a traceback.
        assert console_main(["stats", "--store", str(bogus)]) == 1
        assert "cannot open similarity store" in capsys.readouterr().err

    def test_campaign_round_trip_byte_identical(self, store_path):
        """The Figure-8 all-pairs campaign: store-warm == store-less, exactly."""
        schemas = {}
        for task in load_all_tasks()[:3]:
            schemas[task.source.name] = task.source
            schemas[task.target.name] = task.target
        ordered = [schemas[name] for name in sorted(schemas)]
        pairs = [
            (a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :]
        ]
        baseline = [outcome_rows(o) for o in MatchSession().match_many(pairs)]

        warmup = MatchSession(store=store_path)
        warmup.match_many(pairs)
        warmup.store.flush()

        warm = MatchSession(store=store_path)
        outcomes = warm.match_many(pairs)
        assert [outcome_rows(o) for o in outcomes] == baseline
        info = warm.cache_info()
        assert info["store_hits"] == len(pairs) and info["store_misses"] == 0
        warmup.store.close()


@pytest.fixture()
def matched_outcome():
    return MatchSession().match(load_po1(), load_po2())


def store_one(store, outcome, key="key"):
    store.store_cube(key, outcome.cube, "s", "t", outcome.cube.matcher_names, "c")


class TestMmapTier:
    def test_external_blob_round_trip_and_breakdown(
        self, store_path, matched_outcome
    ):
        import os

        with SimilarityStore(
            store_path, writer=False, mmap_threshold=0
        ) as store:
            store_one(store, matched_outcome)
            side = store._side_path("key")
            assert os.path.exists(side)
            loaded = store.load_cube(
                "key", load_po1().paths(), load_po2().paths()
            )
            assert np.array_equal(
                loaded.as_array(), matched_outcome.cube.as_array()
            )
            assert store.info()["external"] == 1

    def test_short_side_file_degrades_to_miss(self, store_path, matched_outcome):
        with SimilarityStore(
            store_path, writer=False, mmap_threshold=0
        ) as store:
            store_one(store, matched_outcome)
            with open(store._side_path("key"), "wb") as handle:
                handle.write(b"\x00" * 8)  # truncated payload
            assert store.load_cube(
                "key", load_po1().paths(), load_po2().paths()
            ) is None
            assert store.info()["misses"] == 1

    def test_missing_side_file_degrades_to_miss(self, store_path, matched_outcome):
        import os

        with SimilarityStore(
            store_path, writer=False, mmap_threshold=0
        ) as store:
            store_one(store, matched_outcome)
            os.remove(store._side_path("key"))
            assert store.load_cube(
                "key", load_po1().paths(), load_po2().paths()
            ) is None

    def test_inline_rewrite_drops_stale_side_file(self, store_path, matched_outcome):
        import os

        with SimilarityStore(
            store_path, writer=False, mmap_threshold=0
        ) as store:
            store_one(store, matched_outcome)
            side = store._side_path("key")
            assert os.path.exists(side)
        # The same key rewritten inline (tier disabled) must not leave the
        # orphaned side file behind to shadow future external writes.
        with SimilarityStore(
            store_path, writer=False, mmap_threshold=None
        ) as store:
            store_one(store, matched_outcome)
            assert not os.path.exists(side)
            loaded = store.load_cube(
                "key", load_po1().paths(), load_po2().paths()
            )
            assert np.array_equal(
                loaded.as_array(), matched_outcome.cube.as_array()
            )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd"
    )
    def test_cached_side_file_cubes_hold_no_descriptors(self, store_path, matched_outcome):
        # A live np.memmap holds a duplicated descriptor of its file: a cube
        # that kept its mapping would hold one per cached cube.
        source_paths, target_paths = load_po1().paths(), load_po2().paths()
        keys = [f"key{index}" for index in range(40)]
        with SimilarityStore(store_path, writer=False, mmap_threshold=0) as store:
            for key in keys:
                store_one(store, matched_outcome, key=key)
            before = len(os.listdir("/proc/self/fd"))
            cached = [store.load_cube(key, source_paths, target_paths) for key in keys]
            assert len(os.listdir("/proc/self/fd")) <= before
            assert store.info()["external"] == 40
            for cube in cached:
                assert cube.as_array().tobytes() == matched_outcome.cube.as_array().tobytes()


class TestRetiredEncodings:
    """Blobs of the retired compact encodings read as ordinary store misses.

    The test writes the blobs itself under the keys a default session
    computes: a quantized uint16 payload inline and a float32 payload in a
    side file, both under the CBH3 header, plus a float64 payload under the
    legacy CBH2 header, which must still be a hit.
    """

    @staticmethod
    def _digest(outcome):
        import hashlib

        rows = "".join(
            f"{c.source.dotted()}|{c.target.dotted()}|{c.similarity.hex()}\n"
            for c in outcome.result.correspondences
        )
        return hashlib.sha256(rows.encode("utf-8")).hexdigest()

    def test_retired_blobs_are_misses_and_get_replaced(self, store_path):
        import os
        import sqlite3
        import struct
        import zlib

        task = load_all_tasks()[0]
        pairs = [(load_po1(), load_po2()), (load_po2(), load_po1()),
                 (task.source, task.target)]
        cold = [MatchSession().match(source, target) for source, target in pairs]
        with SimilarityStore(store_path, writer=False) as store:
            session = MatchSession(store=store)
            for source, target in pairs:
                session.match(source, target)
        connection = sqlite3.connect(store_path)
        by_digests = {
            (source_digest, target_digest): key
            for key, source_digest, target_digest in connection.execute(
                "SELECT key, source_digest, target_digest FROM cubes"
            )
        }
        keys = [
            by_digests[schema_content_digest(source), schema_content_digest(target)]
            for source, target in pairs
        ]
        stacks = [outcome.cube.as_array() for outcome in cold]
        header = struct.Struct(">4sBB2xI")
        quantized = np.round(np.clip(stacks[0], 0.0, 1.0) * 65535)
        uint16 = quantized.astype(np.uint16).tobytes()
        float32 = stacks[1].astype(np.float32).tobytes()
        side_file = f"{store_path}.blobs/{keys[1]}.cube"
        os.makedirs(os.path.dirname(side_file), exist_ok=True)
        with open(side_file, "wb") as handle:
            handle.write(float32)
        legacy = struct.pack(">4sBB2x", b"CBH2", 0, 0) + stacks[2].tobytes()
        rows = [
            (header.pack(b"CBH3", 2, 0, zlib.crc32(uint16)) + uint16,
             "uint16", len(uint16), 0, keys[0]),
            (header.pack(b"CBH3", 1, 1, zlib.crc32(float32)),
             "float32", len(float32), 1, keys[1]),
            (legacy, "float64", stacks[2].nbytes, 0, keys[2]),
        ]
        with connection:
            connection.executemany(
                "UPDATE cubes SET data = ?, dtype = ?, payload_bytes = ?, "
                "external = ? WHERE key = ?", rows,
            )
        connection.close()

        def warm_session():
            with SimilarityStore(store_path, writer=False) as store:
                session = MatchSession(store=store)
                outcomes = [session.match(source, target) for source, target in pairs]
                return outcomes, session.cache_info(), store.info()

        # The retired blobs are misses (not corruption): recomputed, and the
        # write-back replaces each row -- and the side file -- with float64.
        for hits in (1, 3):
            outcomes, cache, info = warm_session()
            assert cache["store_hits"] == hits
            assert cache["store_misses"] == 3 - hits
            assert info["corrupt"] == 0 and info["quarantined"] == 0
            assert info["external"] == 0 and not os.path.exists(side_file)
            for warm, reference in zip(outcomes, cold):
                assert self._digest(warm) == self._digest(reference)
                assert warm.cube.as_array().tobytes() == \
                    reference.cube.as_array().tobytes()


class TestWritableLoads:
    """Satellite regression: loaded cubes are never read-only views."""

    # The ids are pinned: kwargs1 was the retired uint16 decode path, and the
    # memmap case keeps the name it has always had.
    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="kwargs0"),  # inline float64 (the np.frombuffer copy path)
        pytest.param({"mmap_threshold": 0}, id="kwargs2"),  # copy-on-write memmap path
    ])
    def test_loaded_stack_is_mutable(self, store_path, matched_outcome, kwargs):
        source_paths, target_paths = load_po1().paths(), load_po2().paths()
        with SimilarityStore(store_path, writer=False, **kwargs) as store:
            store_one(store, matched_outcome)
            loaded = store.load_cube("key", source_paths, target_paths)
            layer = loaded.layer(loaded.matcher_names[0])
            # The write path of the matrix API lands in the backing array; a
            # read-only np.frombuffer view here raised "assignment
            # destination is read-only" before the load-boundary copy.
            layer.set(source_paths[0], target_paths[0], 0.123)
            assert layer.get(source_paths[0], target_paths[0]) == 0.123

    def test_rebuilt_wire_outcome_is_mutable(self, matched_outcome):
        from repro.parallel import codec

        header, buffers = codec.decode_frame(
            codec.encode_outcomes([matched_outcome])
        )
        rebuilt = codec.rebuild_outcome(
            header["items"][0],
            buffers,
            matched_outcome.context.source_schema,
            matched_outcome.context.target_schema,
            matched_outcome.strategy,
            matched_outcome.context,
        )
        source_paths = matched_outcome.context.source_schema.paths()
        target_paths = matched_outcome.context.target_schema.paths()
        rebuilt.cube.layer(rebuilt.cube.matcher_names[0]).set(
            source_paths[0], target_paths[0], 0.5
        )
        rebuilt.aggregated.set(source_paths[0], target_paths[0], 0.5)

    @pytest.mark.parametrize("wire_dtype,tolerance", [("float64", 0.0)])
    def test_wire_cube_dtype_round_trip(self, matched_outcome, wire_dtype, tolerance):
        from repro.parallel import codec

        header, buffers = codec.decode_frame(codec.encode_outcomes([matched_outcome]))
        rebuilt = codec.rebuild_outcome(
            header["items"][0],
            buffers,
            matched_outcome.context.source_schema,
            matched_outcome.context.target_schema,
            matched_outcome.strategy,
            matched_outcome.context,
        )
        assert rebuilt.cube.as_array().dtype == np.dtype(wire_dtype)
        error = np.max(
            np.abs(rebuilt.cube.as_array() - matched_outcome.cube.as_array())
        )
        assert error <= tolerance
        assert outcome_rows(rebuilt) == outcome_rows(matched_outcome)
        assert rebuilt.schema_similarity == matched_outcome.schema_similarity


class TestPruneReclaimsDisk:
    def test_prune_shrinks_the_database_file(self, store_path, matched_outcome):
        import os

        def on_disk():
            total = os.path.getsize(store_path)
            wal = store_path + "-wal"
            if os.path.exists(wal):
                total += os.path.getsize(wal)
            return total

        with SimilarityStore(store_path, writer=False) as store:
            for index in range(60):
                store_one(store, matched_outcome, key=f"key{index}")
            store._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            before = on_disk()
            removed = store.prune_cubes(1)
            assert removed == 59
            assert store.cube_count() == 1
            after = on_disk()
            # VACUUM genuinely returns the freed pages to the filesystem.
            assert after < before * 0.5, (before, after)

    def test_prune_unlinks_external_side_files(self, store_path, matched_outcome):
        import os

        with SimilarityStore(
            store_path, writer=False, mmap_threshold=0
        ) as store:
            for index in range(4):
                store_one(store, matched_outcome, key=f"key{index}")
            sides = [store._side_path(f"key{index}") for index in range(4)]
            assert all(os.path.exists(side) for side in sides)
            store.prune_cubes(1)
            remaining = [side for side in sides if os.path.exists(side)]
            assert len(remaining) == 1


class TestServiceIntegration:
    def test_service_store_wiring_and_stats(self, store_path, tmp_path):
        from repro.datasets.figure1 import PO1_DDL, PO2_XSD

        service = MatchService(pool_size=1, store_path=store_path)
        status, _ = service.handle_request(
            "POST", "/schemas", {"name": "PO1", "text": PO1_DDL, "format": "sql"}
        )
        assert status == 201
        status, _ = service.handle_request(
            "POST", "/schemas", {"name": "PO2", "text": PO2_XSD, "format": "xsd"}
        )
        assert status == 201
        status, first = service.handle_request(
            "POST", "/match", {"source": "PO1", "target": "PO2"}
        )
        assert status == 200
        status, stats = service.handle_request("GET", "/stats", None)
        assert status == 200
        assert stats["store"]["path"] == store_path
        assert stats["pool"]["store_misses"] == 1
        assert stats["kernel_memo"]["max_entries"] > 0
        service.close()

        # A "restarted" service over the same store answers warm.
        restarted = MatchService(pool_size=1, store_path=store_path)
        restarted.handle_request(
            "POST", "/schemas", {"name": "PO1", "text": PO1_DDL, "format": "sql"}
        )
        restarted.handle_request(
            "POST", "/schemas", {"name": "PO2", "text": PO2_XSD, "format": "xsd"}
        )
        status, second = restarted.handle_request(
            "POST", "/match", {"source": "PO1", "target": "PO2"}
        )
        assert status == 200
        assert second["correspondences"] == first["correspondences"]
        status, stats = restarted.handle_request("GET", "/stats", None)
        assert stats["pool"]["store_hits"] == 1
        assert stats["store"]["lifetime_misses"] >= 1
        restarted.close()

    def test_health_reports_store(self, store_path):
        service = MatchService(pool_size=1, store_path=store_path)
        status, payload = service.handle_request("GET", "/health", None)
        assert status == 200
        assert payload["store"] == store_path
        service.close()
