"""Mechanics of the process pool and its wire codec (scheduling, recovery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.figure1 import load_po1, load_po2
from repro.exceptions import ServiceError
from repro.model.element import ElementKind
from repro.parallel import ProcessSessionPool, decode_frame, encode_frame
from repro.parallel import codec
from repro.parallel.codec import MAGIC
from repro.session import MatchSession


@pytest.fixture(scope="module")
def pool():
    pool = ProcessSessionPool(size=2)
    yield pool
    pool.close()


class TestCodec:
    def test_frame_round_trip_preserves_header_and_buffer_bytes(self):
        stack = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        frame = encode_frame({"kind": "x", "n": 3}, [b"raw", stack])
        header, buffers = decode_frame(frame)
        assert header == {"kind": "x", "n": 3}
        assert bytes(buffers[0]) == b"raw"
        assert np.frombuffer(buffers[1], dtype=np.float64).reshape(3, 4).tobytes() \
            == stack.tobytes()

    def test_bad_magic_is_rejected(self):
        frame = bytearray(encode_frame({"kind": "x"}))
        frame[:4] = b"NOPE"
        with pytest.raises(ServiceError):
            decode_frame(bytes(frame))
        assert MAGIC == b"CPF2"

    def test_truncated_frame_is_rejected(self):
        frame = encode_frame({"kind": "x"}, [b"0123456789"])
        with pytest.raises(ServiceError):
            decode_frame(frame[: len(frame) - 4])

    def test_a_result_changed_after_its_match_is_not_encoded(self):
        outcome = MatchSession().match(load_po1(), load_po2())
        outcome.result.remove_pair(*outcome.result.pairs()[0])
        with pytest.raises(ServiceError, match="as its match built it"):
            codec.encode_outcomes([outcome])

    def test_pair_index_outside_the_cube_is_rejected(self):
        po1, po2 = load_po1(), load_po2()
        outcome = MatchSession().match(po1, po2)
        header, buffers = decode_frame(codec.encode_outcomes([outcome]))
        item = header["items"][0]
        rebuilt = codec.rebuild_outcome(
            item, buffers, po1, po2, outcome.strategy, outcome.context
        )
        assert rebuilt.result.as_tuples() == outcome.result.as_tuples()
        for bad in ([len(po1.paths()), 0], [0, -1]):
            item["pairs"][0] = bad
            with pytest.raises(ServiceError, match="outside its"):
                codec.rebuild_outcome(
                    item, buffers, po1, po2, outcome.strategy, outcome.context
                )


class TestPoolMechanics:
    def test_size_validation(self):
        with pytest.raises(ServiceError):
            ProcessSessionPool(size=0)

    def test_remote_errors_surface_as_service_errors(self, pool):
        with pytest.raises(ServiceError) as excinfo:
            pool.match(load_po1(), load_po2(), strategy="NoSuchMatcher(Max,Both,Thr(0.5),Dice)")
        assert "worker" in str(excinfo.value)

    def test_request_tuple_validation(self, pool):
        with pytest.raises(ServiceError):
            pool.match_many([(load_po1(),)])

    def test_worker_death_is_recovered_by_respawn_and_replay(self):
        a, b = load_po1(), load_po2()
        with ProcessSessionPool(size=1) as lone:
            before = lone.match(a, b)
            old_pid = lone._workers[0].pid
            lone._workers[0].process.terminate()
            lone._workers[0].process.join(timeout=10)
            # The dead worker is respawned on first touch and the request
            # replayed there (schemas re-shipped transparently).
            after = lone.match(a, b)
            assert after.result.as_tuples() == before.result.as_tuples()
            assert lone._workers[0].pid != old_pid
            assert lone._workers[0].process.is_alive()

    def test_worker_stats_observe_and_heal_a_dead_worker(self, pool):
        victim = pool._workers[0]
        victim.process.terminate()
        victim.process.join(timeout=10)
        first = pool.worker_stats()  # touches every slot; the dead one respawns
        assert any(not shard.get("alive", True) for shard in first)
        second = pool.worker_stats()
        assert all(shard.get("alive", True) for shard in second)
        assert all(worker.process.is_alive() for worker in pool._workers)

    def test_worker_stats_and_cache_info_shapes(self, pool):
        pool.match(load_po1(), load_po2())
        info = pool.cache_info()
        assert info["backend"] == "process"
        assert len(info["shards"]) == 2 and len(info["workers"]) == 2
        for key in ("profiles", "cubes", "cube_hits", "cube_misses",
                    "store_hits", "store_misses"):
            assert key in info
        assert sum(worker["requests"] for worker in info["workers"]) >= 1

    def test_clear_caches_resets_worker_sessions(self, pool):
        pool.match(load_po1(), load_po2())
        pool.clear_caches()
        info = pool.cache_info()
        assert info["cubes"] == 0 and info["profiles"] == 0
        assert all(worker["schemas"] == 0 for worker in info["workers"])

    def test_batch_preserves_request_order(self, pool):
        a, b = load_po1(), load_po2()
        outcomes = pool.match_many([(a, b), (b, a), (a, b)])
        assert [o.context.source_schema.name for o in outcomes] == ["PO1", "PO2", "PO1"]

    def test_closed_pool_refuses_work(self):
        pool = ProcessSessionPool(size=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ServiceError):
            pool.match(load_po1(), load_po2())


class TestSchemaCacheEviction:
    def test_tiny_worker_cache_survives_chunks_larger_than_the_bound(self):
        from repro.datasets.generators import generate_pair

        pairs = [
            generate_pair(
                sections=1, fields_per_section=2, seed=seed,
                source_name=f"EvA{seed}", target_name=f"EvB{seed}",
            )
            for seed in range(4)
        ]
        with ProcessSessionPool(size=1, schema_cache_bound=2) as tiny:
            # One chunk references 8 distinct schemas -- four times the
            # worker-side bound; the worker must keep this frame's schemas
            # and evict only between frames.
            outcomes = tiny.match_many(
                [(pair.source, pair.target) for pair in pairs]
            )
            assert len(outcomes) == 4
            # The next single match trims the worker cache down to the bound;
            # replaying another pair afterwards hits schemas the parent
            # believes shipped but the worker evicted -- the unknown-schema
            # recovery round trip re-ships them transparently.
            first = tiny.match(pairs[0].source, pairs[0].target)
            second = tiny.match(pairs[1].source, pairs[1].target)
        assert first.result.as_tuples() == outcomes[0].result.as_tuples()
        assert second.result.as_tuples() == outcomes[1].result.as_tuples()


class TestSchemaEditedInPlace:
    def test_an_edited_schema_ships_under_its_new_digest(self):
        po1, po2 = load_po1(), load_po2()
        with ProcessSessionPool(size=1) as pool:
            pool.match(po1, po2)
            po1.add_element("ShipToCity", parent=po1.find_element("ShipTo"),
                            kind=ElementKind.COLUMN)
            edited = pool.match(po1, po2)
            batched = MatchSession().match_many([(po1, po2)], process_pool=pool)[0]
        serial = MatchSession().match(po1, po2)
        for outcome in (edited, batched):
            assert outcome.result.as_tuples() == serial.result.as_tuples()
            assert outcome.cube.as_array().tobytes() == serial.cube.as_array().tobytes()


class TestStoreSeededWorkers:
    def test_workers_share_one_persistent_store(self, tmp_path):
        store_path = str(tmp_path / "store.db")
        a, b = load_po1(), load_po2()
        # First pool computes and persists; second pool starts warm.
        with ProcessSessionPool(size=1, store_path=store_path) as warm_up:
            first = warm_up.match(a, b)
            info = warm_up.cache_info()
            assert info["store_misses"] >= 1
        with ProcessSessionPool(size=1, store_path=store_path) as warm:
            second = warm.match(a, b)
            assert warm.cache_info()["store_hits"] >= 1
        assert first.cube.as_array().tobytes() == second.cube.as_array().tobytes()

    def test_ephemeral_session_fan_out_spawns_and_closes(self):
        a, b = load_po1(), load_po2()
        session = MatchSession()
        outcomes = session.match_many([(a, b)], processes=1)
        reference = MatchSession().match(a, b)
        assert outcomes[0].result.as_tuples() == reference.result.as_tuples()
