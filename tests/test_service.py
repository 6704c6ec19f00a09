"""Tests for the HTTP match service: pool, endpoints, client, concurrency."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.figure1 import PO1_DDL, PO2_XSD, load_po1, load_po2
from repro.exceptions import ServiceError
from repro.service import MatchService, ServiceClient, SessionPool, create_server
from repro.session import MatchSession
from repro.session import session as session_module

#: Cacheable strategies exercising different combination tuples.
SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "Name+Leaves(Average,Both,Thr(0.6),Dice)",
)


def _rows(result: dict):
    return [
        (row["source"], row["target"], row["similarity"])
        for row in result["correspondences"]
    ]


def _expected_rows(source, target, strategy=None):
    outcome = MatchSession().match(source, target, strategy=strategy)
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


@pytest.fixture(scope="module")
def service_client():
    """A running server (ephemeral port) + client, shut down after the module."""
    server = create_server(port=0, pool_size=3)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url)
    client.upload_schema(name="PO1", text=PO1_DDL, format="sql")
    client.upload_schema(name="PO2", text=PO2_XSD, format="xsd")
    yield client
    client.shutdown()
    thread.join(timeout=10)
    server.server_close()


class TestSessionPool:
    def test_overlapping_blocks_share_the_one_session(self):
        pool = SessionPool(size=3)
        with pool.session() as first:
            with pool.session() as second:
                assert first is second
                assert pool.idle == pool.size - 2
        assert pool.idle == pool.size

    def test_size_validation(self):
        with pytest.raises(ServiceError):
            SessionPool(size=0)

    def test_a_job_chunk_waits_while_a_match_holds_the_pool(self, monkeypatch):
        # One slot: a background job's chunk must not start its match while
        # a /match request holds the pool, and it runs once that finishes.
        service = MatchService(pool_size=1)
        service.register_schema(load_po1())
        service.register_schema(load_po2())
        with service.pool.session() as session:
            pass
        entered, release, batches = threading.Event(), threading.Event(), []
        match, match_many = session.match, session.match_many

        def held_match(*args, **kwargs):
            entered.set()
            release.wait(10)
            return match(*args, **kwargs)

        def counted_match_many(items, *args, **kwargs):
            batches.append(len(items))
            return match_many(items, *args, **kwargs)

        monkeypatch.setattr(session, "match", held_match)
        monkeypatch.setattr(session, "match_many", counted_match_many)
        pair = {"source": "PO1", "target": "PO2"}
        try:
            request = threading.Thread(
                target=service.handle_request, args=("POST", "/match", pair), daemon=True
            )
            request.start()
            assert entered.wait(10)
            status, accepted = service.handle_request(
                "POST", "/jobs", {"requests": [pair], "chunk_size": 1}
            )
            assert status == 202
            time.sleep(0.2)
            assert batches == [] and service.pool.idle == 0
            release.set()
            request.join(10)
            assert not request.is_alive()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                _, job = service.handle_request("GET", f"/jobs/{accepted['job']}", None)
                if job["state"] != "running":
                    break
                time.sleep(0.01)
            assert job["state"] == "done" and batches == [1]
            assert service.pool.idle == service.pool.size
        finally:
            release.set()
            service.close()

    def test_cache_info_aggregates(self):
        pool = SessionPool(size=2)
        a, b = load_po1(), load_po2()
        with pool.session() as session:
            session.match(a, b)
        info = pool.cache_info()
        assert info["cube_misses"] == 1
        assert len(info["shards"]) == 1
        pool.clear_caches()
        assert pool.cache_info()["profiles"] == 0

    def test_blocks_when_all_busy(self):
        pool = SessionPool(size=1)
        entered = threading.Event()
        release = threading.Event()
        order = []

        def hold():
            with pool.session():
                entered.set()
                release.wait(timeout=10)
                order.append("first")

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(timeout=10)

        def wait_for_shard():
            with pool.session():
                order.append("second")

        waiter = threading.Thread(target=wait_for_shard)
        waiter.start()
        release.set()
        holder.join(timeout=10)
        waiter.join(timeout=10)
        assert order == ["first", "second"]


class TestSchemaEndpoints:
    def test_health(self, service_client):
        payload = service_client.health()
        assert payload["status"] == "ok"
        assert payload["pool_size"] == 3
        assert payload["schemas"] >= 2

    def test_list_and_details(self, service_client):
        names = [entry["name"] for entry in service_client.schemas()]
        assert "PO1" in names and "PO2" in names
        details = service_client.schema("PO1")
        assert details["paths"] == len(load_po1().paths())
        assert details["statistics"]["max_depth"] >= 2

    def test_upload_dict_spec_and_delete(self, service_client):
        created = service_client.upload_schema(
            spec={"name": "Tiny", "elements": [{"name": "City"}, {"name": "Street"}]}
        )
        assert created == {**created, "name": "Tiny", "paths": 2, "replaced": False}
        replaced = service_client.upload_schema(
            spec={"name": "Tiny", "elements": [{"name": "City"}]}
        )
        assert replaced["replaced"] is True
        assert service_client.delete_schema("Tiny") == {"deleted": "Tiny"}
        with pytest.raises(ServiceError) as error:
            service_client.schema("Tiny")
        assert error.value.status == 404

    def test_upload_validation(self, service_client):
        with pytest.raises(ServiceError) as error:
            service_client.upload_schema(name="X", text="CREATE TABLE t (a INT);")
        assert error.value.status == 400  # no format given
        with pytest.raises(ServiceError):
            service_client.upload_schema(name="X", text="not sql at all", format="nope")
        with pytest.raises(ServiceError):
            service_client.upload_schema(name="X", spec={"name": "X", "elements": []})

    def test_unknown_routes(self, service_client):
        with pytest.raises(ServiceError) as error:
            service_client.request("GET", "/bogus")
        assert error.value.status == 404
        with pytest.raises(ServiceError) as error:
            service_client.request("DELETE", "/match")
        assert error.value.status == 405


class TestMatchEndpoints:
    def test_match_equals_direct_session(self, service_client):
        result = service_client.match("PO1", "PO2")
        assert _rows(result) == _expected_rows(load_po1(), load_po2())
        assert result["strategy"] == "All(Average,Both,Thr(0.5)+Delta(0.02,rel),Average)"
        assert 0.0 <= result["schema_similarity"] <= 1.0

    def test_match_with_spec_and_min_similarity(self, service_client):
        everything = service_client.match("PO1", "PO2", strategy=SPECS[1])
        filtered = service_client.match(
            "PO1", "PO2", strategy=SPECS[1], min_similarity=0.7
        )
        assert set(_rows(filtered)) <= set(_rows(everything))
        assert all(row[2] >= 0.7 for row in _rows(filtered))

    def test_match_unknown_schema(self, service_client):
        with pytest.raises(ServiceError) as error:
            service_client.match("PO1", "Missing")
        assert error.value.status == 404
        assert "known schemas" in str(error.value)

    def test_batch_matches_per_request_strategy(self, service_client):
        results = service_client.match_batch(
            [
                {"source": "PO1", "target": "PO2"},
                {"source": "PO1", "target": "PO2", "strategy": SPECS[2]},
            ],
            strategy=SPECS[1],
        )
        assert len(results) == 2
        assert results[0]["strategy"] == "All(Max,Both,Thr(0.5)+MaxN(1),Average)"
        assert results[1]["strategy"] == "Name+Leaves(Average,Both,Thr(0.6),Dice)"
        expected = _expected_rows(load_po1(), load_po2(), strategy=SPECS[2])
        assert _rows(results[1]) == expected

    def test_batch_min_similarity(self, service_client):
        # Default-strategy PO1/PO2 similarities span ~0.630-0.641, so 0.639
        # filters some rows but not all.
        unfiltered = service_client.match_batch([{"source": "PO1", "target": "PO2"}])
        filtered = service_client.match_batch(
            [{"source": "PO1", "target": "PO2"}], min_similarity=0.639
        )
        assert 0 < len(filtered[0]["correspondences"]) < len(
            unfiltered[0]["correspondences"]
        )
        assert all(r["similarity"] >= 0.639 for r in filtered[0]["correspondences"])
        # a per-entry threshold overrides the batch-level one
        overridden = service_client.match_batch(
            [{"source": "PO1", "target": "PO2", "min_similarity": 0.0}],
            min_similarity=0.99,
        )
        assert _rows(overridden[0]) == _rows(unfiltered[0])

    def test_batch_validation(self, service_client):
        with pytest.raises(ServiceError) as error:
            service_client.request("POST", "/match/batch", {"requests": "nope"})
        assert error.value.status == 400

    def test_batch_validation_reports_every_invalid_entry_with_its_index(
        self, service_client
    ):
        """The 400 payload pins ALL invalid pairs, not just the first.

        Contract: ``{"error": <summary>, "invalid": [{"index": i, "error":
        <reason>}, ...]}`` with one entry per bad request, in index order --
        a client fixing a large campaign must not need one round trip per
        mistake.
        """
        with pytest.raises(ServiceError) as error:
            service_client.match_batch([
                {"source": "PO1", "target": "PO2"},          # 0: valid
                {"source": "PO1", "target": "MISSING"},      # 1: unknown schema
                {"target": "PO2"},                           # 2: no source
                {"source": "PO1", "target": "PO2",
                 "strategy": "Bogus("},                      # 3: bad strategy
                "not-even-an-object",                        # 4: wrong type
            ])
        assert error.value.status == 400
        assert "4 of 5 batch requests are invalid" in str(error.value)
        invalid = error.value.details["invalid"]
        assert [entry["index"] for entry in invalid] == [1, 2, 3, 4]
        assert all(entry["error"] for entry in invalid)
        assert "MISSING" in invalid[0]["error"]
        assert "source" in invalid[1]["error"]


class TestStrategyEndpoints:
    def test_crud_round_trip(self, service_client):
        created = service_client.save_strategy("tuned", "All(Max,Both,Thr(0.6),Dice)")
        assert created == {
            "name": "tuned", "spec": "All(Max,Both,Thr(0.6),Dice)", "replaced": False,
        }
        assert {"name": "tuned", "spec": "All(Max,Both,Thr(0.6),Dice)"} in (
            service_client.strategies()
        )
        document = service_client.strategy("tuned")["document"]
        assert document["matchers"] == ["Name", "NamePath", "TypeName", "Children", "Leaves"]

        by_name = service_client.match("PO1", "PO2", strategy="tuned")
        direct = service_client.match("PO1", "PO2", strategy="All(Max,Both,Thr(0.6),Dice)")
        assert _rows(by_name) == _rows(direct)

        replaced = service_client.save_strategy("tuned", SPECS[0])
        assert replaced["replaced"] is True
        assert service_client.delete_strategy("tuned") == {"deleted": "tuned"}
        with pytest.raises(ServiceError) as error:
            service_client.match("PO1", "PO2", strategy="tuned")
        assert error.value.status == 404

    def test_spec_shaped_name_is_not_a_stored_strategy(self, service_client):
        """GET /strategies/{name} is a stored-name lookup, not a spec parser."""
        with pytest.raises(ServiceError) as error:
            service_client.strategy("Name(Max,Both,MaxN(1),Dice)")
        assert error.value.status == 404

    def test_names_with_special_characters_round_trip(self, service_client):
        service_client.upload_schema(
            spec={"name": "My Schema #1", "elements": [{"name": "City"}]}
        )
        assert service_client.schema("My Schema #1")["paths"] == 1
        service_client.save_strategy("tuned v2", "All(Max,Both,Thr(0.6),Dice)")
        assert service_client.strategy("tuned v2")["name"] == "tuned v2"
        assert service_client.delete_strategy("tuned v2") == {"deleted": "tuned v2"}
        assert service_client.delete_schema("My Schema #1") == {
            "deleted": "My Schema #1"
        }

    def test_validation(self, service_client):
        with pytest.raises(ServiceError) as error:
            service_client.save_strategy("bad(name)", "All")
        assert error.value.status == 400
        with pytest.raises(ServiceError) as error:
            service_client.save_strategy("ok", "NotAMatcher(Max,Both,Thr(0.5))")
        assert error.value.status == 400
        with pytest.raises(ServiceError) as error:
            service_client.delete_strategy("never-stored")
        assert error.value.status == 404


class TestServiceRepository:
    def test_strategies_persist_through_repository(self, tmp_path):
        database = str(tmp_path / "service.db")
        first = MatchService(pool_size=1, repository_path=database)
        status, payload = first.handle_request(
            "POST", "/strategies", {"name": "tuned", "spec": "All(Max,Both,Thr(0.6),Dice)"}
        )
        assert (status, payload["name"]) == (201, "tuned")

        second = MatchService(pool_size=1, repository_path=database)
        status, payload = second.handle_request("GET", "/strategies/tuned", None)
        assert status == 200
        assert payload["spec"] == "All(Max,Both,Thr(0.6),Dice)"

    def test_close_releases_the_repository_file(self, tmp_path):
        import os

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("counts open descriptors through /proc/self/fd")
        database = str(tmp_path / "service.db")

        def descriptors_on_database():
            count = 0
            for entry in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{entry}")
                except OSError:
                    continue  # closed since the listing
                count += target.startswith(database)
            return count

        service = MatchService(pool_size=1, repository_path=database)
        assert descriptors_on_database() >= 1
        service.close()
        assert descriptors_on_database() == 0
        service.close()  # idempotent


class TestServiceConcurrency:
    def test_concurrent_matches_byte_identical(self, service_client):
        """Acceptance: service results under concurrent load == direct session."""
        po1, po2 = load_po1(), load_po2()
        expected = {
            spec: _expected_rows(po1, po2, strategy=spec) for spec in SPECS
        }
        work = [SPECS[i % len(SPECS)] for i in range(24)]

        def issue(spec):
            return spec, _rows(service_client.match("PO1", "PO2", strategy=spec))

        with ThreadPoolExecutor(max_workers=8) as executor:
            outcomes = list(executor.map(issue, work))
        assert len(outcomes) == len(work)
        for spec, rows in outcomes:
            assert rows == expected[spec], f"diverged under load for {spec}"

    def test_stats_counters_consistent_after_load(self, service_client):
        stats = service_client.stats()
        pool = stats["pool"]
        assert pool["cube_hits"] + pool["cube_misses"] >= len(SPECS)
        assert stats["requests"]["total"] >= stats["requests"]["by_route"].get("match", 0)
        assert len(pool["shards"]) == 1


class TestSpecMemo:
    def test_each_distinct_spec_string_is_parsed_once(self, monkeypatch):
        monkeypatch.setattr(session_module, "PARSED_SPECS_BOUND", 2)
        service = MatchService(pool_size=1)
        try:
            first, second, third = (service.resolve_strategy(spec) for spec in SPECS)
            assert service.resolve_strategy(SPECS[2]) is third
            assert service.resolve_strategy(SPECS[1]) is second
            # The bound dropped the oldest string; it parses to an equal strategy again.
            again = service.resolve_strategy(SPECS[0])
            assert again is not first and again.to_spec() == first.to_spec()
            for _ in range(2):
                with pytest.raises(ServiceError) as error:
                    service.resolve_strategy("All(Average,Sideways,Thr(0.5),Average)")
                assert error.value.status == 400
        finally:
            service.close()
