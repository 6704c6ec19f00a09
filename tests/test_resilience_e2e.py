"""End-to-end resilience: every catalog fault plan, replayed and survived.

The contract under test: whatever the armed fault plan does -- corrupt store
bytes, wedge a worker, crash-loop workers, lose the corpus index, kill a
process mid-write -- the stack either returns results **byte-identical** to
the fault-free run or fails with a **typed error**, inside a hard wall-clock
bound.  Never a hang, never a silently wrong answer.

Byte-identity is asserted on the full similarity cube (every layer's raw
bytes), not just the selected correspondences: a recompute path that drifted
numerically would be caught here even if the ranking happened to survive.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.datasets.figure1 import load_po1, load_po2
from repro.exceptions import PoolTimeoutError, ServiceError
from repro.faults import KILL_EXIT_CODE, catalog_plan
from repro.parallel import ProcessSessionPool
from repro.repository.store import SimilarityStore, schema_content_digest
from repro.service.server import MatchService
from repro.session import MatchSession

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

#: Hard wall-clock bound on any single faulted operation in this suite.
OPERATION_BOUND_SECONDS = 30.0


@pytest.fixture(autouse=True)
def _always_disarmed():
    faults.disarm()
    yield
    faults.disarm()


def cube_fingerprint(outcome):
    """Every layer's raw bytes plus the selected correspondences."""
    layers = tuple(
        (name, matrix.values.tobytes()) for name, matrix in outcome.cube.layers()
    )
    rows = tuple(
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    )
    return layers, rows


@pytest.fixture(scope="module")
def baseline():
    """The fault-free reference run (po1 x po2, default strategy)."""
    session = MatchSession()
    outcome = session.match(load_po1(), load_po2())
    return cube_fingerprint(outcome)


def _store_one(store, outcome, key="cube-key"):
    store.store_cube(
        key,
        outcome.cube,
        schema_content_digest(outcome.context.source_schema),
        schema_content_digest(outcome.context.target_schema),
        outcome.cube.matcher_names,
        "config",
    )


class TestStoreCorruptionPlans:
    @pytest.mark.parametrize("plan_name", ["store-corruption", "store-truncation"])
    def test_corrupt_blobs_are_quarantined_and_served_as_misses(
        self, tmp_path, plan_name
    ):
        store_path = str(tmp_path / "store.db")
        session = MatchSession()
        outcome = session.match(load_po1(), load_po2())
        source_paths = outcome.context.source_schema.paths()
        target_paths = outcome.context.target_schema.paths()
        with SimilarityStore(store_path, writer=False) as store:
            _store_one(store, outcome)
            assert store.cube_count() == 1
        with SimilarityStore(store_path, writer=False) as store:
            with faults.armed(catalog_plan(plan_name)):
                loaded = store.load_cube("cube-key", source_paths, target_paths)
            # Corruption surfaces as a *miss*, never an exception or bad data.
            assert loaded is None
            info = store.info()
            assert info["corrupt"] == 1
            assert info["quarantined"] == 1
            assert store.cube_count() == 0  # the poisoned row is gone
            # The recompute-and-restore path then serves clean bytes again.
            _store_one(store, outcome)
            reloaded = store.load_cube("cube-key", source_paths, target_paths)
            assert reloaded is not None
            assert reloaded.as_array().tobytes() == outcome.cube.as_array().tobytes()

    def test_session_recomputes_identically_over_a_corrupted_store(
        self, tmp_path, baseline
    ):
        store_path = str(tmp_path / "store.db")
        warm = MatchSession(store=store_path)
        try:
            warm.match(load_po1(), load_po2())
        finally:
            warm.close()  # flush the background writer
        with faults.armed(catalog_plan("store-corruption")):
            session = MatchSession(store=store_path)
            try:
                start = time.monotonic()
                outcome = session.match(load_po1(), load_po2())
                elapsed = time.monotonic() - start
            finally:
                session.close()
        assert cube_fingerprint(outcome) == baseline
        assert elapsed < OPERATION_BOUND_SECONDS


class TestWorkerHangPlan:
    def test_watchdog_converts_a_wedged_worker_into_a_typed_timeout(self):
        plan = catalog_plan("worker-hang")
        pool = ProcessSessionPool(size=1, fault_plan=plan.to_dict())
        try:
            start = time.monotonic()
            with pytest.raises(PoolTimeoutError) as excinfo:
                pool.match_many([(load_po1(), load_po2())], timeout=2.0)
            elapsed = time.monotonic() - start
            # Within deadline + grace, not after the 120s injected wedge.
            assert elapsed < 10.0
            assert excinfo.value.status == 504
            info = pool.resilience_info()
            assert info["watchdog_kills"] == 1
            # The background respawner must return the slot to the free list.
            deadline = time.monotonic() + OPERATION_BOUND_SECONDS
            while pool.idle < 1:
                assert time.monotonic() < deadline, "slot never came back"
                time.sleep(0.05)
            assert pool.resilience_info()["respawns"] >= 1
        finally:
            pool.close()


class TestWorkerCrashLoopPlan:
    def test_breaker_routes_around_crash_looping_workers(self, baseline):
        plan = catalog_plan("worker-crash-loop")
        pool = ProcessSessionPool(size=1, fault_plan=plan.to_dict())
        try:
            start = time.monotonic()
            # Every fresh worker kills itself on its first frames (respawns
            # re-arm the plan), so each request rides death -> replay ->
            # death -> in-process fallback; the third trips the breaker.
            for _ in range(3):
                outcome = pool.match(load_po1(), load_po2())
                assert cube_fingerprint(outcome) == baseline
            elapsed = time.monotonic() - start
            assert elapsed < OPERATION_BOUND_SECONDS
            info = pool.resilience_info()
            assert info["breaker"]["state"] == "open"
            assert info["breaker"]["trips"] >= 1
            assert info["breaker"]["routed_local"] >= 1
            assert info["respawns"] >= 2
            assert pool.idle == 1  # no leaked slot despite all the deaths
        finally:
            pool.close()

    def test_the_service_keeps_chunks_on_its_one_session(self, tmp_path, monkeypatch):
        """Chunks kept in the service process run on the service's session."""
        def service(backend, **options):
            return MatchService(
                backend=backend, pool_size=1,
                store_path=str(tmp_path / f"{backend}-store.db"),
                repository_path=str(tmp_path / f"{backend}-repository.db"),
                **options,
            )

        def match(service):
            status, body = service.handle_request(
                "POST", "/match", {"source": "PO1", "target": "PO2"}
            )
            assert status == 200
            return body

        def count_inits(cls):
            built = []
            original = cls.__init__

            def init(self, *args, **kwargs):
                built.append(self)
                original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", init)
            return built

        reference = service("thread")
        try:
            for schema in (load_po1(), load_po2()):
                reference.register_schema(schema)
            expected = [match(reference) for _ in range(4)]
        finally:
            reference.close()
        crashing = service("process", fault_plan=catalog_plan("worker-crash-loop"))
        try:
            for schema in (load_po1(), load_po2()):
                crashing.register_schema(schema)
            sessions, stores = count_inits(MatchSession), count_inits(SimilarityStore)
            start = time.monotonic()
            bodies = [match(crashing) for _ in range(4)]
            elapsed = time.monotonic() - start
            breaker = crashing.component_health()["pool"]["breaker"]
        finally:
            crashing.close()
        assert (len(sessions), len(stores)) == (0, 0)
        assert breaker["routed_local"] >= 1
        assert bodies == expected
        assert elapsed < OPERATION_BOUND_SECONDS


class TestCorpusIndexLossPlan:
    def test_search_degrades_to_a_typed_503_and_recovers(self):
        plan = catalog_plan("corpus-index-loss")
        service = MatchService(
            pool_size=1, corpus_path=":memory:", fault_plan=plan.to_dict()
        )
        try:
            service.register_schema(load_po1())
            service.register_schema(load_po2())
            status, payload = service.handle_request(
                "POST", "/search", {"source": "PO1", "k": 2}
            )
            assert status == 503
            assert payload["component"] == "corpus"
            assert "corpus search unavailable" in payload["error"]
            # /health flags exactly the corpus component.
            status, health = service.handle_request("GET", "/health", None)
            assert health["status"] == "degraded"
            assert health["components"]["corpus"]["status"] == "degraded"
            assert health["components"]["pool"]["status"] == "ok"
            # Plain pair matching is unaffected by the lost index.
            status, match = service.handle_request(
                "POST", "/match", {"source": "PO1", "target": "PO2"}
            )
            assert status == 200 and match["correspondences"]
            # Recovery: the index is "back" (plan disarmed), one successful
            # search clears the degradation mark.
            faults.disarm()
            status, result = service.handle_request(
                "POST", "/search", {"source": "PO1", "k": 2}
            )
            assert status == 200 and result["results"]
            status, health = service.handle_request("GET", "/health", None)
            assert health["status"] == "ok"
        finally:
            service.close()


_MID_WRITE_KILL_SCRIPT = """\
import sys
sys.path.insert(0, {src!r})
from repro import faults
from repro.datasets.figure1 import load_po1, load_po2
from repro.faults import catalog_plan
from repro.repository.store import SimilarityStore, schema_content_digest
from repro.session import MatchSession

faults.arm(catalog_plan("mid-write-kill"))
outcome = MatchSession().match(load_po1(), load_po2())
store = SimilarityStore({store!r}, writer=False)
for index in range(4):
    store.store_cube(
        "key-%d" % index,
        outcome.cube,
        schema_content_digest(outcome.context.source_schema),
        schema_content_digest(outcome.context.target_schema),
        outcome.cube.matcher_names,
        "config",
    )
raise SystemExit("the mid-write kill never fired")
"""


class TestMidWriteKillPlan:
    def test_a_killed_writer_leaves_only_crc_clean_blobs(self, tmp_path):
        store_path = str(tmp_path / "store.db")
        script = tmp_path / "sacrifice.py"
        script.write_text(
            _MID_WRITE_KILL_SCRIPT.format(src=SRC_DIR, store=store_path)
        )
        completed = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            timeout=OPERATION_BOUND_SECONDS * 4,
        )
        assert completed.returncode == KILL_EXIT_CODE, completed.stderr.decode()

        # The survivor's view: whatever rows landed are complete and
        # crc-clean; a torn second write must not be visible at all.
        outcome = MatchSession().match(load_po1(), load_po2())
        source_paths = outcome.context.source_schema.paths()
        target_paths = outcome.context.target_schema.paths()
        with SimilarityStore(store_path, writer=False) as store:
            assert store.cube_count() == 1  # write 1 landed, write 2 died
            loaded = store.load_cube("key-0", source_paths, target_paths)
            assert loaded is not None
            assert loaded.as_array().tobytes() == outcome.cube.as_array().tobytes()
            for index in range(1, 4):
                assert (
                    store.load_cube(f"key-{index}", source_paths, target_paths)
                    is None
                )
            assert store.info()["corrupt"] == 0  # absent, not torn


class TestFaultPlansShipToWorkers:
    def test_worker_processes_arm_the_parents_plan(self, baseline):
        # A raise rule on the worker seam only fires if the *child* process
        # armed the plan it was spawned with: the worker answers its first
        # match frame with the injected error (a typed ServiceError here --
        # the worker survives, so there is nothing to replay), and the next
        # request over the same worker succeeds byte-identically.
        plan = faults.FaultPlan(
            [faults.FaultRule(point="worker.match", action="raise", nth=1)],
            name="worker-raise-once",
        )
        pool = ProcessSessionPool(size=1, fault_plan=plan.to_dict())
        try:
            with pytest.raises(ServiceError, match="injected fault"):
                pool.match(load_po1(), load_po2())
            outcome = pool.match(load_po1(), load_po2())
            assert cube_fingerprint(outcome) == baseline
        finally:
            pool.close()
