"""Concurrency tests: one shared MatchSession hammered from many threads.

The session guarantees (see the module docstring of ``repro.session.session``):

* results are byte-identical to serial execution,
* the caches never corrupt (no lost inserts, no iteration races with trims),
* ``cube_hits + cube_misses`` equals the number of cacheable executions,
* concurrent misses of one cube compute it once (one flight per key).
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.gold_standard import load_task
from repro.engine.engine import MatchEngine
from repro.session import MatchSession
from repro.session import session as session_module

#: Cacheable strategies (hybrid matchers only) with distinct combinations.
SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "Name+Leaves(Average,Both,Thr(0.6),Dice)",
)

THREADS = 8


def _result_rows(outcome):
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


@pytest.fixture(scope="module")
def schema_pairs():
    """Shared schema objects: two distinct pairs, loaded once."""
    task = load_task(1, 2)
    return [(load_po1(), load_po2()), (task.source, task.target)]


def _mixed_workload(session, pairs, worker_index):
    """One thread's operation mix; returns labelled, comparable results."""
    results = []
    for round_index in range(3):
        source, target = pairs[(worker_index + round_index) % len(pairs)]
        spec = SPECS[(worker_index + round_index) % len(SPECS)]
        kind = (worker_index + round_index) % 3
        if kind == 0:
            outcome = session.match(source, target, strategy=spec)
            results.append(("match", source.name, target.name, spec,
                            _result_rows(outcome)))
        elif kind == 1:
            outcomes = session.match_many(
                [(source, target, spec), (target, source, spec)]
            )
            results.append(("match_many", source.name, target.name, spec,
                            [_result_rows(outcome) for outcome in outcomes]))
        else:
            similarity = session.schema_similarity(source, target, strategy=spec)
            results.append(("schema_similarity", source.name, target.name, spec,
                            similarity))
    return results


def _cacheable_executions(results):
    """How many cube executions a result list accounts for."""
    count = 0
    for kind, *_ in results:
        count += 2 if kind == "match_many" else 1
    return count


class TestConcurrentSession:
    def test_concurrent_results_byte_identical_to_serial(self, schema_pairs):
        serial_session = MatchSession()
        serial = [
            _mixed_workload(serial_session, schema_pairs, index)
            for index in range(THREADS)
        ]

        shared = MatchSession()
        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            concurrent = list(
                executor.map(
                    lambda index: _mixed_workload(shared, schema_pairs, index),
                    range(THREADS),
                )
            )
        assert concurrent == serial

    def test_counters_consistent_under_concurrency(self, schema_pairs):
        session = MatchSession()
        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            results = list(
                executor.map(
                    lambda index: _mixed_workload(session, schema_pairs, index),
                    range(THREADS),
                )
            )
        executions = sum(_cacheable_executions(result) for result in results)
        info = session.cache_info()
        # Every cacheable execution is accounted for exactly once.
        assert info["cube_hits"] + info["cube_misses"] == executions
        # Distinct (ordered pair, matcher usage) keys bound the cache; racing
        # threads may only converge on fewer-or-equal distinct entries.
        distinct_keys = len(
            {(s.name, t.name, spec) for s, t in schema_pairs for spec in SPECS}
        ) * 2  # both orientations appear via match_many
        assert 0 < info["cubes"] <= distinct_keys
        # One profile per distinct schema object (setdefault convergence).
        assert info["profiles"] == 4

    def test_concurrent_profile_for_converges(self, schema_pairs):
        session = MatchSession()
        schema = schema_pairs[0][0]
        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            profiles = list(
                executor.map(lambda _: session.profile_for(schema), range(32))
            )
        assert all(profile is profiles[0] for profile in profiles)
        assert session.cache_info()["profiles"] == 1

    def test_overlapping_transient_profiles_evict_when_the_last_exits(self):
        # Two searches of one query on a shared session: the second enters
        # after the first built the profile, and the first exits first.
        session = MatchSession()
        query = load_po1()
        first, second = session.transient_profile(query), session.transient_profile(query)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert session.cache_info()["profiles"] == 1  # still in use
        second.__exit__(None, None, None)
        assert session.cache_info()["profiles"] == 0
        session.profile_for(query)
        with session.transient_profile(query), session.transient_profile(query):
            pass
        assert session.cache_info()["profiles"] == 1  # cached before: kept

    def test_trim_races_with_inserts(self, schema_pairs):
        """A tiny profile bound forces constant evictions while threads insert."""
        session = MatchSession(max_cached_profiles=1, max_cached_cubes=1)
        pairs = schema_pairs * 2

        def churn(index):
            source, target = pairs[index % len(pairs)]
            outcome = session.match(source, target, strategy=SPECS[index % len(SPECS)])
            return _result_rows(outcome)

        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            results = list(executor.map(churn, range(32)))
        assert len(results) == 32
        info = session.cache_info()
        assert info["profiles"] <= 1
        assert info["cubes"] <= 1

    def test_concurrent_strategy_registry(self):
        session = MatchSession()
        barrier = threading.Barrier(THREADS)

        def register(index):
            barrier.wait(timeout=10)
            session.save_strategy(f"strategy-{index % 4}", SPECS[index % len(SPECS)])
            return session.load_strategy(f"strategy-{index % 4}")

        with ThreadPoolExecutor(max_workers=THREADS) as executor:
            loaded = list(executor.map(register, range(THREADS)))
        assert len(loaded) == THREADS
        assert session.strategy_names() == (
            "strategy-0", "strategy-1", "strategy-2", "strategy-3",
        )


class _CountingFlight(session_module._Flight):
    """A flight that counts the executions waiting on it."""

    lock = threading.Lock()
    waiting = 0

    def wait(self, timeout=None):
        with _CountingFlight.lock:
            _CountingFlight.waiting += 1
        return super().wait(timeout)


class _HeldEngine(MatchEngine):
    """Holds its first execution until ``waiters`` executions wait on it.

    With ``fail`` the held execution then raises instead of computing.
    """

    def __init__(self, waiters: int, fail: bool = False):
        super().__init__()
        self._waiters = waiters
        self._fail = fail
        self._lock = threading.Lock()
        self.executions = 0
        self.entered = threading.Event()

    def execute(self, *args, **kwargs):
        with self._lock:
            self.executions += 1
            first = self.executions == 1
        if first:
            self.entered.set()
            deadline = time.monotonic() + 30
            while _CountingFlight.waiting < self._waiters:
                assert time.monotonic() < deadline, "the other executions never waited"
                time.sleep(0.001)
            if self._fail:
                raise RuntimeError("injected engine failure")
        return super().execute(*args, **kwargs)


@pytest.fixture
def counting_flights(monkeypatch):
    monkeypatch.setattr(session_module, "_Flight", _CountingFlight)
    monkeypatch.setattr(_CountingFlight, "waiting", 0)


def _run_threads(work, count):
    """Run ``work(index)`` on ``count`` threads behind a barrier; bounded joins."""
    barrier = threading.Barrier(count)
    results = [None] * count

    def run(index):
        barrier.wait(timeout=30)
        try:
            results[index] = ("ok", work(index))
        except Exception as error:  # the failing leader
            results[index] = ("error", error)

    threads = [
        threading.Thread(target=run, args=(index,), daemon=True) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "a thread hangs"
    return results


class TestOneFlight:
    SPEC = SPECS[0]

    def test_concurrent_misses_of_one_key_compute_it_once(
        self, schema_pairs, counting_flights
    ):
        source, target = schema_pairs[0]
        expected = _result_rows(MatchSession().match(source, target, strategy=self.SPEC))
        engine = _HeldEngine(waiters=THREADS - 1)
        session = MatchSession(engine=engine)
        results = _run_threads(
            lambda _: _result_rows(session.match(source, target, strategy=self.SPEC)),
            THREADS,
        )
        assert results == [("ok", expected)] * THREADS
        info = session.cache_info()
        assert (info["cube_misses"], info["cube_hits"]) == (1, THREADS - 1)
        assert engine.executions == 1

    def test_a_failed_leader_hands_the_key_to_a_waiter(
        self, schema_pairs, counting_flights
    ):
        source, target = schema_pairs[0]
        serial = MatchSession().match(source, target, strategy=self.SPEC)
        engine = _HeldEngine(waiters=THREADS - 1, fail=True)
        session = MatchSession(engine=engine)
        results = _run_threads(
            lambda _: session.match(source, target, strategy=self.SPEC), THREADS
        )
        errors = [value for kind, value in results if kind == "error"]
        outcomes = [value for kind, value in results if kind == "ok"]
        assert len(errors) == 1 and isinstance(errors[0], RuntimeError)
        assert len(outcomes) == THREADS - 1
        for outcome in outcomes:
            assert _result_rows(outcome) == _result_rows(serial)
            assert outcome.cube.as_array().tobytes() == serial.cube.as_array().tobytes()
            assert outcome.schema_similarity == serial.schema_similarity
        info = session.cache_info()
        assert info["cube_hits"] + info["cube_misses"] == len(outcomes)
        assert info["cube_misses"] == 1
        assert engine.executions == 2  # the failed one, then one new leader

    def test_match_many_waits_on_a_key_match_computes(
        self, schema_pairs, counting_flights
    ):
        source, target = schema_pairs[0]
        expected = _result_rows(MatchSession().match(source, target, strategy=self.SPEC))
        engine = _HeldEngine(waiters=1)
        session = MatchSession(engine=engine)

        def work(index):
            if index == 0:
                return _result_rows(session.match(source, target, strategy=self.SPEC))
            assert engine.entered.wait(timeout=30)  # the match() computes the key
            [outcome] = session.match_many([(source, target, self.SPEC)])
            return _result_rows(outcome)

        results = _run_threads(work, 2)
        assert results == [("ok", expected)] * 2
        info = session.cache_info()
        assert (info["cube_misses"], info["cube_hits"]) == (1, 1)
        assert engine.executions == 1

    def test_stress_misses_equal_the_distinct_keys(self, schema_pairs):
        """Many threads, every key in a shuffled order, tiny switch interval."""
        work = [
            (source, target, spec)
            for pair in schema_pairs
            for source, target in (pair, pair[::-1])
            for spec in SPECS
        ]
        serial_session = MatchSession()
        serial = {
            (s.name, t.name, spec): _result_rows(serial_session.match(s, t, strategy=spec))
            for s, t, spec in work
        }
        distinct = serial_session.cache_info()["cubes"]
        session = MatchSession()

        def hammer(index):
            order = list(work) * 2
            random.Random(index).shuffle(order)
            return [
                ((s.name, t.name, spec), _result_rows(session.match(s, t, strategy=spec)))
                for s, t, spec in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _run_threads(hammer, 2 * THREADS)
        finally:
            sys.setswitchinterval(interval)
        for kind, rows in results:
            assert kind == "ok"
            for key, value in rows:
                assert value == serial[key]
        info = session.cache_info()
        assert info["cube_misses"] == distinct
        assert info["cube_hits"] + info["cube_misses"] == 2 * THREADS * 2 * len(work)
