"""Multi-process SimilarityStore and Repository stress: no lost writes.

Every worker of ``coma serve --backend process`` opens its own connection to
one shared store file (and repository file), so both must survive concurrent
cross-process readers and writers: no ``sqlite3.OperationalError`` may escape
their public API, no committed write may be lost, and the lifetime hit/miss
counters each process folds in at close must sum exactly.  This is what the
WAL + busy-timeout configuration of :mod:`repro.repository.sqlite` exists
for; a child that trips a locking error crashes and leaves no result file,
which the parent reports.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import numpy as np
import pytest

WORKERS = 4
OPS = 25
#: Number of distinct keys the workers deliberately collide on.
SHARED_KEYS = 7


def _stress_schema():
    from repro.model.builder import SchemaBuilder

    builder = SchemaBuilder("Stress")
    with builder.inner("Section"):
        for index in range(12):
            builder.leaf(f"Leaf{index}", "varchar(10)")
    return builder.build()


def _stress_cube(paths):
    from repro.combination.cube import SimilarityCube
    from repro.combination.matrix import SimilarityMatrix

    count = len(paths)
    values = np.linspace(0.0, 1.0, count * count).reshape(count, count)
    return SimilarityCube.from_layers(
        paths,
        paths,
        [
            ("Name", SimilarityMatrix(paths, paths, values)),
            ("Leaves", SimilarityMatrix(paths, paths, values[::-1])),
        ],
    )


def stress_worker(store_path: str, index: int, result_path: str) -> None:
    """One writer/reader process; crashes (no result file) on any store error."""
    from repro.repository.store import SimilarityStore

    schema = _stress_schema()
    paths = schema.paths()
    cube = _stress_cube(paths)
    store = SimilarityStore(store_path)
    try:
        for op in range(OPS):
            # Own key, contended shared key, token rows -- all synchronous
            # writes, so every iteration exercises the cross-process write
            # lock directly (the background writer would hide contention).
            store.store_cube(f"own-{index}-{op}", cube, "sd", "td", ["Name"], "cfg")
            store.store_cube(
                f"shared-{op % SHARED_KEYS}", cube, "sd", "td", ["Name"], "cfg"
            )
            store.store_tokens(
                "cfg",
                [
                    (f"name-{index}-{op}", ("alpha", "beta")),
                    (f"shared-{op % SHARED_KEYS}", ("gamma",)),
                ],
            )
            loaded = store.load_cube(f"own-{index}-{op}", paths, paths)
            assert loaded is not None, "a committed write was lost"
            assert loaded.as_array().tobytes() == cube.as_array().tobytes()
            assert store.load_cube(f"missing-{index}-{op}", paths, paths) is None
        info = store.info()
        with open(result_path, "w") as handle:
            json.dump({"hits": info["hits"], "misses": info["misses"]}, handle)
    finally:
        store.close()


def test_concurrent_processes_share_one_store(tmp_path):
    store_path = str(tmp_path / "stress-store.db")
    context = multiprocessing.get_context("spawn")
    result_paths = [str(tmp_path / f"result-{index}.json") for index in range(WORKERS)]
    processes = [
        context.Process(
            target=stress_worker, args=(store_path, index, result_paths[index])
        )
        for index in range(WORKERS)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=180)
    for index, process in enumerate(processes):
        assert process.exitcode == 0, (
            f"stress worker {index} crashed (exit {process.exitcode}): a store "
            f"error escaped under cross-process contention"
        )
        assert os.path.exists(result_paths[index])

    results = [json.load(open(path)) for path in result_paths]
    # Every worker's own loads all hit and all probe loads missed.
    assert all(result["hits"] == OPS for result in results)
    assert all(result["misses"] == OPS for result in results)

    from repro.repository.store import SimilarityStore

    with SimilarityStore(store_path, writer=False) as store:
        # No lost writes: all per-worker keys plus the contended shared keys.
        assert store.cube_count() == WORKERS * OPS + SHARED_KEYS
        assert store.token_count() == WORKERS * OPS + SHARED_KEYS
        info = store.info()
    # The lifetime counters folded in at close sum exactly across processes.
    assert info["lifetime_hits"] == sum(result["hits"] for result in results)
    assert info["lifetime_misses"] == sum(result["misses"] for result in results)


CORRUPT_WORKERS = 3
CORRUPT_OPS = 20


def corruption_victim_worker(store_path: str, index: int, result_path: str) -> None:
    """A writer/reader that races a byte-flipping corruptor.

    The contract under corruption is weaker than under plain contention --
    a load may legitimately come back ``None`` (the corruptor got to the row
    first and the read quarantined it) -- but still hard: a load either
    returns the exact stored bytes or ``None``, never garbage and never an
    escaped ``sqlite3.OperationalError``.  Every ``None`` is answered by a
    re-store (the recompute-on-miss path), which must then succeed.
    """
    from repro.repository.store import SimilarityStore

    schema = _stress_schema()
    paths = schema.paths()
    cube = _stress_cube(paths)
    expected = cube.as_array().tobytes()
    recomputes = 0
    store = SimilarityStore(store_path)
    try:
        for op in range(CORRUPT_OPS):
            key = f"victim-{index}-{op}"
            store.store_cube(key, cube, "sd", "td", ["Name"], "cfg")
            loaded = store.load_cube(key, paths, paths)
            if loaded is None:
                recomputes += 1
                store.store_cube(key, cube, "sd", "td", ["Name"], "cfg")
                loaded = store.load_cube(key, paths, paths)
            if loaded is not None:  # the corruptor may win twice; None is ok
                assert loaded.as_array().tobytes() == expected, "garbage served"
        info = store.info()
        with open(result_path, "w") as handle:
            json.dump(
                {"recomputes": recomputes, "corrupt": info["corrupt"]}, handle
            )
    finally:
        store.close()


def corruption_worker(store_path: str, stop_path: str) -> None:
    """Flip committed blob bytes through legitimate sqlite statements.

    Runs its own connection (busy timeout, autocommit) and repeatedly
    shortens the newest cube rows' payloads -- exactly what a torn write or
    bit rot leaves behind -- until the stop file appears.  Every statement
    is an ordinary UPDATE: the corruptor obeys the same locking protocol as
    the writers, so any ``OperationalError`` that escapes a *victim* is a
    real store bug, not corruptor vandalism.
    """
    import sqlite3
    import time as time_module

    connection = sqlite3.connect(store_path, timeout=30.0)
    try:
        while not os.path.exists(stop_path):
            try:
                connection.execute(
                    "UPDATE cubes SET data = zeroblob(8) WHERE key IN "
                    "(SELECT key FROM cubes ORDER BY rowid DESC LIMIT 2)"
                )
                connection.commit()
            except sqlite3.Error:
                # The schema may not exist yet / a writer holds the lock
                # longer than our patience: back off and try again.
                connection.rollback()
            time_module.sleep(0.002)
    finally:
        connection.close()


def test_corruption_under_concurrent_writers_never_escapes(tmp_path):
    """Writers race a byte-flipping corruptor: misses and counters, no errors."""
    store_path = str(tmp_path / "corrupt-store.db")
    stop_path = str(tmp_path / "stop-corrupting")
    context = multiprocessing.get_context("spawn")

    from repro.repository.store import SimilarityStore

    with SimilarityStore(store_path, writer=False) as store:
        assert store.cube_count() == 0  # create the schema up front

    corruptor = context.Process(target=corruption_worker, args=(store_path, stop_path))
    corruptor.start()
    result_paths = [
        str(tmp_path / f"victim-{index}.json") for index in range(CORRUPT_WORKERS)
    ]
    victims = [
        context.Process(
            target=corruption_victim_worker,
            args=(store_path, index, result_paths[index]),
        )
        for index in range(CORRUPT_WORKERS)
    ]
    try:
        for process in victims:
            process.start()
        for process in victims:
            process.join(timeout=180)
    finally:
        open(stop_path, "w").close()
        corruptor.join(timeout=30)
        if corruptor.is_alive():  # pragma: no cover - cleanup of a wedged child
            corruptor.kill()

    for index, process in enumerate(victims):
        assert process.exitcode == 0, (
            f"victim {index} crashed (exit {process.exitcode}): a store error "
            f"or garbage read escaped while bytes were being flipped"
        )
        assert os.path.exists(result_paths[index])

    results = [json.load(open(path)) for path in result_paths]
    # Every victim-side detection triggered a recompute, and none escaped
    # as an exception (exitcode 0 above); whether a victim *saw* corruption
    # is a race, so the guaranteed detection happens below.
    for result in results:
        assert result["recomputes"] <= result["corrupt"]

    # Deterministic corruption after the race: zero out one surviving row
    # the way the corruptor did, then sweep.  The sweep must serve every
    # surviving row crc-clean, detect + quarantine the poisoned one, and
    # count it -- no OperationalError anywhere.
    import sqlite3

    connection = sqlite3.connect(store_path, timeout=30.0)
    try:
        poisoned = connection.execute(
            "UPDATE cubes SET data = zeroblob(8) WHERE key IN "
            "(SELECT key FROM cubes ORDER BY key LIMIT 1)"
        ).rowcount
        connection.commit()
    finally:
        connection.close()
    assert poisoned == 1, "the racing corruptor quarantined every row?"

    schema = _stress_schema()
    paths = schema.paths()
    expected = _stress_cube(paths).as_array().tobytes()
    with SimilarityStore(store_path, writer=False) as store:
        scrubbed = 0
        for index in range(CORRUPT_WORKERS):
            for op in range(CORRUPT_OPS):
                loaded = store.load_cube(f"victim-{index}-{op}", paths, paths)
                if loaded is None:
                    scrubbed += 1
                else:
                    assert loaded.as_array().tobytes() == expected
        info = store.info()
        # At least the deliberately poisoned row was detected; every sweep
        # detection was quarantined (row deleted, both counters in step).
        assert info["corrupt"] >= 1
        assert info["quarantined"] == info["corrupt"]
        assert scrubbed >= info["corrupt"]


@pytest.mark.parametrize(
    "component, synchronous",
    [("SimilarityStore", 1), ("SchemaCorpus", 1), ("Repository", 2)],
    ids=["SimilarityStore", "SchemaCorpus", "Repository"],
)
def test_wal_mode_is_active_on_file_stores(tmp_path, component, synchronous):
    """Every component opens WAL with a 30 s busy timeout and its durability.

    The repository holds user-confirmed mappings, so it keeps SQLite's
    ``synchronous=FULL`` (2); the store and the corpus run ``NORMAL`` (1).
    """
    import sqlite3

    from repro.repository import Repository, SimilarityStore
    from repro.search import SchemaCorpus

    classes = {
        "SimilarityStore": SimilarityStore,
        "SchemaCorpus": SchemaCorpus,
        "Repository": Repository,
    }
    path = str(tmp_path / "wal.db")
    with classes[component](path) as handle:
        handle_connection = handle._connection
        assert handle_connection.execute("PRAGMA busy_timeout").fetchone()[0] == 30000
        assert handle_connection.execute("PRAGMA synchronous").fetchone()[0] == synchronous
    connection = sqlite3.connect(path)
    try:
        mode = connection.execute("PRAGMA journal_mode").fetchone()[0]
    finally:
        connection.close()
    assert mode.lower() == "wal"


REPOSITORY_WRITERS = 4
REPOSITORY_OPS = 10
REPOSITORY_ROWS = 3


def repository_writer(path: str, index: int) -> None:
    """Store mappings and named strategies; crashes on any repository error."""
    from repro.matchers.reuse.provider import StoredMapping
    from repro.repository.repository import Repository

    rows = tuple((f"S.a{row}", f"T.b{row}", 0.5) for row in range(REPOSITORY_ROWS))
    with Repository(path) as repository:
        for op in range(REPOSITORY_OPS):
            repository.store_mapping(StoredMapping(f"S{index}", "T", rows, "manual"))
            repository.store_strategy(f"tuned-{index}-{op}", "All(Max,Both,Thr(0.6),Dice)")


def repository_reader(path: str, stop_path: str, result_path: str) -> None:
    """List mappings and strategies until the stop file appears.

    Every listing sees whole mappings only, and the counts never shrink.
    """
    from repro.repository.repository import Repository

    last, reads = (0, 0), 0
    with Repository(path) as repository:
        while not os.path.exists(stop_path):
            mappings = repository.stored_mappings()
            assert all(len(m.rows) == REPOSITORY_ROWS for m in mappings), mappings
            counts = (len(mappings), len(repository.strategy_names()))
            assert counts[0] >= last[0] and counts[1] >= last[1], (counts, last)
            last, reads = counts, reads + 1
    with open(result_path, "w") as handle:
        json.dump({"reads": reads}, handle)


def test_concurrent_processes_share_one_repository(tmp_path):
    """Four writer processes and a reader share one repository file."""
    from repro.repository.repository import Repository

    path = str(tmp_path / "repository.db")
    stop_path = str(tmp_path / "stop-reading")
    result_path = str(tmp_path / "reader.json")
    Repository(path).close()  # the reader opens an existing file
    context = multiprocessing.get_context("spawn")
    reader = context.Process(
        target=repository_reader, args=(path, stop_path, result_path)
    )
    writers = [
        context.Process(target=repository_writer, args=(path, index))
        for index in range(REPOSITORY_WRITERS)
    ]
    reader.start()
    try:
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=180)
    finally:
        open(stop_path, "w").close()
        reader.join(timeout=60)
    for index, process in enumerate(writers):
        assert process.exitcode == 0, (
            f"repository writer {index} crashed (exit {process.exitcode}): an "
            f"error escaped under cross-process contention"
        )
    assert reader.exitcode == 0, f"the reader crashed (exit {reader.exitcode})"
    assert json.load(open(result_path))["reads"] >= 1

    with Repository(path) as repository:
        expected = REPOSITORY_WRITERS * REPOSITORY_OPS
        assert repository.mapping_count() == expected
        assert len(repository.strategy_names()) == expected
        mappings = repository.stored_mappings()
        assert all(len(mapping.rows) == REPOSITORY_ROWS for mapping in mappings)
        assert sorted(
            {mapping.source_schema for mapping in mappings}
        ) == [f"S{index}" for index in range(REPOSITORY_WRITERS)]
