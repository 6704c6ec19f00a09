"""The four seeded COMA workloads.

Every workload generates its op stream from ``--seed`` with
``repro.datasets.generators`` and the bundled purchase-order schemas only;
the system under test receives nothing but the generated inputs.  Sizes and
op kinds are *stratified*: each cycle of the stream holds the same fixed mix
of sizes (or query sources, or edit kinds) in a seeded order, so two seeds
exercise different schemas with the same distribution of work, and runs
always end on a cycle boundary.

Each ``run_*`` function performs set-up (timed separately, repeated, median
reported), the timed closed loop, and then its correctness checks outside the
timed region.  It returns a :class:`~perfbench.common.Phase`.  ``end_to_end``
marks a run that reports the end-to-end metrics: it times at least a minimum
sample of ops; the halves of a traced run may stop after one cycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

from perfbench.common import (
    ROOT,
    BenchmarkError,
    MIN_TIMED_SAMPLES,
    HostSpeed,
    Op,
    Phase,
    closed_loop,
    digest,
    median_setup,
    peak_rss_mb,
    schema_document,
    seeded,
)
from perfbench import tracing

from repro.datasets.figure1 import load_po1, load_po2
from repro.datasets.generators import generate_corpus, generate_pair, mutate_schema
from repro.datasets.gold_standard import load_all_tasks
from repro.datasets.purchase_orders import load_all_schemas
from repro.engine.engine import MatchEngine
from repro.evaluation.metrics import evaluate_mapping
from repro.exceptions import ComaError
from repro.model.element import ElementKind
from repro.model.schema import Schema
from repro.importers.registry import DEFAULT_IMPORTERS
from repro.matchers.memo import DEFAULT_MEMO_POOL
from repro.service.server import MatchService
from repro.session import MatchSession

#: Set-up repetitions per run (the median is reported).
SETUP_REPEATS = 3

#: Cube-cache bound of the in-process sessions.  Their ops never repeat a
#: pair, so the cache cannot hit; bounding it keeps peak RSS independent of
#: how many ops a run completes.
CUBE_CACHE = 32


def stream_digest(cycles: Iterator[List[Op]], describe, count: int = 2) -> str:
    """Digest of the first ``count`` cycles of an op stream, inputs included."""
    return digest([
        [op.op_id, op.kind, describe(op)]
        for cycle in itertools.islice(cycles, count)
        for op in cycle
    ])


def _counter_delta(before: dict, after: dict, key: str) -> int:
    return after[key] - before[key]


def _hit_ratio(before: dict, after: dict) -> float:
    hits = _counter_delta(before, after, "cube_hits")
    lookups = hits + _counter_delta(before, after, "cube_misses")
    return hits / lookups if lookups else 0.0


@contextlib.contextmanager
def _traced(recorder) -> Iterator[None]:
    uninstall = tracing.install(recorder) if recorder is not None else None
    try:
        yield
    finally:
        if uninstall is not None:
            uninstall()


# -- cold_match ----------------------------------------------------------------

#: (sections, fields per section) of one cycle: 15-108 paths per side.
COLD_SIZES = (
    (3, 4), (4, 8), (5, 6), (6, 5), (7, 7), (8, 4),
    (9, 6), (10, 8), (11, 5), (12, 7), (13, 4), (14, 6),
)


def cold_cycles(seed: int) -> Iterator[List[Op]]:
    """Distinct generated pairs, one cycle = every size of COLD_SIZES once."""
    for cycle in itertools.count():
        order = sorted(range(len(COLD_SIZES)), key=lambda i: seeded(seed, cycle, i))
        ops = []
        for position, size in enumerate(order):
            op_id = cycle * len(COLD_SIZES) + position
            sections, fields = COLD_SIZES[size]
            pair = generate_pair(
                sections, fields, overlap=0.7, seed=seeded(seed, op_id),
                source_name=f"ColdA{op_id:05d}", target_name=f"ColdB{op_id:05d}",
            )
            ops.append(Op(op_id, "match", (pair,), stratum=size))
        yield ops


def _describe_pair(op: Op) -> list:
    pair = op.args[0]
    return [schema_document(pair.source), schema_document(pair.target)]


def run_cold_match(seed: int, seconds: float, recorder, workdir: Path,
                   end_to_end: bool = False) -> Phase:
    po1, po2 = load_po1(), load_po2()

    def build() -> MatchSession:
        session = MatchSession(max_cached_cubes=CUBE_CACHE,
                               max_cached_profiles=2 * CUBE_CACHE)
        session.match(po1, po2)  # lazy imports and kernel set-up
        return session

    # The set-up takes milliseconds, so one burst of host noise would move
    # all repeats made in a row together.  SETUP_REPEATS more are made
    # between every two cycles, outside the timed ops, and the median of all
    # is reported.
    setups: List[float] = []
    host = HostSpeed()

    def timed_build() -> MatchSession:
        seconds, session = host.timed(build)
        setups.append(seconds)
        return session

    for _ in range(SETUP_REPEATS - 1):
        timed_build().close()
    session = timed_build()
    # The reference check re-runs the first two small pairs (at most 60
    # paths) of the first cycle, which every run completes.  Other mappings
    # are scored between cycles and dropped, so memory stays flat.
    first_cycle = next(cold_cycles(seed))
    checked = [op.op_id for op in first_cycle if len(op.args[0].source.paths()) <= 60][:2]
    done: List[tuple] = []
    f1: List[float] = []
    kept: Dict[int, object] = {}

    def score() -> None:
        f1.extend(evaluate_mapping(result, op.args[0].reference).f_measure
                  for op, result in done)
        done.clear()

    def scored_cycles() -> Iterator[List[Op]]:
        for index, ops in enumerate(cold_cycles(seed)):
            # Between cycles, outside every timed op.  Each cycle starts with
            # an empty process-wide kernel memo: distinct pairs would grow it
            # without bound, so per-op cost and peak RSS would depend on how
            # many cycles a run completes.
            score()
            for _ in range(SETUP_REPEATS if index else 0):
                timed_build().close()
            DEFAULT_MEMO_POOL.clear()
            yield ops

    def execute(op: Op) -> None:
        pair = op.args[0]
        outcome = session.match(pair.source, pair.target)
        done.append((op, outcome.result))
        if op.op_id in checked:
            kept[op.op_id] = (op, outcome)

    before = session.cache_info()
    with _traced(recorder):
        loop = closed_loop(scored_cycles(), execute, seconds, recorder,
                           min_samples=MIN_TIMED_SAMPLES if end_to_end else 0,
                           expected_errors=(ComaError,), host=host)
    rss = peak_rss_mb()
    after = session.cache_info()

    phase = Phase(statistics.median(setups), loop.latencies_ms, loop.attempted, loop.failed,
                  loop.costs, rss, stream_digest(cold_cycles(seed), _describe_pair))
    phase.spans = recorder.spans() if recorder is not None else []
    phase.counters["session.cube_hit_ratio"] = _hit_ratio(before, after)
    if phase.counters["session.cube_hit_ratio"] != 0.0:
        phase.failures.append("cold_match served a cube from the cache")
    score()
    phase.report["match_f1"] = sum(f1) / len(f1)

    reference = MatchSession(engine=MatchEngine(use_batch=False))
    for op, outcome in kept.values():
        pair = op.args[0]
        expected = reference.match(pair.source, pair.target)
        got, want = outcome.result.as_tuples(), expected.result.as_tuples()
        same_pairs = [row[:2] for row in got] == [row[:2] for row in want]
        close = np.allclose(outcome.cube.as_array(), expected.cube.as_array(),
                            rtol=0.0, atol=1e-9)
        if not (same_pairs and close and np.allclose(
                [row[2] for row in got], [row[2] for row in want], rtol=0.0, atol=1e-9)):
            phase.failures.append(f"op {op.op_id}: batch and pairwise engines disagree")
    session.close()
    return phase


# -- warm_http -----------------------------------------------------------------

#: The generated pairs of the request mix (up to ~110 paths per side).
WARM_SIZES = ((3, 4), (5, 6), (6, 8), (8, 5), (9, 7), (11, 6), (12, 8), (13, 7))

#: The strategy specs of the service request mix.
WARM_SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "All(Average,Both,Thr(0.6),Dice)",
)

#: Client connections (keep-alive).  They take turns, one request in flight:
#: with two in flight, each latency would depend on what the other request
#: happened to be, and the server's two handler threads would share one
#: interpreter lock inside every traced span.
WARM_CLIENTS = 2


def warm_mix(seed: int) -> tuple:
    """(schemas to upload, request keys): every pair under every spec."""
    pairs = [
        (pair.source, pair.target)
        for index, (sections, fields) in enumerate(WARM_SIZES)
        for pair in [generate_pair(
            sections, fields, overlap=0.7, seed=seeded(seed, 100 + index),
            source_name=f"WarmA{index}", target_name=f"WarmB{index}",
        )]
    ]
    pairs.append((load_po1(), load_po2()))
    keys = [(source.name, target.name, spec) for source, target in pairs for spec in WARM_SPECS]
    schemas = [schema for pair in pairs for schema in pair]
    return schemas, keys


def dict_spec(schema: Schema) -> dict:
    """The nested dict spec the service's ``dict`` importer reads (a tree unfolding)."""

    def node(element) -> dict:
        spec = {"name": element.name}
        if element.source_type is not None:
            spec["type"] = element.source_type
        if element.documentation:
            spec["documentation"] = element.documentation
        children = [node(child) for child in schema.children(element)]
        if children:
            spec["children"] = children
        return spec

    return {"name": schema.name, "elements": [node(c) for c in schema.children(schema.root)]}


def warm_cycles(seed: int, keys: list) -> Iterator[List[Op]]:
    for cycle in itertools.count():
        order = sorted(range(len(keys)), key=lambda i: seeded(seed, cycle, i))
        yield [
            Op(cycle * len(keys) + position, "match", (keys[index],), stratum=index)
            for position, index in enumerate(order)
        ]


class _Connection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle off (request = one header + body write)."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def http_call(connection, method: str, path: str, payload: Optional[dict] = None) -> tuple:
    """One request on a keep-alive connection: ``(status, body bytes)``."""
    body = json.dumps(payload).encode("utf-8") if payload is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


class ServerProcess:
    """The match service in its own process, started by ``perfbench/serve.py``."""

    def __init__(self, workdir: Path, name: str, spans: Optional[Path] = None):
        port_file = workdir / f"{name}.port"
        port_file.unlink(missing_ok=True)
        self.log = workdir / f"{name}.log"
        command = [sys.executable, str(ROOT / "perfbench" / "serve.py"),
                   "--port-file", str(port_file)]
        if spans is not None:
            command += ["--spans", str(spans)]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(command, cwd=ROOT, stdout=log, stderr=log)
        deadline = time.monotonic() + 60.0
        while not port_file.exists():
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchmarkError(f"the server did not start; see {self.log}")
            time.sleep(0.01)
        self.port = int(port_file.read_text())
        self.control = self.connect()

    def connect(self) -> _Connection:
        return _Connection("127.0.0.1", self.port, timeout=60.0)

    def call(self, method: str, path: str, payload: Optional[dict] = None) -> dict:
        status, body = http_call(self.control, method, path, payload)
        if not 200 <= status < 300:
            raise BenchmarkError(f"{method} {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def stop(self) -> None:
        """Shut the server down and wait for the process to end."""
        if self.process.poll() is None:
            with contextlib.suppress(OSError, http.client.HTTPException, AttributeError):
                self.call("POST", "/shutdown")
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30.0)
        with contextlib.suppress(AttributeError):
            self.control.close()


def _shard_cubes(server: ServerProcess) -> List[int]:
    return [shard["cubes"] for shard in server.call("GET", "/stats")["pool"]["shards"]]


def _request(key: tuple) -> dict:
    return {"source": key[0], "target": key[1], "strategy": key[2]}


def _warm_up(server: ServerProcess, keys: list, pairs: int) -> List[Dict[tuple, bytes]]:
    """Send every request on every connection until each shard holds every cube.

    The connections send each request at the same moment, so while one
    request computes its cube on one shard the other takes the other shard:
    one sweep warms both, and set-up time does not depend on how the pool
    happened to hand out shards.  Returns one ``{key: body}`` dict per
    connection (the bodies of its first answer to each key).
    """
    bodies: List[Dict[tuple, bytes]] = [{} for _ in range(WARM_CLIENTS)]
    errors: List[str] = []
    barrier = threading.Barrier(WARM_CLIENTS)

    def sweep(index: int) -> None:
        connection = server.connect()
        try:
            for key in keys:
                barrier.wait()
                status, body = http_call(connection, "POST", "/match", _request(key))
                if status != 200:
                    errors.append(f"warm-up {key} answered {status}")
                bodies[index].setdefault(key, body)
        except threading.BrokenBarrierError:
            pass
        except (OSError, http.client.HTTPException) as error:
            errors.append(f"warm-up connection {index}: {error!r}")
            barrier.abort()
        finally:
            connection.close()

    for _ in range(8):
        barrier.reset()
        threads = [threading.Thread(target=sweep, args=(index,))
                   for index in range(WARM_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise BenchmarkError(errors[0])
        if min(_shard_cubes(server)) >= pairs:
            return bodies
    raise BenchmarkError("the server's shards did not warm up")


def run_warm_http(seed: int, seconds: float, recorder, workdir: Path,
                  end_to_end: bool = False) -> Phase:
    if end_to_end:
        # The client and the server it starts share one CPU.  With one
        # request in flight they take turns on it, and the reference kernel
        # the client runs times the CPU the server works on.  A traced run
        # leaves them apart: on a shared CPU a server span would end only
        # when the client yields it, after the client's op has ended.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    schemas, keys = warm_mix(seed)
    pairs = len(keys) // len(WARM_SPECS)
    uploads = [{"name": schema.name, "spec": dict_spec(schema)} for schema in schemas]
    spans_path = workdir / "server-spans.json" if recorder is not None else None
    starts = itertools.count()

    def build() -> tuple:
        index = next(starts)
        last = index == SETUP_REPEATS - 1
        server = ServerProcess(workdir, f"server{index}", spans_path if last else None)
        try:
            for upload in uploads:
                server.call("POST", "/schemas", upload)
            return server, _warm_up(server, keys, pairs)
        except BaseException:
            server.stop()
            raise

    host = HostSpeed()
    setup_s, (server, warm_bodies) = median_setup(
        build, SETUP_REPEATS, lambda state: state[0].stop(), host
    )
    try:
        phase = _drive_http(server, seed, keys, seconds, recorder, warm_bodies, setup_s,
                            MIN_TIMED_SAMPLES if end_to_end else 0, host)
    finally:
        server.stop()
    phase.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)
    phase.stream_digest = digest([[schema_document(s) for s in schemas], phase.stream_digest])
    if spans_path is not None:
        phase.spans = tracing.graft(phase.spans, tracing.load_spans(str(spans_path)))
    phase.report["remote_root"] = True

    # In-process reference: the uploaded specs imported the way the server
    # imports them, matched, and serialized the way the server does.
    importer = DEFAULT_IMPORTERS.by_format("dict")
    by_name = {
        upload["name"]: importer.import_text(json.dumps(upload["spec"]), upload["name"])
        for upload in uploads
    }
    session = MatchSession()
    for key in keys:
        outcome = session.match(by_name[key[0]], by_name[key[1]], strategy=key[2])
        expected = json.dumps(MatchService.outcome_payload(outcome, 0.0)).encode("utf-8")
        if any(bodies[key] != expected for bodies in warm_bodies):
            phase.failures.append(f"{key}: server body differs from the in-process match")
    return phase


class RefusedRequest(Exception):
    """A request answered non-2xx (a refused 429 too) or lost with its connection."""


class HttpClient:
    """One keep-alive client connection of ``warm_http``.

    ``reference`` maps each request key to the body this connection got
    during warm-up; every later answer must repeat it byte for byte.
    """

    def __init__(self, connect, reference: Dict[tuple, bytes]):
        self._connect = connect
        self.connection = connect()
        self.reference = reference
        self.mismatches: List[str] = []

    def send(self, op: Op) -> None:
        """One request; a non-2xx answer or a broken connection raises RefusedRequest."""
        key = op.args[0]
        try:
            status, body = http_call(
                self.connection, "POST", f"/match?op={op.op_id}", _request(key))
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            self.connection = self._connect()
            raise RefusedRequest(f"op {op.op_id}: {error!r}") from error
        if not 200 <= status < 300:
            raise RefusedRequest(f"op {op.op_id} answered {status}")
        if body != self.reference[key]:
            self.mismatches.append(f"op {op.op_id}: body differs across connections")


def _drive_http(server, seed, keys, seconds, recorder, warm_bodies, setup_s,
                min_samples, host) -> Phase:
    """The timed closed loop: one request in flight, the connections taking turns."""
    clients = [HttpClient(server.connect, warm_bodies[index]) for index in range(WARM_CLIENTS)]

    def send(op: Op) -> None:
        clients[op.op_id % WARM_CLIENTS].send(op)

    before = server.call("GET", "/stats")["pool"]
    try:
        loop = closed_loop(warm_cycles(seed, keys), send, seconds, recorder,
                           min_samples=min_samples, expected_errors=(RefusedRequest,),
                           host=host)
    finally:
        for client in clients:
            client.connection.close()
    after = server.call("GET", "/stats")["pool"]

    phase = Phase(
        setup_s, loop.latencies_ms, loop.attempted, loop.failed, loop.costs, 0.0,
        stream_digest(warm_cycles(seed, keys), lambda op: list(op.args[0])),
    )
    phase.spans = recorder.spans() if recorder is not None else []
    phase.failures.extend([m for client in clients for m in client.mismatches][:5])
    ratio = _hit_ratio(before, after)
    phase.counters["session.cube_hit_ratio"] = ratio
    if ratio < 0.99:
        phase.failures.append(f"warm_http cube hit ratio {ratio:.3f} < 0.99")
    return phase


# -- search_churn --------------------------------------------------------------

SEARCH_K = 3
SEARCH_CANDIDATES = 8
SEARCH_DECOYS = 200
#: The decoy corpus is the same for every seed; the seed drives the queries
#: and the writes that replace decoys, so survivor costs stay comparable.
DECOY_SEED = 11
#: Queries per cycle by gold source: only the smallest gold source, whose
#: queries cost about 1 s on a quiet 2-core host.  One source keeps the
#: queries one stratum of comparable cost, and a 15 s run gets enough of them
#: for its lower quartile.
QUERY_MIX = {"CIDX": 3}
#: Decoy mutation rates: off-domain enough that gold targets stay meaningful.
DECOY_RENAME_RATE = 0.85
DECOY_DRIFT_RATE = 0.5
#: Every WRITE_EVERY-th op registers a new schema version.
WRITE_EVERY = 4
#: Queries an end-to-end run makes at least, however slow the host is.  A
#: query's cost varies by about 20% with the survivors it draws, so the
#: median of fewer moves from seed to seed.
SEARCH_MIN_QUERIES = 20


def search_inputs() -> tuple:
    """(gold schemas, decoys, gold targets per query source)."""
    gold_schemas = list(load_all_schemas().values())
    targets: Dict[str, set] = {}
    for task in load_all_tasks():
        if task.source.name in QUERY_MIX:
            targets.setdefault(task.source.name, set()).add(task.target.name)
    decoys = generate_corpus(SEARCH_DECOYS, seed=DECOY_SEED, rename_rate=DECOY_RENAME_RATE,
                             drift_rate=DECOY_DRIFT_RATE)
    return gold_schemas, decoys, targets


def search_cycles(seed: int, gold_schemas, decoys, targets) -> Iterator[List[Op]]:
    """Cycles of 4 ops: the QUERY_MIX queries in seeded order, then a write.

    The first cycle queries each gold source itself once; every other query
    is a distinct seeded mutant of a gold source.  A write replaces one
    decoy with a seeded new version of its current version.
    """
    by_name = {schema.name: schema for schema in gold_schemas}
    sources = sorted(targets)
    current = {schema.name: schema for schema in decoys}
    names = sorted(current)
    mix = [source for source in sources for _ in range(QUERY_MIX[source])]
    per_cycle = len(mix) * WRITE_EVERY // (WRITE_EVERY - 1)
    for cycle in itertools.count():
        queue = sorted(mix, key=lambda source, n=itertools.count(): seeded(seed, cycle, next(n)))
        seen = set()
        ops = []
        for position in range(per_cycle):
            op_id = cycle * per_cycle + position
            if position % WRITE_EVERY == WRITE_EVERY - 1:
                name = names[seeded(seed, op_id, 1) % len(names)]
                current[name] = mutate_schema(
                    current[name], name, seed=seeded(seed, op_id, 2),
                    rename_rate=0.1, graft_sections=0, drift_rate=0.1,
                )
                ops.append(Op(op_id, "write", (current[name],)))
                continue
            source = queue.pop()
            if cycle == 0 and source not in seen:
                query = by_name[source]
            else:
                query = mutate_schema(
                    by_name[source], f"Query{op_id:05d}", seed=seeded(seed, op_id, 3),
                    rename_rate=0.15, graft_sections=1, graft_fields=3, drift_rate=0.1,
                )
            seen.add(source)
            ops.append(Op(op_id, "query", (query, source)))
        yield ops


def run_search_churn(seed: int, seconds: float, recorder, workdir: Path,
                     end_to_end: bool = False) -> Phase:
    gold_schemas, decoys, targets = search_inputs()
    builds = itertools.count()

    def build() -> MatchSession:
        path = workdir / f"corpus{next(builds)}.db"
        session = MatchSession(corpus=str(path), max_cached_cubes=CUBE_CACHE)
        for schema in [*gold_schemas, *decoys]:
            session.register(schema)
        return session

    host = HostSpeed()
    setup_s, session = median_setup(build, SETUP_REPEATS, lambda s: s.close(), host)
    # Queries keep only their hit names; the first two (every run completes
    # them) keep their full hits for re-scoring.
    queries: List[tuple] = []
    rescored: List[tuple] = []

    def execute(op: Op) -> None:
        if op.kind == "write":
            session.register(op.args[0], replace=True)
            return
        hits = session.search(op.args[0], k=SEARCH_K, candidates=SEARCH_CANDIDATES)
        queries.append((op.args[1], [hit.name for hit in hits]))
        if len(rescored) < 2:
            rescored.append((op, hits))

    before = session.cache_info()
    cycles = search_cycles(seed, gold_schemas, decoys, targets)
    with _traced(recorder):
        loop = closed_loop(cycles, execute, seconds, recorder,
                           min_samples=SEARCH_MIN_QUERIES if end_to_end else 0,
                           primary="query", expected_errors=(ComaError,), host=host)
    rss = peak_rss_mb()
    after = session.cache_info()
    phase = Phase(
        setup_s, loop.latencies_ms, loop.attempted, loop.failed, loop.costs, rss,
        stream_digest(search_cycles(seed, gold_schemas, decoys, targets),
                      lambda op: schema_document(op.args[0])),
    )
    phase.spans = recorder.spans() if recorder is not None else []
    phase.counters["session.cube_hit_ratio"] = _hit_ratio(before, after)

    recall = [
        len(targets[source] & set(names)) / min(SEARCH_K, len(targets[source]))
        for source, names in queries
    ]
    phase.report["recall_at_k"] = sum(recall) / len(recall)
    if phase.report["recall_at_k"] <= 0.0:
        phase.failures.append("no query found any of its gold targets")
    fresh = MatchSession()
    for op, hits in rescored:
        for hit in hits:
            target = hit.outcome.context.target_schema
            expected = fresh.match(op.args[0], target).schema_similarity
            if expected != hit.schema_similarity:
                phase.failures.append(f"op {op.op_id}: {hit.name} similarity differs")
    session.close()
    return phase


# -- evolve_rematch ------------------------------------------------------------

EVOLVE_SECTIONS = 40
EVOLVE_FIELDS = 4
#: The evolving schema and its target are one fixed generated pair; the
#: seed drives the edit stream.  Every seed then edits the same 200 x 200
#: task, which keeps the per-op cost comparable across seeds.
EVOLVE_PAIR_SEED = 31
#: Path-count band the edits keep the evolving schema in (starts at 200).
EVOLVE_BAND = (190, 210)
EDIT_KINDS = ("rename", "retype", "add", "remove")
EDITS_PER_KIND = 2
_TYPES = ("string", "decimal", "integer", "date")


def evolve_inputs() -> tuple:
    """(initial evolving schema, fixed target): a generated 200 x 200 pair."""
    pair = generate_pair(EVOLVE_SECTIONS, EVOLVE_FIELDS, overlap=0.7, seed=EVOLVE_PAIR_SEED,
                         source_name="Evolving", target_name="Fixed")
    return pair.source, pair.target


def apply_edit(schema: Schema, edit: tuple) -> Schema:
    """A rebuilt copy of a two-level schema with one leaf edited."""
    kind, section_pick, leaf_pick, value = edit
    paths = len(schema.paths())
    if kind == "remove" and paths <= EVOLVE_BAND[0]:
        kind = "add"
    elif kind == "add" and paths >= EVOLVE_BAND[1]:
        kind = "remove"
    sections = schema.children(schema.root)
    chosen = sections[section_pick % len(sections)]
    if kind == "remove" and len(schema.children(chosen)) < 2:
        kind = "retype"
    copy = Schema(schema.name)
    for section in sections:
        made = copy.add_element(section.name, kind=section.kind,
                                source_type=section.source_type,
                                documentation=section.documentation)
        leaves = schema.children(section)
        victim = leaf_pick % len(leaves) if section is chosen else -1
        for index, leaf in enumerate(leaves):
            name, source_type = leaf.name, leaf.source_type
            if index == victim:
                if kind == "remove":
                    continue
                if kind == "rename":
                    name = f"Field{value % 997}" if name != f"Field{value % 997}" else "FieldX"
                elif kind == "retype":
                    source_type = _TYPES[
                        (_TYPES.index(source_type) + 1 + value % 3) % len(_TYPES)
                        if source_type in _TYPES else value % len(_TYPES)
                    ]
            copy.add_element(name, parent=made, kind=leaf.kind, source_type=source_type,
                             documentation=leaf.documentation)
        if section is chosen and kind == "add":
            copy.add_element(f"Extra{value % 997}", parent=made, kind=ElementKind.ELEMENT,
                             source_type=_TYPES[value % len(_TYPES)])
    return copy


def evolve_cycles(seed: int, initial: Schema) -> Iterator[List[Op]]:
    """Cycles of 8 single edits (2 per kind), each applied to the previous version."""
    current = initial
    per_cycle = len(EDIT_KINDS) * EDITS_PER_KIND
    for cycle in itertools.count():
        kinds = sorted(
            (kind for kind in EDIT_KINDS for _ in range(EDITS_PER_KIND)),
            key=lambda kind, n=itertools.count(): seeded(seed, cycle, next(n), 5),
        )
        ops = []
        for position, kind in enumerate(kinds):
            op_id = cycle * per_cycle + position
            edit = (kind, seeded(seed, op_id, 1), seeded(seed, op_id, 2), seeded(seed, op_id, 3))
            new = apply_edit(current, edit)
            ops.append(Op(op_id, "rematch", (current, new, edit)))
            current = new
        yield ops


def _result_sha256(outcome) -> str:
    document = [
        [source, target, float(similarity).hex()]
        for source, target, similarity in outcome.result.as_tuples()
    ]
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_evolve_rematch(seed: int, seconds: float, recorder, workdir: Path,
                       end_to_end: bool = False) -> Phase:
    initial, target = evolve_inputs()
    builds = itertools.count()

    def build() -> tuple:
        path = workdir / f"store{next(builds)}"
        path.mkdir()
        session = MatchSession(store=str(path / "store.db"), max_cached_cubes=CUBE_CACHE,
                               max_cached_profiles=2 * CUBE_CACHE)
        outcome = session.match(initial, target)
        session.store.flush()
        return session, outcome, path

    def teardown(state: tuple) -> None:
        state[0].close()
        shutil.rmtree(state[2], ignore_errors=True)

    host = HostSpeed()
    setup_s, (session, first, store_dir) = median_setup(build, SETUP_REPEATS, teardown, host)
    previous = [first]
    # One seeded op in each of the first three cycles; every run, each half
    # of a traced run too, completes at least those three cycles (more than
    # MIN_TIMED_SAMPLES ops).
    per_cycle = len(EDIT_KINDS) * EDITS_PER_KIND
    checked = {cycle * per_cycle + seeded(seed, cycle, 7) % per_cycle for cycle in range(3)}
    samples: List[tuple] = []

    def execute(op: Op) -> None:
        old, new, _edit = op.args
        outcome = session.rematch(old, new, previous[0], target=target)
        session.store.flush()  # the op ends when its result is durable
        previous[0] = outcome
        if op.op_id in checked:
            samples.append((new, outcome))

    before = session.cache_info()
    with _traced(recorder):
        loop = closed_loop(evolve_cycles(seed, initial), execute, seconds, recorder,
                           min_samples=3 * per_cycle, expected_errors=(ComaError,), host=host)
    rss = peak_rss_mb()
    after = session.cache_info()
    phase = Phase(
        setup_s, loop.latencies_ms, loop.attempted, loop.failed, loop.costs, rss,
        stream_digest(evolve_cycles(seed, initial),
                      lambda op: [list(op.args[2]), schema_document(op.args[1])]),
    )
    phase.spans = recorder.spans() if recorder is not None else []
    spliced = _counter_delta(before, after, "rematch_spliced")
    fallbacks = _counter_delta(before, after, "rematch_fallbacks")
    ops = loop.attempted - loop.failed
    phase.counters["session.cube_hit_ratio"] = _hit_ratio(before, after)
    phase.counters["rematch.splice_ratio"] = spliced / max(spliced + fallbacks, 1)
    phase.counters["rematch.recomputed_rows"] = (
        _counter_delta(before, after, "rematch_recomputed_rows") / max(ops, 1)
    )
    if fallbacks:
        phase.failures.append(f"{fallbacks} rematch fallbacks")
    session.close()
    shutil.rmtree(store_dir, ignore_errors=True)

    if len(samples) < len(checked):
        phase.failures.append(f"only {len(samples)} of {len(checked)} sampled ops ran")
    cold = MatchSession()
    for new, outcome in samples:
        expected = cold.match(new, target)
        if _result_sha256(expected) != _result_sha256(outcome):
            phase.failures.append("rematch result differs from a cold match")
        if expected.cube.as_array().tobytes() != outcome.cube.as_array().tobytes():
            phase.failures.append("rematch cube differs from a cold match")
    return phase


WORKLOADS = {
    "cold_match": run_cold_match,
    "warm_http": run_warm_http,
    "search_churn": run_search_churn,
    "evolve_rematch": run_evolve_rematch,
}
