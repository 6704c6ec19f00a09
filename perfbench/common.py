"""Shared pieces of the benchmark: bootstrap, statistics, digests, the op loop."""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Latency samples of the primary op kind an end-to-end run collects at
#: least, however slow the host is.
MIN_TIMED_SAMPLES = 8


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments)."""


def bootstrap() -> None:
    """Make the checkout's ``src/repro`` importable, and only that copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no COMA sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise BenchmarkError(f"repro imported from {repro.__file__}, not from {SRC}")


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q`` percentile, or ``None`` when too few samples lie beyond it.

    The rank is ``ceil(q * n)``; the samples beyond it number ``n - rank``,
    which must be at least :data:`MIN_SAMPLES_BEYOND`.  The median is the
    usual two-middle mean, under the same sample rule.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    if q == 0.5:
        return statistics.median(samples)
    return sorted(samples)[rank - 1]


def steady_throughput(costs: Sequence[tuple]) -> float:
    """Ops per second of a run's op mix, each op costed at its stratum's median.

    ``costs`` holds one ``(stratum, latency ms)`` per completed op.  A stratum
    groups ops of comparable cost (one size class, one request, one op kind),
    so the median keeps the few ops of a stratum that a burst of host noise
    lengthened from moving the figure.  With one op in flight at a time this
    is ops over the time the run's ops take at that pace.
    """
    by_stratum: Dict[object, List[float]] = {}
    for stratum, latency_ms in costs:
        by_stratum.setdefault(stratum, []).append(latency_ms)
    total_ms = sum(len(values) * statistics.median(values) for values in by_stratum.values())
    return 1000.0 * len(costs) / total_ms


def reference_kernel() -> int:
    """A fixed pure-Python loop of dict and integer work, about 20 ms on a quiet core."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(60000):
        total += i * i % 7
        table[i & 1023] = table.get(i & 1023, 0) + total
    return total


class HostSpeed:
    """The speed of a shared host, taken around every timed op and set-up.

    Such a host runs up to 1.8x slower for seconds to minutes at a time,
    which no statistic of the program's own latencies can tell apart from a
    slower program.  :func:`reference_kernel` runs right before and right
    after each timed call, outside its timing, so it sees the same host
    states.  A call's *scale* is the median kernel time around it over
    :data:`NOMINAL_MS`: a time divided by its scale reads as on a host where
    the kernel takes ``NOMINAL_MS``.  The kernel is the benchmark's own code,
    so a change to the program does not move it.
    """

    #: The kernel's time on a quiet core of the host the benchmark was tuned
    #: on; only the unit of the reported values.
    NOMINAL_MS = 20.0
    #: A kernel run at most this many seconds old serves as the one before
    #: or after a call, so that short ops share kernel runs and the kernel
    #: stays a small share of a run's wall time.
    FRESH_S = 0.2

    def __init__(self) -> None:
        #: ``(perf_counter at its middle, ms)`` of every kernel run, in order.
        self.samples: List[tuple] = []
        self._last_end = 0.0

    def sample(self) -> None:
        """Run the kernel unless its last run ended at most FRESH_S ago."""
        now = time.perf_counter()
        if self.samples and now - self._last_end <= self.FRESH_S:
            return
        reference_kernel()
        ended = time.perf_counter()
        self._last_end = ended
        self.samples.append(((now + ended) / 2.0, (ended - now) * 1000.0))

    def scale(self, started: float, ended: float) -> float:
        """The scale of a call timed from ``started`` to ``ended``.

        It takes the kernel runs within one call length of the call, which
        always include the runs just before and just after it: a short op
        gets the host state of its own moment, a long one, which lives
        through several, their middle.
        """
        margin = ended - started
        times = [at for at, _ms in self.samples]
        low = min(bisect.bisect_left(times, started - margin),
                  bisect.bisect_left(times, started) - 1)
        high = max(bisect.bisect_right(times, ended + margin),
                   bisect.bisect_right(times, ended) + 1)
        around = [ms for _at, ms in self.samples[max(low, 0):high]]
        return statistics.median(around) / self.NOMINAL_MS

    def timed(self, call: Callable[[], object]) -> tuple:
        """``(seconds on a host of the nominal speed, result)`` of one call."""
        self.sample()
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        self.sample()
        return (ended - started) / self.scale(started, ended), result


def error_rate(attempted: int, failed: int) -> float:
    """Failed or refused ops over ops attempted."""
    if attempted < 1:
        raise ValueError("no ops attempted")
    return failed / attempted


def digest(document: object) -> str:
    """A short sha256 of a JSON-serialisable document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def schema_document(schema) -> list:
    """The content of a schema as plain data (paths with kinds and types)."""
    return [
        [path.dotted(), path.leaf.kind.value, path.leaf.source_type]
        for path in schema.paths()
    ]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def seeded(seed: int, *values: int) -> int:
    """A deterministic 31-bit mix of the seed and op coordinates."""
    text = ":".join(str(value) for value in (seed, *values))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") & 0x7FFFFFFF


@dataclasses.dataclass(frozen=True)
class Op:
    """One op of a workload's stream; ``args`` are its generated inputs.

    ``stratum`` names the class of ops of comparable cost it belongs to for
    :func:`steady_throughput`; ``None`` means its kind.
    """

    op_id: int
    kind: str
    args: tuple
    stratum: object = None


@dataclasses.dataclass
class Phase:
    """The measurements of one timed phase of a workload."""

    #: Median set-up time on a host of the nominal speed.
    setup_s: float
    latencies_ms: Dict[str, List[float]]
    attempted: int
    failed: int
    #: ``(stratum, latency ms, host scale)`` of every completed op.
    costs: List[tuple]
    peak_rss_mb: float
    stream_digest: str
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)
    report: Dict[str, object] = dataclasses.field(default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)
    spans: List[tuple] = dataclasses.field(default_factory=list)

    @property
    def raw_throughput(self) -> float:
        """Steady throughput as measured on this host."""
        return steady_throughput([(stratum, ms) for stratum, ms, _scale in self.costs])

    @property
    def throughput(self) -> float:
        """Steady throughput on a host of the nominal speed."""
        return steady_throughput([(stratum, ms / scale) for stratum, ms, scale in self.costs])

    @property
    def host_scale(self) -> float:
        """The median :class:`HostSpeed` scale of the ops: above 1 on a slow host."""
        return statistics.median(scale for _stratum, _ms, scale in self.costs)

    def samples(self, kind: Optional[str] = None) -> List[float]:
        if kind is not None:
            return self.latencies_ms.get(kind, [])
        return [value for values in self.latencies_ms.values() for value in values]


@dataclasses.dataclass
class LoopResult:
    latencies_ms: Dict[str, List[float]]
    attempted: int
    failed: int
    #: ``(stratum, latency ms, host scale)`` of every completed op, in run order.
    costs: List[tuple]


def closed_loop(
    cycles: Iterable[List[Op]],
    execute: Callable[[Op], object],
    seconds: float,
    recorder=None,
    min_samples: int = 0,
    primary: Optional[str] = None,
    expected_errors: tuple = (),
    host: Optional[HostSpeed] = None,
) -> LoopResult:
    """Run ops back to back, one client, until ``seconds`` of op time have passed.

    Each cycle's inputs are generated before its ops run (the generator's
    ``next`` is outside every timed region).  Time is checked only at cycle
    ends, so every run replays whole cycles of the stratified op mix; the
    loop also keeps going until ops of kind ``primary`` (any kind when
    ``None``) have ``min_samples`` latencies.  An op raising one of
    ``expected_errors`` (the program's typed errors) counts as failed;
    anything else aborts the run.  ``host`` takes the host's speed around
    each op, outside its timing; without it every op's scale is 1.
    """
    latencies: Dict[str, List[float]] = {}
    spans: List[tuple] = []
    attempted = failed = 0
    timed = 0.0
    clock = time.perf_counter
    for cycle in cycles:
        for op in cycle:
            attempted += 1
            if host is not None:
                host.sample()
            started = clock()
            try:
                if recorder is None:
                    execute(op)
                else:
                    with recorder.op(op.op_id, op.kind):
                        execute(op)
            except expected_errors:
                failed += 1
                timed += clock() - started
            else:
                ended = clock()
                timed += ended - started
                latencies.setdefault(op.kind, []).append((ended - started) * 1000.0)
                stratum = op.kind if op.stratum is None else op.stratum
                spans.append((stratum, started, ended))
            if host is not None:
                host.sample()
        samples = (
            latencies.get(primary, []) if primary is not None
            else [value for values in latencies.values() for value in values]
        )
        if timed >= seconds and len(samples) >= min_samples:
            break
    if attempted == 0:
        raise BenchmarkError("the op stream was empty")
    costs = [
        (stratum, (ended - started) * 1000.0,
         host.scale(started, ended) if host is not None else 1.0)
        for stratum, started, ended in spans
    ]
    return LoopResult(latencies, attempted, failed, costs)


def median_setup(build: Callable[[], object], repeats: int, teardown: Callable,
                 host: HostSpeed) -> tuple:
    """Run ``build`` ``repeats`` times; returns (median seconds, last built state).

    The seconds are on a host of the nominal speed.  Every state but the last
    is passed to ``teardown`` right away.
    """
    durations = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
        seconds, state = host.timed(build)
        durations.append(seconds)
    return statistics.median(durations), state
