"""The COMA benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload cold_match --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload twice for ``seconds / 2`` each -- untraced,
then with the outside-in span recorder installed -- and reports the
per-layer metrics of the traced half plus the tracing overhead.  Every run
checks the program's outputs; a failed check makes the run exit 1.  The last
line of standard output is the JSON result; the lines before it are a
readable report.  See ``perfbench/METRICS.md`` for every metric.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    MIN_SAMPLES_BEYOND,
    BenchmarkError,
    HostSpeed,
    bootstrap,
    error_rate,
    percentile,
)

#: The benchmark definition: every metric's name and unit is read from here.
DEFINITION = ROOT / "BENCHMARK.json"

#: Per-layer metrics from span statistics: name -> (statistic, span, op kinds).
#: ``self`` is self time, ``total`` inclusive time, ``calls`` a count; each is
#: a mean per op of the given kinds (all ops when ``None``).
SPAN_METRICS = {
    "engine.profiles_ms": ("self", "engine.profiles", None),
    "engine.execute_ms": ("self", "engine.execute", None),
    "engine.partial_ms": ("total", "engine.partial", None),
    "matchers.Name_ms": ("self", "matchers.Name", None),
    "matchers.NamePath_ms": ("self", "matchers.NamePath", None),
    "matchers.TypeName_ms": ("self", "matchers.TypeName", None),
    "matchers.Children_ms": ("self", "matchers.Children", None),
    "matchers.Leaves_ms": ("self", "matchers.Leaves", None),
    "matchers.Name_calls": ("calls", "matchers.Name", None),
    "matchers.TypeName_calls": ("calls", "matchers.TypeName", None),
    "matchers.set_similarity_ms": ("self", "matchers.set_similarity", None),
    "matchers.string_kernels_ms": ("self", "matchers.string_kernels", None),
    "combination.aggregate_ms": ("self", "combination.aggregate", None),
    "combination.select_ms": ("self", "combination.select", None),
    "combination.combined_ms": ("self", "combination.combined", None),
    "session.resolve_ms": ("self", "session.resolve", None),
    "store.load_ms": ("self", "store.load", None),
    "store.write_ms": ("self", "store.write", None),
    "store.flush_ms": ("self", "store.flush", None),
    "search.rank_ms": ("self", "search.rank", ("query",)),
    "search.load_ms": ("self", "search.load", ("query",)),
    "search.survivor_match_ms": ("total", "search.survivor_match", ("query",)),
    "search.survivors": ("calls", "search.load", ("query",)),
    "search.index_write_ms": ("self", "search.index_write", ("write",)),
    "rematch.delta_ms": ("self", "rematch.delta", None),
    "service.request_ms": ("self", "service.http", None),
    "service.handle_ms": ("self", "service.handle", None),
    "service.payload_ms": ("self", "service.payload", None),
    "service.respond_ms": ("self", "service.respond", None),
}

#: Per-layer metrics the workloads count themselves (0 where not applicable).
COUNTER_METRICS = (
    "session.cube_hit_ratio",
    "rematch.recomputed_rows",
    "rematch.splice_ratio",
)

#: The op kind whose latencies are the workload's percentiles (search
#: writes are reported apart).
PRIMARY_KIND = {"search_churn": "query"}


def metric_units() -> tuple:
    """``({end-to-end name: unit}, {per-layer name: unit})`` from BENCHMARK.json."""
    with open(DEFINITION, encoding="utf-8") as handle:
        document = json.load(handle)
    return tuple(
        {metric["name"]: metric["unit"] for metric in document[group]}
        for group in ("end_to_end", "per_layer")
    )


def end_to_end(phase) -> dict:
    return {
        "setup_s": phase.setup_s,
        "throughput_ops_s": phase.throughput,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def _quantile(samples, q: float) -> str:
    value = percentile(samples, q)
    if value is None:
        return f"n/a (needs >= {round(MIN_SAMPLES_BEYOND / (1 - q))} samples)"
    return f"{value:.3f}"


def per_layer(traced, untraced) -> tuple:
    """(metric values, failures) of a traced phase."""
    from perfbench.tracing import OP_PREFIX, layer_totals

    roots = [span for span in traced.spans if span[0].startswith(OP_PREFIX)]
    window = (min(span[1] for span in roots), max(span[2] for span in roots))
    totals = layer_totals(traced.spans, window)
    ops = totals["ops"]
    per_kind = collections.Counter(kind for kind, _wall in ops.values())

    def mean(statistic: str, name: str, kinds) -> float:
        value = sum(
            amount for (span, kind), amount in totals[statistic].items()
            if span == name and (kinds is None or kind in kinds)
        )
        count = len(ops) if kinds is None else sum(per_kind[kind] for kind in kinds)
        scale = 1.0 if statistic == "calls" else 1000.0
        return value * scale / count if count else 0.0

    values = {name: mean(*spec) for name, spec in SPAN_METRICS.items()}
    for name in COUNTER_METRICS:
        values[name] = float(traced.counters.get(name, 0.0))
    loads = sum(v for (span, _), v in totals["calls"].items() if span == "store.load")
    found = sum(v for (span, _), v in totals["flags"].items() if span == "store.load")
    values["store.hit_ratio"] = found / loads if loads else 0.0

    wall = sum(wall for _kind, wall in ops.values())
    uncovered = sum(totals["root_self"].values())
    attributed = sum(v for (_, kind), v in totals["self"].items() if kind != "*")
    # The op latencies the client measured with its own clock reads, around
    # the op spans: the spans must account for that wall time.
    measured = sum(traced.samples()) / 1000.0
    failures = []
    if abs(attributed + uncovered - measured) > 0.01 * measured:
        failures.append(
            f"attributed {attributed:.3f} s + other {uncovered:.3f} s differ from the "
            f"measured op wall time {measured:.3f} s by more than 1%"
        )
    if traced.report.get("remote_root"):
        # The op root's self time is what the server's request span did not
        # cover: client, socket and HTTP framing.
        values["service.transport_ms"] = uncovered * 1000.0 / len(ops)
        uncovered = 0.0
    else:
        values["service.transport_ms"] = 0.0
    values["other_ms"] = uncovered * 1000.0 / len(ops)
    values["trace.coverage"] = (wall - uncovered) / wall
    values["trace.overhead_ratio"] = traced.throughput / untraced.throughput
    return values, failures


def describe(workload: str, phase, metrics: dict, units: dict) -> list:
    """The readable report lines of one phase."""
    samples = phase.samples(PRIMARY_KIND.get(workload))
    lines = [
        f"workload {workload}: stream digest {phase.stream_digest}, "
        f"{phase.attempted} ops attempted, {phase.failed} failed",
        f"  latency samples {len(samples)}; p50_ms {_quantile(samples, 0.5)}; "
        f"p90_ms {_quantile(samples, 0.9)}",
        f"  error_rate {error_rate(phase.attempted, phase.failed):.4f} (ratio)",
        f"  host scale {phase.host_scale:.4f} (median reference kernel time around "
        f"an op / {HostSpeed.NOMINAL_MS} ms); steady throughput as measured "
        f"{phase.raw_throughput:.4f} 1/s",
    ]
    writes = phase.samples("write")
    if writes:
        lines.append(
            f"  write samples {len(writes)}; write_p50_ms {_quantile(writes, 0.5)}; "
            f"write_mean_ms {sum(writes) / len(writes):.3f}"
        )
    for name, value in phase.report.items():
        if isinstance(value, float):
            lines.append(f"  {name} {value:.4f}")
    for name, value in metrics.items():
        lines.append(f"  {name} {value:.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="COMA benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except BenchmarkError as error:
        print(f"benchmark: {error}", file=sys.stderr)
        return 2
    try:
        end_units, layer_units = metric_units()
    except (OSError, ValueError, KeyError) as error:
        print(f"benchmark: cannot read {DEFINITION}: {error!r}", file=sys.stderr)
        return 2
    from perfbench.tracing import SpanRecorder
    from repro.matchers.memo import DEFAULT_MEMO_POOL
    from perfbench.workloads import WORKLOADS

    run = WORKLOADS.get(args.workload)
    if run is None:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        if args.trace:
            untraced_dir, traced_dir = workdir / "untraced", workdir / "traced"
            untraced_dir.mkdir()
            traced_dir.mkdir()
            # Per-layer means need no percentile, so a phase may stop after
            # one cycle.
            untraced = run(args.seed, args.seconds / 2, None, untraced_dir)
            recorder = SpanRecorder()
            DEFAULT_MEMO_POOL.clear()  # the traced half starts as cold as the first
            traced = run(args.seed, args.seconds / 2, recorder, traced_dir)
            if traced.stream_digest != untraced.stream_digest:
                traced.failures.append("the two phases replayed different op streams")
            metrics, failures = per_layer(traced, untraced)
            traced.failures.extend(failures)
            with open(scratch / f"{args.workload}-spans.json", "w", encoding="utf-8") as out:
                json.dump({"spans": [list(span) for span in traced.spans]}, out)
            phases, units = (untraced, traced), layer_units
        else:
            phase = run(args.seed, args.seconds, None, workdir, end_to_end=True)
            metrics = end_to_end(phase)
            phases, units = (phase,), end_units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in units}
    failures = [failure for phase in phases for failure in phase.failures]
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    if failed:
        failures.append(f"{failed} ops failed")
    for line in describe(args.workload, phases[-1], metrics, units):
        print(line)
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
