"""Engine speed-up: batch MatchEngine vs. the pairwise reference path.

Times the full default match operation (all five hybrid matchers) on
generated purchase-order-like schema pairs spanning the Figure 8 problem
sizes (roughly 30 to 150 paths per schema, as in the paper's 10 match tasks),
through the vectorized batch engine and through the pairwise reference
implementation, and records the wall-clock speedups in ``BENCH_engine.json``
at the repository root so the performance trajectory is tracked from PR to PR.

At each size the two paths run interleaved (rounds of several batch
executions, then one pairwise execution), so both sides see the same drift
of the host.  Each side records its median and its min-max; the speedup, and
the 3x gate on it, are the ratio of the medians.

Run directly::

    python benchmarks/bench_engine_speedup.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_speedup.py -q -s
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.match_operation import build_context  # noqa: E402
from repro.core.strategy import default_strategy  # noqa: E402
from repro.datasets.generators import generate_pair  # noqa: E402
from repro.engine import MatchEngine  # noqa: E402

#: Section counts of the generated pairs; with 6 fields per section the
#: per-schema path counts (28, 56, 84, 112) span the Figure 8 task sizes.
SECTION_SIZES = (4, 8, 12, 16)
FIELDS_PER_SECTION = 6
#: Each size runs ROUNDS rounds of BATCH_PER_ROUND batch executions and one
#: pairwise execution: 9 batch and 3 pairwise timings per size.
ROUNDS = 3
BATCH_PER_ROUND = 3

RESULT_PATH = REPO_ROOT / "BENCH_engine.json"


def _time_once(engine: MatchEngine, pair) -> float:
    """Wall clock of one full matcher execution on a fresh context."""
    matchers = default_strategy().resolve_matchers(None)
    context = build_context(pair.source, pair.target)
    started = time.perf_counter()
    engine.execute(matchers, context)
    return time.perf_counter() - started


def collect_results() -> dict:
    """Time both execution paths, interleaved, over the size sweep."""
    batch_engine = MatchEngine()
    pairwise_engine = MatchEngine(use_batch=False)
    rows = []
    for sections in SECTION_SIZES:
        pair = generate_pair(
            sections=sections, fields_per_section=FIELDS_PER_SECTION, seed=23
        )
        paths = len(pair.source.paths()) + len(pair.target.paths())
        batch, pairwise = [], []
        for _ in range(ROUNDS):
            batch.extend(_time_once(batch_engine, pair) for _ in range(BATCH_PER_ROUND))
            pairwise.append(_time_once(pairwise_engine, pair))
        batch_seconds = statistics.median(batch)
        pairwise_seconds = statistics.median(pairwise)
        rows.append(
            {
                "sections": sections,
                "fields_per_section": FIELDS_PER_SECTION,
                "total_paths": paths,
                "batch_seconds": round(batch_seconds, 5),
                "batch_range": [round(min(batch), 5), round(max(batch), 5)],
                "pairwise_seconds": round(pairwise_seconds, 5),
                "pairwise_range": [round(min(pairwise), 5), round(max(pairwise), 5)],
                "speedup": round(pairwise_seconds / batch_seconds, 2),
            }
        )
    return {
        "benchmark": "engine_speedup",
        "description": (
            "Wall-clock of the default match operation (5 hybrid matchers): "
            "batch MatchEngine vs. pairwise reference, Figure 8 problem sizes; "
            "each side's median and min-max over interleaved runs"
        ),
        "python": platform.python_version(),
        "batch_runs": ROUNDS * BATCH_PER_ROUND,
        "pairwise_runs": ROUNDS,
        "sizes": rows,
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def _print_results(results: dict) -> None:
    print(f"{'paths':>6} {'batch median (min-max)':>26} "
          f"{'pairwise median (min-max)':>26} {'speedup':>8}")
    for row in results["sizes"]:
        batch = "{:.4f}s ({:.4f}-{:.4f})".format(row["batch_seconds"], *row["batch_range"])
        pairwise = "{:.3f}s ({:.3f}-{:.3f})".format(
            row["pairwise_seconds"], *row["pairwise_range"]
        )
        print(f"{row['total_paths']:>6} {batch:>26} {pairwise:>26} {row['speedup']:>7.2f}x")


def test_engine_speedup():
    """The batch engine's median is at least 3x faster on the largest problem size."""
    results = collect_results()
    write_results(results)
    _print_results(results)
    largest = max(results["sizes"], key=lambda row: row["total_paths"])
    assert largest["speedup"] >= 3.0, (
        f"expected >= 3x speedup on the largest size, got {largest['speedup']}x"
    )


if __name__ == "__main__":
    collected = collect_results()
    destination = write_results(collected)
    _print_results(collected)
    print(f"\nresults written to {destination}")
