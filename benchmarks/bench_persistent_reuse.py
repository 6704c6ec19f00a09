"""Persistent reuse: cold process restarts with vs. without the similarity store.

COMA's reuse idea only pays off if it survives the process: a service restart
must not re-pay the full kernel cost of every schema pair it has already
matched.  This benchmark measures exactly that, with *real* process restarts:

* a **populate** child process runs the Figure-8 all-pairs campaign with a
  fresh :class:`~repro.repository.store.SimilarityStore`, writing every cube
  and token artifact to disk;
* a **warm** child process (new interpreter, empty in-memory caches) re-runs
  the same campaign against the populated store;
* a **cold** child process runs it with no store at all.

All three produce byte-identical mappings (asserted via a SHA-256 digest of
every correspondence row).  The campaign itself is timed inside the child --
interpreter start-up and schema loading are excluded, so the ratio isolates
what the store saves: matcher execution.

Two secondary measurements ride along:

* the **kernel memo pool** hit rate of each child (cross-schema string-kernel
  dedup within one process);
* a **kernel sweep** of :func:`~repro.matchers.string.edit_distance
  .levenshtein_distance_many` on the campaign's unique name-pair set: the
  scalar DP loop vs. the Myers bit-parallel ladder (gated faster than the
  scalar loop).

Results are recorded in ``BENCH_reuse.json`` at the repository root.

Run directly::

    python benchmarks/bench_persistent_reuse.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_persistent_reuse.py -q -s
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

RESULT_PATH = REPO_ROOT / "BENCH_reuse.json"

#: Cold/warm child runs per variant; the minimum is reported.
REPEATS = 2

#: Each pair is matched under the paper's default hybrid usage *and* a
#: simple-string-matcher usage: the latter drives the scalar kernels
#: (EditDistance, Affix, Soundex) whose cross-schema dedup the kernel memo
#: pool and the batch Levenshtein exist for.
STRATEGY_SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "Affix+EditDistance+Soundex+Trigram(Average,Both,Thr(0.5)+Delta(0.02),Average)",
)


# -- the child: one cold process running the campaign ---------------------------


def _campaign_pairs():
    from repro.datasets.gold_standard import load_all_tasks

    schemas = {}
    for task in load_all_tasks():
        schemas[task.source.name] = task.source
        schemas[task.target.name] = task.target
    ordered = [schemas[name] for name in sorted(schemas)]
    return ordered, [
        (source, target, spec)
        for i, source in enumerate(ordered)
        for target in ordered[i + 1 :]
        for spec in STRATEGY_SPECS
    ]


def run_child(store_path: str | None) -> dict:
    """Run the all-pairs campaign once in *this* process and report on it."""
    from repro.matchers.memo import DEFAULT_MEMO_POOL
    from repro.repository.store import SimilarityStore
    from repro.session import MatchSession

    schemas, work = _campaign_pairs()
    store = None
    if store_path is not None:
        store = SimilarityStore(store_path)
    session = MatchSession(store=store)
    started = time.perf_counter()
    outcomes = session.match_many(work)
    seconds = time.perf_counter() - started
    digest = hashlib.sha256()
    for outcome in outcomes:
        for c in outcome.result.correspondences:
            digest.update(
                f"{c.source.dotted()}|{c.target.dotted()}|{c.similarity!r}\n".encode()
            )
    if store is not None:
        store.close()  # flush writes + persist lifetime counters
    return {
        "seconds": seconds,
        "schemas": len(schemas),
        "operations": len(work),
        "mapping_digest": digest.hexdigest(),
        "session_cache": session.cache_info(),
        "kernel_memo": DEFAULT_MEMO_POOL.info(),
    }


# -- the parent: orchestrate real process restarts -------------------------------


def _spawn(store_path: str | None) -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + environment["PYTHONPATH"] if environment.get("PYTHONPATH") else ""
    )
    command = [sys.executable, str(Path(__file__).resolve()), "--child"]
    if store_path is not None:
        command.append(store_path)
    completed = subprocess.run(
        command, capture_output=True, text=True, env=environment, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"benchmark child failed ({completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def _best_child(store_path: str | None, repeats: int = REPEATS) -> dict:
    best = None
    for _ in range(repeats):
        report = _spawn(store_path)
        if best is None or report["seconds"] < best["seconds"]:
            best = report
    return best


def _bench_levenshtein_kernels() -> dict:
    """Kernel sweep on the campaign's name pairs: scalar DP loop vs. the
    Myers bit-parallel batch kernel."""
    from repro.matchers.string.edit_distance import (
        levenshtein_distance_dp,
        levenshtein_distance_many,
    )

    schemas, _ = _campaign_pairs()
    names = sorted({path.name.lower() for schema in schemas for path in schema.paths()})
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]

    def best_of(function, repeats: int = 3):
        seconds, result = None, None
        for _ in range(repeats):
            started = time.perf_counter()
            result = function()
            elapsed = time.perf_counter() - started
            seconds = elapsed if seconds is None else min(seconds, elapsed)
        return seconds, result

    scalar_seconds, scalar = best_of(
        lambda: [levenshtein_distance_dp(a, b) for a, b in pairs], repeats=1
    )
    bit_seconds, bit_batch = best_of(lambda: levenshtein_distance_many(pairs))

    if bit_batch.tolist() != scalar:
        raise AssertionError("bit-parallel Levenshtein disagrees with the scalar DP")
    return {
        "unique_names": len(names),
        "pairs": len(pairs),
        "scalar_dp_seconds": round(scalar_seconds, 4),
        "bitparallel_seconds": round(bit_seconds, 4),
        "speedup_bitparallel_vs_scalar": round(scalar_seconds / bit_seconds, 2),
    }


def collect_results() -> dict:
    # The store lives for this run only: removed when it ends, also on failure.
    with tempfile.TemporaryDirectory(prefix="coma-bench-store-") as store_dir:
        store_path = os.path.join(store_dir, "store.db")
        populate = _spawn(store_path)  # first run writes the store
        warm = _best_child(store_path)
        cold = _best_child(None)
        store_size = os.path.getsize(store_path)

    digests = {populate["mapping_digest"], warm["mapping_digest"], cold["mapping_digest"]}
    if len(digests) != 1:
        raise AssertionError(
            f"store-enabled and store-less mappings differ: {sorted(digests)}"
        )
    return {
        "benchmark": "persistent_reuse",
        "description": (
            "Figure-8 all-pairs campaign in fresh processes: cold (no store) vs "
            "warm (content-addressed similarity store populated by an earlier "
            "process); mappings asserted byte-identical"
        ),
        "python": platform.python_version(),
        "repeats": REPEATS,
        "schemas": cold["schemas"],
        "operations": cold["operations"],
        "strategies_per_pair": len(STRATEGY_SPECS),
        "cold_process_seconds": round(cold["seconds"], 4),
        "warm_store_seconds": round(warm["seconds"], 4),
        "populate_seconds": round(populate["seconds"], 4),
        "speedup": round(cold["seconds"] / warm["seconds"], 2),
        "mapping_digest": cold["mapping_digest"],
        "store_bytes": store_size,
        "warm_session_cache": warm["session_cache"],
        "cold_kernel_memo": cold["kernel_memo"],
        "levenshtein_kernels": _bench_levenshtein_kernels(),
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def _print_results(results: dict) -> None:
    print(
        f"{results['operations']} operations over {results['schemas']} schemas: "
        f"cold process {results['cold_process_seconds']:.3f}s, "
        f"warm store {results['warm_store_seconds']:.3f}s, "
        f"speedup {results['speedup']:.2f}x "
        f"(store: {results['store_bytes'] / 1e6:.2f} MB)"
    )
    memo = results["cold_kernel_memo"]
    lookups = memo["hits"] + memo["misses"]
    rate = memo["hits"] / lookups if lookups else 0.0
    print(f"kernel memo (cold process): {memo['hits']} hits / {lookups} lookups "
          f"({rate:.1%}), {memo['entries']} entries")
    kernels = results["levenshtein_kernels"]
    print(
        f"Levenshtein kernels on {kernels['pairs']} unique pairs: "
        f"scalar DP {kernels['scalar_dp_seconds']:.3f}s, "
        f"bit-parallel {kernels['bitparallel_seconds']:.3f}s "
        f"({kernels['speedup_bitparallel_vs_scalar']:.1f}x over scalar)"
    )


def test_persistent_reuse_speedup(monkeypatch):
    """A cold process with a warm store beats a store-less cold process >= 3x."""
    made = []
    mkdtemp = tempfile.mkdtemp

    def recording_mkdtemp(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
    results = collect_results()
    write_results(results)
    _print_results(results)
    # the run leaves no store directory behind
    assert made and not any(os.path.exists(directory) for directory in made), made
    assert results["speedup"] >= 3.0, (
        f"expected >= 3x cold-restart speedup with the store, got {results['speedup']}x"
    )
    # every pair was served from the store, none executed matchers
    cache = results["warm_session_cache"]
    assert cache["store_hits"] == results["operations"] and cache["store_misses"] == 0
    # the bit-parallel kernel beats the scalar DP loop
    kernels = results["levenshtein_kernels"]
    assert kernels["speedup_bitparallel_vs_scalar"] > 1.0, kernels


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        child_store = sys.argv[2] if len(sys.argv) > 2 else None
        print(json.dumps(run_child(child_store)))
    else:
        collected = collect_results()
        destination = write_results(collected)
        _print_results(collected)
        print(f"\nresults written to {destination}")
