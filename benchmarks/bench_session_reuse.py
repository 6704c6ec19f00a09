"""Session reuse: MatchSession.match_many vs. a fresh session per match.

Times the Figure-8 style all-pairs campaign -- every bundled task schema
matched against every other, each pair evaluated under several combination
strategies (the workload of the paper's strategy-tuning experiments, which
re-match the same pairs while varying the combination 4-tuple):

* the **fresh** path opens a new :class:`~repro.session.session.MatchSession`
  per (pair, strategy), rebuilding tokenizer, synonyms, path profiles and the
  similarity cube every time, as a caller without a long-lived session does;
* the **session** path hands the same work list to
  :meth:`~repro.session.session.MatchSession.match_many`, which builds each
  schema's path profile once per session and serves repeated (pair, matcher
  usage) executions from the cube cache, so only the combination pipeline
  re-runs per strategy.

Both paths produce byte-identical correspondences (asserted).  Results are
recorded in ``BENCH_session.json`` at the repository root.

Run directly::

    python benchmarks/bench_session_reuse.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_session_reuse.py -q -s
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:  # script mode without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.strategy import MatchStrategy  # noqa: E402
from repro.datasets.gold_standard import load_all_tasks  # noqa: E402
from repro.session import MatchSession  # noqa: E402

#: The combination strategies evaluated per pair: the paper's default plus two
#: Table 6 variants (same matcher usage, different combination tuples).
STRATEGY_SPECS = (
    "All(Average,Both,Thr(0.5)+Delta(0.02),Average)",
    "All(Max,Both,Thr(0.5)+MaxN(1),Average)",
    "All(Average,Both,Thr(0.6),Dice)",
)

REPEATS = 3

RESULT_PATH = REPO_ROOT / "BENCH_session.json"


def _campaign_schemas():
    """The distinct schemas of the bundled evaluation tasks, by name."""
    schemas = {}
    for task in load_all_tasks():
        schemas[task.source.name] = task.source
        schemas[task.target.name] = task.target
    return [schemas[name] for name in sorted(schemas)]


def _work_list():
    """(source, target, spec) for every unordered schema pair and strategy."""
    schemas = _campaign_schemas()
    work = []
    for i, source in enumerate(schemas):
        for target in schemas[i + 1 :]:
            for spec in STRATEGY_SPECS:
                work.append((source, target, spec))
    return work


def _correspondence_rows(outcome):
    return [
        (c.source.dotted(), c.target.dotted(), c.similarity)
        for c in outcome.result.correspondences
    ]


def _run_fresh(work):
    """The stateless path: everything rebuilt per (pair, strategy) call."""
    strategies = {spec: MatchStrategy.parse(spec) for spec in STRATEGY_SPECS}
    return [
        MatchSession().match(source, target, strategies[spec])
        for source, target, spec in work
    ]


def _run_session(work):
    """The session path: one session amortises profiles and cubes."""
    session = MatchSession()
    return session.match_many(work), session


def _best_of(callable_, repeats=REPEATS):
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - started)
    return best, result


def collect_results() -> dict:
    work = _work_list()
    fresh_seconds, fresh_outcomes = _best_of(lambda: _run_fresh(work))
    session_seconds, (session_outcomes, session) = _best_of(lambda: _run_session(work))

    fresh_rows = [_correspondence_rows(outcome) for outcome in fresh_outcomes]
    session_rows = [_correspondence_rows(outcome) for outcome in session_outcomes]
    if fresh_rows != session_rows:
        raise AssertionError("session and fresh paths produced different mappings")

    pairs = len(work) // len(STRATEGY_SPECS)
    info = session.cache_info()
    return {
        "benchmark": "session_reuse",
        "description": (
            "All-pairs Figure 8 campaign under several combination strategies: "
            "MatchSession.match_many vs a fresh MatchSession per (pair, strategy)"
        ),
        "python": platform.python_version(),
        "repeats": REPEATS,
        "schemas": len(_campaign_schemas()),
        "pairs": pairs,
        "strategies_per_pair": len(STRATEGY_SPECS),
        "operations": len(work),
        "fresh_seconds": round(fresh_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "speedup": round(fresh_seconds / session_seconds, 2),
        "session_cache": info,
    }


def write_results(results: dict, path: Path = RESULT_PATH) -> Path:
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def _print_results(results: dict) -> None:
    print(
        f"{results['operations']} operations "
        f"({results['pairs']} pairs x {results['strategies_per_pair']} strategies): "
        f"fresh {results['fresh_seconds']:.3f}s, "
        f"session {results['session_seconds']:.3f}s, "
        f"speedup {results['speedup']:.2f}x"
    )
    print(f"session caches: {results['session_cache']}")


def test_session_reuse_speedup():
    """The session amortises the campaign at least 1.5x over fresh calls."""
    results = collect_results()
    write_results(results)
    _print_results(results)
    assert results["speedup"] >= 1.5, (
        f"expected >= 1.5x session speedup, got {results['speedup']}x"
    )
    # every schema's profile was built exactly once for the whole campaign
    assert results["session_cache"]["profiles"] == results["schemas"]


if __name__ == "__main__":
    collected = collect_results()
    destination = write_results(collected)
    _print_results(collected)
    print(f"\nresults written to {destination}")
