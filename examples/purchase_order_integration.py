"""Purchase-order message integration: compare match strategies on the test schemas.

The scenario from the paper's introduction: an integration developer must map
heterogeneous purchase-order message schemas onto each other.  The example
loads two of the bundled test schemas (the abbreviation-heavy CIDX and the
deeply nested Paragon), runs several match strategies -- single matchers, the
combination of all hybrid matchers, and a custom combination -- and compares
their quality against the gold standard.

Run with::

    python examples/purchase_order_integration.py
"""

from __future__ import annotations

from repro import MatchSession, MatchStrategy
from repro.combination.strategy import parse_combination
from repro.datasets.gold_standard import load_task
from repro.evaluation.metrics import evaluate_mapping
from repro.evaluation.report import format_table


def evaluate_strategy(session, task, label, strategy):
    """Run one strategy on a task and return its quality row."""
    outcome = session.match(task.source, task.target, strategy=strategy)
    quality = evaluate_mapping(outcome.result, task.reference)
    return {
        "strategy": label,
        "proposed": quality.predicted,
        "precision": quality.precision,
        "recall": quality.recall,
        "overall": quality.overall,
    }


def main() -> None:
    task = load_task(1, 4)  # CIDX <-> Paragon
    print(f"Match task {task.name}: {task.source.name} ({len(task.source.paths())} paths) "
          f"<-> {task.target.name} ({len(task.target.paths())} paths), "
          f"{task.match_count} real correspondences\n")

    # One session serves every strategy: each schema is profiled once, and
    # strategies sharing a matcher usage share its similarity cube.
    session = MatchSession()
    rows = [
        evaluate_strategy(session, task, "Name (single)", "Name"),
        evaluate_strategy(session, task, "NamePath (single)", "NamePath"),
        evaluate_strategy(session, task, "Leaves (single)", "Leaves"),
        evaluate_strategy(session, task, "NamePath+Leaves", "NamePath+Leaves"),
        evaluate_strategy(session, task, "All (default)", None),
        evaluate_strategy(
            session,
            task,
            "All with Max aggregation + Max1",
            MatchStrategy(combination=parse_combination("Max", "Both", "Thr(0.5)+MaxN(1)")),
        ),
    ]
    print(format_table(rows, title="Strategy comparison on CIDX <-> Paragon"))
    print()

    best = max(rows, key=lambda row: row["overall"])
    print(f"Best strategy on this task: {best['strategy']} "
          f"(Overall {best['overall']:.2f}) - matcher combinations analyse element names, "
          "paths, data types and structure simultaneously, which is exactly the paper's point.")


if __name__ == "__main__":
    main()
