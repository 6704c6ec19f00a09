"""Reuse of previous match results through the repository (Section 5 of the paper).

The scenario: a data-warehouse team has already matched (and manually
confirmed) the CIDX and Noris purchase-order schemas against the Excel schema.
A new source arrives whose schema is CIDX-like and must be matched against
Noris.  Instead of matching from scratch, the Schema reuse matcher composes
the stored mappings via the shared Excel schema (MatchCompose) and combines
the result with the regular hybrid matchers.

Run with::

    python examples/reuse_repository.py
"""

from __future__ import annotations

from repro import MatchSession, MatchStrategy, Repository
from repro.datasets.gold_standard import load_task
from repro.evaluation.metrics import evaluate_mapping
from repro.evaluation.report import format_table
from repro.matchers.reuse.schema_reuse import SchemaReuseMatcher


def main() -> None:
    task_13 = load_task(1, 3)        # the new match problem: CIDX <-> Noris
    task_12 = load_task(1, 2)        # previously matched: CIDX <-> Excel
    task_23 = load_task(2, 3)        # previously matched: Excel <-> Noris

    with Repository() as repository:
        # Store the schemas and the previously confirmed mappings.
        for schema in (task_13.source, task_12.target, task_13.target):
            repository.store_schema(schema)
        repository.store_mapping(task_12.reference, origin="manual", name="CIDX<->Excel (confirmed)")
        repository.store_mapping(task_23.reference, origin="manual", name="Excel<->Noris (confirmed)")

        # The session resolves reuse matchers against the repository.
        session = MatchSession(repository=repository)

        # Baseline: match CIDX <-> Noris from scratch with the default strategy.
        no_reuse = session.match(task_13.source, task_13.target)
        no_reuse_quality = evaluate_mapping(no_reuse.result, task_13.reference)

        # Reuse: add the SchemaM matcher (composition of stored manual mappings).
        schema_m = SchemaReuseMatcher(origin="manual", name="SchemaM")
        with_reuse = session.match(
            task_13.source,
            task_13.target,
            strategy=MatchStrategy(
                matchers=["Name", "NamePath", "TypeName", "Children", "Leaves", schema_m]
            ),
        )
        reuse_quality = evaluate_mapping(with_reuse.result, task_13.reference)

        # Reuse only: how far does pure composition get?
        reuse_only = session.match(
            task_13.source, task_13.target, strategy=MatchStrategy(matchers=[schema_m])
        )
        reuse_only_quality = evaluate_mapping(reuse_only.result, task_13.reference)

    rows = [
        {"strategy": "All (no reuse)", "precision": no_reuse_quality.precision,
         "recall": no_reuse_quality.recall, "overall": no_reuse_quality.overall},
        {"strategy": "SchemaM only (pure reuse)", "precision": reuse_only_quality.precision,
         "recall": reuse_only_quality.recall, "overall": reuse_only_quality.overall},
        {"strategy": "All + SchemaM", "precision": reuse_quality.precision,
         "recall": reuse_quality.recall, "overall": reuse_quality.overall},
    ]
    print(format_table(rows, title="CIDX <-> Noris: value of reusing confirmed mappings"))
    print("\nReusing the two confirmed mappings via MatchCompose recovers most of the new "
          "mapping without re-matching from scratch - the paper's Section 5 insight.")


if __name__ == "__main__":
    main()
