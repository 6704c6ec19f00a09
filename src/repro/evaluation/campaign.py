"""The evaluation campaign: efficient execution of many series over the match tasks.

The paper's evaluation runs thousands of *series* (matcher usage + combination
strategy) over 10 match tasks.  Re-running the matchers for every series would
be wasteful -- and unnecessary, because COMA's architecture stores the
matcher-specific similarity cube and applies combination strategies to it
afterwards (Section 3).  The campaign does exactly that:

1. **prepare()** executes every hybrid matcher once per task (in both the
   Average and Dice internal combined-similarity variants) through the batch
   :class:`~repro.engine.engine.MatchEngine`, derives the automatic
   default-operation mappings (for SchemaA reuse), and computes the
   SchemaM / SchemaA reuse layers;
2. **evaluate_series()** then evaluates any :class:`~repro.evaluation.grid.SeriesSpec`
   by slicing the pre-computed layers, aggregating, selecting and comparing
   against the task's gold standard -- which takes milliseconds per series.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.combination.combined import AVERAGE_COMBINED, DICE_COMBINED
from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix
from repro.combination.strategy import CombinationStrategy, default_combination
from repro.core.match_operation import build_context, combine_cube
from repro.datasets.gold_standard import MatchTask, load_all_tasks
from repro.engine.engine import DEFAULT_ENGINE
from repro.evaluation.grid import SeriesSpec
from repro.evaluation.metrics import AverageQuality, MatchQuality, average_quality, evaluate_mapping
from repro.exceptions import EvaluationError
from repro.matchers.base import MatchContext
from repro.matchers.hybrid import (
    ChildrenMatcher,
    LeavesMatcher,
    NameMatcher,
    NamePathMatcher,
    TypeNameMatcher,
)
from repro.matchers.registry import EVALUATION_HYBRID_MATCHERS
from repro.matchers.reuse import InMemoryMappingStore, SchemaReuseMatcher, StoredMapping
from repro.model.mapping import MatchResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import MatchSession


def _hybrid_matcher_factories():
    return {
        "Name": NameMatcher,
        "NamePath": NamePathMatcher,
        "TypeName": TypeNameMatcher,
        "Children": ChildrenMatcher,
        "Leaves": LeavesMatcher,
    }


@dataclasses.dataclass
class SeriesResult:
    """The outcome of evaluating one series over all tasks."""

    spec: SeriesSpec
    per_task: List[Tuple[str, MatchQuality]]
    average: AverageQuality

    @property
    def label(self) -> str:
        """The series label (matcher usage + strategies)."""
        return self.spec.label()

    @property
    def matcher_label(self) -> str:
        """The matcher usage label only."""
        return self.spec.matcher_label


class TaskWorkbench:
    """Pre-computed matcher layers and metadata for one match task."""

    def __init__(self, task: MatchTask, context: MatchContext):
        self.task = task
        self.context = context
        #: layer matrices: variant ("Average"/"Dice") -> matcher name -> matrix.
        self.layers: Dict[str, Dict[str, SimilarityMatrix]] = {"Average": {}, "Dice": {}}

    def layer(self, matcher_name: str, variant: str) -> SimilarityMatrix:
        """The matrix of one matcher in one combined-similarity variant.

        Reuse matchers have a single variant; they are stored under "Average"
        and served for both variants.
        """
        by_name = self.layers.get(variant, {})
        if matcher_name in by_name:
            return by_name[matcher_name]
        fallback = self.layers["Average"]
        if matcher_name in fallback:
            return fallback[matcher_name]
        raise EvaluationError(
            f"no pre-computed layer for matcher {matcher_name!r} in task {self.task.name}"
        )

    def cube_for(self, matchers: Sequence[str], variant: str) -> SimilarityCube:
        """A similarity cube containing the requested matcher layers."""
        return SimilarityCube.from_layers(
            self.task.source.paths(),
            self.task.target.paths(),
            [(name, self.layer(name, variant)) for name in matchers],
        )


class EvaluationCampaign:
    """Prepares the per-task similarity layers and evaluates series against them."""

    def __init__(
        self,
        tasks: Optional[Sequence[MatchTask]] = None,
        include_reuse: bool = True,
        hybrid_matchers: Sequence[str] = EVALUATION_HYBRID_MATCHERS,
        variants: Sequence[str] = ("Average", "Dice"),
        session: Optional["MatchSession"] = None,
    ):
        """``session`` runs the matchers on its engine and contexts.

        With a :class:`~repro.session.session.MatchSession`, the campaign's
        matcher executions share the session's path-profile caches; without
        one, each task gets an independent default context on the default
        engine.
        """
        self._tasks = list(tasks) if tasks is not None else load_all_tasks()
        if not self._tasks:
            raise EvaluationError("an evaluation campaign needs at least one match task")
        self._include_reuse = include_reuse
        self._hybrid_names = tuple(hybrid_matchers)
        self._variants = tuple(variants)
        self._engine = session.engine if session is not None else DEFAULT_ENGINE
        self._context_factory = session.context_for if session is not None else build_context
        self._workbenches: Dict[str, TaskWorkbench] = {}
        self._automatic_mappings: Dict[str, MatchResult] = {}
        self._manual_store = InMemoryMappingStore()
        self._automatic_store = InMemoryMappingStore()
        self._prepared = False

    # -- preparation -------------------------------------------------------------

    @property
    def tasks(self) -> List[MatchTask]:
        """The match tasks of this campaign."""
        return list(self._tasks)

    def prepare(self) -> "EvaluationCampaign":
        """Execute the matchers once per task and derive the reuse layers."""
        if self._prepared:
            return self
        factories = _hybrid_matcher_factories()
        unknown = [name for name in self._hybrid_names if name not in factories]
        if unknown:
            raise EvaluationError(f"unknown hybrid matchers in campaign: {unknown}")

        for task in self._tasks:
            context = self._context_factory(task.source, task.target)
            workbench = TaskWorkbench(task, context)
            for variant in self._variants:
                combined = DICE_COMBINED if variant == "Dice" else AVERAGE_COMBINED
                for name in self._hybrid_names:
                    matcher = factories[name]()
                    if variant != "Average" and hasattr(matcher, "with_combined_similarity"):
                        matcher = matcher.with_combined_similarity(combined)
                    workbench.layers[variant][name] = self._engine.compute_matrix(
                        matcher, task.source.paths(), task.target.paths(), context
                    )
            self._workbenches[task.name] = workbench

        # Manual mappings (gold standards) feed the SchemaM reuse variant.
        for task in self._tasks:
            self._manual_store.add(
                StoredMapping.from_match_result(task.reference, origin="manual",
                                                name=f"{task.name} (gold)")
            )

        # Automatic default-operation mappings feed the SchemaA reuse variant.
        default = default_combination()
        for task in self._tasks:
            workbench = self._workbenches[task.name]
            cube = workbench.cube_for(self._hybrid_names, "Average")
            result, _, _ = combine_cube(cube, default, workbench.context)
            self._automatic_mappings[task.name] = result
            self._automatic_store.add(
                StoredMapping.from_match_result(result, origin="automatic",
                                                name=f"{task.name} (auto)")
            )

        if self._include_reuse:
            for task in self._tasks:
                workbench = self._workbenches[task.name]
                schema_m = SchemaReuseMatcher(
                    provider=self._manual_store, origin="manual", name="SchemaM"
                )
                schema_a = SchemaReuseMatcher(
                    provider=self._automatic_store, origin="automatic", name="SchemaA"
                )
                workbench.layers["Average"]["SchemaM"] = self._engine.compute_matrix(
                    schema_m, task.source.paths(), task.target.paths(), workbench.context
                )
                workbench.layers["Average"]["SchemaA"] = self._engine.compute_matrix(
                    schema_a, task.source.paths(), task.target.paths(), workbench.context
                )

        self._prepared = True
        return self

    def workbench(self, task_name: str) -> TaskWorkbench:
        """The pre-computed workbench of one task."""
        self.prepare()
        if task_name not in self._workbenches:
            raise EvaluationError(f"no workbench for task {task_name!r}")
        return self._workbenches[task_name]

    def automatic_mapping(self, task_name: str) -> MatchResult:
        """The default-operation mapping derived for a task (reused by SchemaA)."""
        self.prepare()
        return self._automatic_mappings[task_name]

    # -- series evaluation ---------------------------------------------------------------

    def evaluate_series(self, spec: SeriesSpec) -> SeriesResult:
        """Evaluate one series over every task and average the quality measures."""
        self.prepare()
        per_task: List[Tuple[str, MatchQuality]] = []
        for task in self._tasks:
            quality = self.evaluate_series_on_task(spec, task)
            per_task.append((task.name, quality))
        return SeriesResult(
            spec=spec,
            per_task=per_task,
            average=average_quality([quality for _, quality in per_task]),
        )

    def evaluate_series_on_task(self, spec: SeriesSpec, task: MatchTask) -> MatchQuality:
        """Evaluate one series on a single task."""
        return evaluate_mapping(self.predicted_mapping(spec, task), task.reference)

    def evaluate_many(self, specs: Iterable[SeriesSpec]) -> List[SeriesResult]:
        """Evaluate a batch of series."""
        return [self.evaluate_series(spec) for spec in specs]

    def predicted_mapping(self, spec: SeriesSpec, task: MatchTask) -> MatchResult:
        """The mapping one series proposes for one task."""
        self.prepare()
        workbench = self._workbenches[task.name]
        cube = workbench.cube_for(spec.matchers, spec.combined_similarity)
        combination = CombinationStrategy(
            aggregation=spec.aggregation,
            direction=spec.direction,
            selection=spec.selection,
        )
        predicted, _, _ = combine_cube(
            cube, combination, workbench.context, apply_feedback_overrides=False
        )
        return predicted
