"""Iterative / interactive match processing (Section 3, Figure 2).

The :class:`MatchProcessor` drives one match task through one or more
iterations.  Each iteration consists of

1. an optional user-feedback phase (accepting / rejecting candidates proposed
   by the previous iteration, or asserting correspondences up front),
2. the execution of the configured matchers into a similarity cube,
3. the combination of the individual match results.

Every iteration is one :meth:`~repro.session.session.MatchSession.match` on
the processor's session, with the processor's feedback store.  Feedback only
overrides the aggregated matrix, so with a cacheable strategy every iteration
after the first is served from the session's cube cache and re-runs just the
combination step.

In *automatic* mode a single iteration with the default (or a supplied)
strategy is performed.  In *interactive* mode the caller inspects the proposed
candidates, records feedback through :meth:`accept` / :meth:`reject`, possibly
adjusts the strategy, and calls :meth:`run_iteration` again; accepted and
rejected pairs keep their maximal / minimal similarity in all later iterations
because the feedback store overrides the aggregated matrix.

Examples
--------
>>> from repro.datasets.figure1 import load_po1, load_po2
>>> from repro.session import MatchSession
>>> session = MatchSession()
>>> processor = MatchProcessor(load_po1(), load_po2(), session=session)
>>> first = processor.run_iteration()
>>> rejected = processor.pending_candidates()[0]
>>> processor.reject(rejected.source, rejected.target)
>>> second = processor.run_iteration()
>>> second.cube is first.cube      # the second iteration is a cube hit
True
>>> session.cache_info()["cube_hits"], session.cache_info()["cube_misses"]
(1, 1)
>>> (rejected.source, rejected.target) in second.result
False
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Union

from repro.core.match_operation import MatchOutcome
from repro.core.strategy import MatchStrategy
from repro.exceptions import ComaError
from repro.matchers.simple.user_feedback import UserFeedbackStore
from repro.model.mapping import Correspondence, MatchResult
from repro.model.path import SchemaPath
from repro.model.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import MatchSession


class MatchProcessor:
    """Drives the iterative match process for one pair of schemas.

    Parameters
    ----------
    source / target:
        The schemas of the match task.
    strategy:
        Any strategy reference the session resolves (an object, a spec
        string or a stored name); ``None`` uses the session default.
    session:
        The :class:`~repro.session.session.MatchSession` running the
        iterations (default: a private ``MatchSession()``).
    feedback:
        The feedback store the iterations apply; defaults to the session's
        store, else a fresh one.
    """

    def __init__(
        self,
        source: Schema,
        target: Schema,
        strategy: Union[MatchStrategy, str, None] = None,
        session: Optional["MatchSession"] = None,
        feedback: Optional[UserFeedbackStore] = None,
    ):
        if session is None:
            # Imported here: the session module imports this one.
            from repro.session.session import MatchSession

            session = MatchSession()
        self._source = source
        self._target = target
        self._session = session
        self._strategy = session.resolve_strategy(strategy)
        if feedback is None:
            feedback = session.feedback if session.feedback is not None else UserFeedbackStore()
        self._feedback = feedback
        self._iterations: List[MatchOutcome] = []

    # -- configuration ----------------------------------------------------------------

    @property
    def strategy(self) -> MatchStrategy:
        """The strategy used by the next iteration."""
        return self._strategy

    def set_strategy(self, strategy: Union[MatchStrategy, str]) -> None:
        """Change the match strategy for subsequent iterations."""
        self._strategy = self._session.resolve_strategy(strategy)

    @property
    def feedback(self) -> UserFeedbackStore:
        """The store of user-provided (mis-)match decisions."""
        return self._feedback

    # -- user feedback phase ---------------------------------------------------------------

    def accept(self, source: SchemaPath | str, target: SchemaPath | str) -> None:
        """Confirm a correspondence; it will be kept with similarity 1.0 from now on."""
        self._feedback.accept(self._resolve_source(source), self._resolve_target(target))

    def reject(self, source: SchemaPath | str, target: SchemaPath | str) -> None:
        """Reject a correspondence; it will be suppressed from now on."""
        self._feedback.reject(self._resolve_source(source), self._resolve_target(target))

    def accept_all(self, result: MatchResult) -> None:
        """Confirm every correspondence of ``result`` (e.g. after a manual review)."""
        for correspondence in result.correspondences:
            self._feedback.accept(correspondence.source, correspondence.target)

    def _resolve_source(self, path: SchemaPath | str) -> SchemaPath:
        return path if isinstance(path, SchemaPath) else self._source.find_path(path)

    def _resolve_target(self, path: SchemaPath | str) -> SchemaPath:
        return path if isinstance(path, SchemaPath) else self._target.find_path(path)

    # -- iterations -------------------------------------------------------------------------

    def run_iteration(
        self, strategy: Union[MatchStrategy, str, None] = None
    ) -> MatchOutcome:
        """Execute one match iteration and record its outcome."""
        if strategy is not None:
            self.set_strategy(strategy)
        outcome = self._session.match(
            self._source, self._target, self._strategy, feedback=self._feedback
        )
        self._iterations.append(outcome)
        return outcome

    run = run_iteration

    @property
    def iterations(self) -> List[MatchOutcome]:
        """Outcomes of all iterations run so far, in order."""
        return list(self._iterations)

    @property
    def last_outcome(self) -> MatchOutcome:
        """The outcome of the most recent iteration."""
        if not self._iterations:
            raise ComaError("no match iteration has been run yet")
        return self._iterations[-1]

    def current_result(self) -> MatchResult:
        """The latest proposed mapping with user feedback folded in.

        Accepted pairs are added with similarity 1.0 even if the matchers did
        not propose them; rejected pairs are removed.
        """
        result = MatchResult(self._source, self._target)
        if self._iterations:
            for correspondence in self.last_outcome.result.correspondences:
                if self._feedback.is_rejected(correspondence.source, correspondence.target):
                    continue
                result.add(correspondence)
        for source_str, target_str in self._feedback.accepted_pairs:
            try:
                source = self._source.find_path(source_str)
                target = self._target.find_path(target_str)
            except ComaError:
                continue
            result.add(Correspondence(source, target, 1.0))
        return result

    def pending_candidates(self) -> List[Correspondence]:
        """Proposed correspondences the user has not yet accepted or rejected."""
        if not self._iterations:
            return []
        pending = []
        for correspondence in self.last_outcome.result.correspondences:
            if self._feedback.decision(correspondence.source, correspondence.target) is None:
                pending.append(correspondence)
        return pending
