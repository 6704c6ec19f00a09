"""Match strategies: which matchers to run and how to combine their results.

A :class:`MatchStrategy` is the user-facing knob of COMA's automatic mode: it
names the matchers to execute (resolved through the matcher library) and the
:class:`~repro.combination.strategy.CombinationStrategy` applied to the
resulting similarity cube.  :func:`default_strategy` reproduces the paper's
default match operation -- the combination of all five hybrid matchers
(``All``) with ``(Average, Both, Threshold(0.5)+Delta(0.02))`` -- identified
as the most effective no-reuse configuration in Section 7.2.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from repro.combination.strategy import CombinationStrategy, default_combination
from repro.exceptions import StrategyError
from repro.matchers.base import Matcher
from repro.matchers.registry import DEFAULT_LIBRARY, EVALUATION_HYBRID_MATCHERS, MatcherLibrary

#: A matcher reference: either an instance or a library name.
MatcherReference = Union[Matcher, str]


@dataclasses.dataclass
class MatchStrategy:
    """The configuration of one automatic match operation.

    A strategy has a declarative textual form (see :mod:`repro.core.spec`):
    :meth:`parse` builds a strategy from a spec such as
    ``"All(Average,Both,Thr(0.5)+Delta(0.02),Average)"`` and :meth:`to_spec`
    serialises it back; :meth:`to_dict` / :meth:`from_dict` provide the
    JSON-friendly form the repository persists named strategies in.
    """

    matchers: Sequence[MatcherReference] = dataclasses.field(
        default_factory=lambda: list(EVALUATION_HYBRID_MATCHERS)
    )
    combination: CombinationStrategy = dataclasses.field(default_factory=default_combination)
    #: Enforce user feedback (accepted -> 1.0, rejected -> 0.0) after aggregation.
    apply_feedback_overrides: bool = True
    #: Optional human-readable name shown in reports (a display label only:
    #: excluded from equality so parsed specs compare by behaviour).
    name: str = dataclasses.field(default="", compare=False)

    def resolve_matchers(self, library: Optional[MatcherLibrary] = None) -> List[Matcher]:
        """Instantiate all referenced matchers through ``library`` (default library)."""
        resolved: List[Matcher] = []
        registry = library if library is not None else DEFAULT_LIBRARY
        for reference in self.matchers:
            if isinstance(reference, Matcher):
                resolved.append(reference)
            elif isinstance(reference, str):
                resolved.append(registry.create(reference))
            else:
                raise StrategyError(
                    f"matcher references must be Matcher instances or names, got {reference!r}"
                )
        if not resolved:
            raise StrategyError("a match strategy must reference at least one matcher")
        return resolved

    def matcher_names(self) -> Tuple[str, ...]:
        """The names of the referenced matchers (for display and labelling)."""
        names = []
        for reference in self.matchers:
            names.append(reference.name if isinstance(reference, Matcher) else str(reference))
        return tuple(names)

    def describe(self) -> str:
        """A human-readable description of the strategy."""
        label = self.name or "+".join(self.matcher_names())
        return f"{label} with {self.combination.describe()}"

    def replaced(
        self,
        matchers: Optional[Sequence[MatcherReference]] = None,
        combination: Optional[CombinationStrategy] = None,
        name: Optional[str] = None,
        apply_feedback_overrides: Optional[bool] = None,
    ) -> "MatchStrategy":
        """A copy with some fields replaced."""
        return MatchStrategy(
            matchers=list(matchers) if matchers is not None else list(self.matchers),
            combination=combination if combination is not None else self.combination,
            apply_feedback_overrides=(
                self.apply_feedback_overrides
                if apply_feedback_overrides is None
                else bool(apply_feedback_overrides)
            ),
            name=name if name is not None else self.name,
        )

    # -- declarative spec / serialisation -------------------------------------

    @classmethod
    def parse(cls, spec: str, library: Optional[MatcherLibrary] = None) -> "MatchStrategy":
        """Parse a full strategy spec, e.g. ``"All(Average,Both,Thr(0.5)+Delta(0.02),Average)"``.

        See :mod:`repro.core.spec` for the grammar.  ``library`` (when given)
        validates matcher names at parse time.
        """
        from repro.core.spec import parse_strategy_spec

        return parse_strategy_spec(spec, library=library)

    def to_spec(self) -> str:
        """The compact spec form; round-trips through :meth:`parse`."""
        from repro.core.spec import strategy_to_spec

        return strategy_to_spec(self)

    def to_dict(self) -> dict:
        """The dict/JSON form (includes the fields the compact spec omits)."""
        from repro.core.spec import strategy_to_dict

        return strategy_to_dict(self)

    @classmethod
    def from_dict(
        cls, data: Mapping, library: Optional[MatcherLibrary] = None
    ) -> "MatchStrategy":
        """Rebuild a strategy from its dict/JSON form (inverse of :meth:`to_dict`)."""
        from repro.core.spec import strategy_from_dict

        return strategy_from_dict(data, library=library)


def default_strategy() -> MatchStrategy:
    """The paper's default match operation: ``All`` hybrid matchers, default combination."""
    return MatchStrategy(
        matchers=list(EVALUATION_HYBRID_MATCHERS),
        combination=default_combination(),
        name="All",
    )


def single_matcher_strategy(matcher: MatcherReference,
                            combination: Optional[CombinationStrategy] = None) -> MatchStrategy:
    """A strategy running one matcher with the default (or a given) combination."""
    name = matcher.name if isinstance(matcher, Matcher) else str(matcher)
    return MatchStrategy(
        matchers=[matcher],
        combination=combination if combination is not None else default_combination(),
        name=name,
    )
