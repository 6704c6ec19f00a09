"""Core match processing: strategies, the match operation's steps and the iterative processor."""

from repro.core.match_operation import MatchOutcome, build_context, combine_cube
from repro.core.processor import MatchProcessor
from repro.core.strategy import MatchStrategy, default_strategy, single_matcher_strategy
from repro.matchers.simple.user_feedback import UserFeedbackStore

__all__ = [
    "MatchOutcome",
    "MatchProcessor",
    "MatchStrategy",
    "UserFeedbackStore",
    "build_context",
    "combine_cube",
    "default_strategy",
    "single_matcher_strategy",
]
