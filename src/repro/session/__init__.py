"""The session layer: COMA's service-shaped public entry point.

:class:`~repro.session.session.MatchSession` owns the shared resources of
many match operations and is the only implementation of the match operation.
"""

from repro.session.session import MatchSession

__all__ = ["MatchSession"]
