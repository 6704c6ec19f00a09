"""COMA: flexible combination of schema matching approaches (Do & Rahm, VLDB 2002).

This package is a full reproduction of the COMA schema matching system:

* a schema graph model with path-level match granularity (:mod:`repro.model`),
* importers for relational DDL, XSD and dict specifications (:mod:`repro.importers`),
* the matcher library -- simple, hybrid and reuse-oriented matchers
  (:mod:`repro.matchers`),
* the combination framework: similarity cubes, aggregation, direction,
  selection and combined similarity (:mod:`repro.combination`),
* the vectorized batch match engine with its shared path-profile caches
  (:mod:`repro.engine`),
* the session layer: the long-lived service front-end owning shared resources
  and caches (:mod:`repro.session`),
* the service layer: the session pool behind a stdlib-only HTTP JSON API with
  a matching client -- ``coma serve`` / :mod:`repro.service`,
* the match operation and the iterative/interactive processor (:mod:`repro.core`),
* a SQLite-backed repository for schemas, cubes, mappings and named
  strategies (:mod:`repro.repository`),
* the evaluation harness reproducing the paper's experiments (:mod:`repro.evaluation`),
* the bundled purchase-order test schemas and gold standards (:mod:`repro.datasets`).

Quickstart::

    from repro import MatchSession
    from repro.datasets import load_po1, load_po2

    session = MatchSession()
    outcome = session.match(load_po1(), load_po2())
    for correspondence in outcome.result:
        print(correspondence)

Strategies are declarative and parseable; the same session runs batches::

    outcome = session.match(a, b, strategy="All(Max,Both,Thr(0.5)+MaxN(1),Average)")
    outcomes = session.match_many([(a, b), (a, c), (b, c)])
"""

from __future__ import annotations

from repro.combination import (
    CombinationStrategy,
    MaxDelta,
    MaxN,
    SimilarityCube,
    SimilarityMatrix,
    Threshold,
    combination_from_spec,
    default_combination,
    parse_combination,
)
from repro.core import (
    MatchOutcome,
    MatchProcessor,
    MatchStrategy,
    UserFeedbackStore,
    default_strategy,
)
from repro.engine import MatchEngine
from repro.importers import DEFAULT_IMPORTERS
from repro.matchers import DEFAULT_LIBRARY, MatchContext, Matcher, MatcherLibrary
from repro.model import (
    Correspondence,
    ElementKind,
    GenericType,
    MatchResult,
    Schema,
    SchemaBuilder,
    SchemaElement,
    SchemaPath,
)
from repro.repository import Repository
from repro.session import MatchSession

__version__ = "1.2.0"

__all__ = [
    "CombinationStrategy",
    "Correspondence",
    "DEFAULT_IMPORTERS",
    "DEFAULT_LIBRARY",
    "ElementKind",
    "GenericType",
    "MatchContext",
    "MatchEngine",
    "MatchOutcome",
    "MatchProcessor",
    "MatchResult",
    "MatchSession",
    "MatchStrategy",
    "Matcher",
    "MatcherLibrary",
    "MaxDelta",
    "MaxN",
    "Repository",
    "Schema",
    "SchemaBuilder",
    "SchemaElement",
    "SchemaPath",
    "SimilarityCube",
    "SimilarityMatrix",
    "Threshold",
    "UserFeedbackStore",
    "__version__",
    "combination_from_spec",
    "default_combination",
    "default_strategy",
    "parse_combination",
]
