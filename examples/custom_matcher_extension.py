"""Extending the matcher library with a custom matcher and a custom strategy.

COMA is explicitly designed as an *extensible* platform: new matchers can be
registered in the library and combined with the existing ones.  This example
adds a documentation-based matcher (comparing free-text annotations with the
Trigram string matcher), registers it, and combines it with NamePath and the
Similarity Flooding baseline under a custom combination strategy.

Run with::

    python examples/custom_matcher_extension.py
"""

from __future__ import annotations

from repro import MatchSession, MatchStrategy
from repro.baselines.similarity_flooding import SimilarityFloodingMatcher
from repro.combination.matrix import SimilarityMatrix
from repro.combination.strategy import parse_combination
from repro.datasets.figure1 import figure1_reference_mapping, load_po1, load_po2
from repro.evaluation.metrics import evaluate_mapping
from repro.evaluation.report import format_table
from repro.matchers.base import MatchContext, PairwiseMatcher
from repro.matchers.registry import default_library
from repro.matchers.string.ngram import TrigramMatcher
from repro.model.path import SchemaPath


class DocumentationMatcher(PairwiseMatcher):
    """Compares the free-text documentation of elements with Trigram similarity."""

    name = "Documentation"
    kind = "simple"

    def __init__(self):
        self._trigram = TrigramMatcher()

    def pair_similarity(self, source: SchemaPath, target: SchemaPath,
                        context: MatchContext) -> float:
        first = source.leaf.documentation or source.name
        second = target.leaf.documentation or target.name
        return self._trigram.similarity(first, second)

    def cache_key(self, path: SchemaPath, context: MatchContext) -> object:
        return path.leaf.documentation or path.name


def main() -> None:
    po1, po2 = load_po1(), load_po2()
    reference = figure1_reference_mapping(po1, po2)

    library = default_library()
    library.register("Documentation", DocumentationMatcher, kind="simple",
                     schema_info="Element documentation")
    library.register("SimilarityFlooding", SimilarityFloodingMatcher, kind="baseline",
                     schema_info="Graph structure")

    session = MatchSession(library=library)
    combination = parse_combination("Average", "Both", "Thr(0.5)+Delta(0.02)")
    rows = []
    for label, matchers in [
        ("NamePath only", ["NamePath"]),
        ("SimilarityFlooding baseline", ["SimilarityFlooding"]),
        ("NamePath + Documentation + SF", ["NamePath", "Documentation", "SimilarityFlooding"]),
        ("All five hybrid matchers", ["Name", "NamePath", "TypeName", "Children", "Leaves"]),
    ]:
        strategy = MatchStrategy(matchers=matchers, combination=combination)
        outcome = session.match(po1, po2, strategy=strategy)
        quality = evaluate_mapping(outcome.result, reference)
        rows.append({
            "strategy": label,
            "proposed": quality.predicted,
            "precision": quality.precision,
            "recall": quality.recall,
            "overall": quality.overall,
        })

    print(format_table(rows, title="Custom matchers combined through the COMA framework (PO1 <-> PO2)"))


if __name__ == "__main__":
    main()
