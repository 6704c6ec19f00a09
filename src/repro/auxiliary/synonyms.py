"""Synonym dictionary used by the ``Synonym`` matcher.

The Synonym matcher (Section 4.1) "estimates the similarity between element
names by looking up the terminological relationships in a specified
dictionary.  Currently, it simply uses relationship-specific similarity
values, e.g. 1.0 for a synonymy and 0.8 for a hypernymy relationship."

:class:`SynonymDictionary` stores word pairs labelled with a
:class:`TermRelationship` and answers similarity lookups.  Synonymy is stored
symmetrically; hypernymy is stored directed (``hyponym -> hypernym``) but the
similarity lookup treats the pair symmetrically, as the paper's matcher does.
The evaluation's hand-built synonym file is reproduced by
:func:`default_purchase_order_synonyms`.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


class TermRelationship(enum.Enum):
    """Terminological relationships recognised by the dictionary."""

    SYNONYM = "synonym"
    HYPERNYM = "hypernym"
    RELATED = "related"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Default relationship-specific similarity values from the paper.
DEFAULT_RELATIONSHIP_SIMILARITY: Dict[TermRelationship, float] = {
    TermRelationship.SYNONYM: 1.0,
    TermRelationship.HYPERNYM: 0.8,
    TermRelationship.RELATED: 0.6,
}


class SynonymDictionary:
    """A small terminological dictionary mapping word pairs to relationships."""

    def __init__(
        self,
        relationship_similarity: Optional[Dict[TermRelationship, float]] = None,
    ):
        self._pairs: Dict[Tuple[str, str], TermRelationship] = {}
        self._similarity = dict(DEFAULT_RELATIONSHIP_SIMILARITY)
        if relationship_similarity:
            for relationship, value in relationship_similarity.items():
                self.set_relationship_similarity(relationship, value)

    # -- configuration ---------------------------------------------------------

    def set_relationship_similarity(self, relationship: TermRelationship, value: float) -> None:
        """Override the similarity assigned to a relationship kind."""
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"similarity must be within [0, 1], got {value!r}")
        self._similarity[relationship] = float(value)

    def relationship_similarity(self, relationship: TermRelationship) -> float:
        """The similarity currently assigned to ``relationship``."""
        return self._similarity[relationship]

    # -- population --------------------------------------------------------------

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        first, second = a.strip().lower(), b.strip().lower()
        return (first, second) if first <= second else (second, first)

    def add(self, a: str, b: str, relationship: TermRelationship = TermRelationship.SYNONYM) -> None:
        """Record that words ``a`` and ``b`` stand in ``relationship``."""
        if not a.strip() or not b.strip():
            raise ValueError("synonym dictionary entries must be non-empty strings")
        self._pairs[self._key(a, b)] = relationship

    def add_synonyms(self, *groups: Iterable[str]) -> None:
        """Record every pair within each group as synonyms."""
        for group in groups:
            words = [w for w in group]
            for i, first in enumerate(words):
                for second in words[i + 1:]:
                    self.add(first, second, TermRelationship.SYNONYM)

    def add_hypernym(self, hyponym: str, hypernym: str) -> None:
        """Record that ``hypernym`` is a broader term for ``hyponym``."""
        self.add(hyponym, hypernym, TermRelationship.HYPERNYM)

    # -- lookup -------------------------------------------------------------------

    def relationship(self, a: str, b: str) -> Optional[TermRelationship]:
        """The stored relationship between two words, or ``None``."""
        if a.strip().lower() == b.strip().lower():
            return TermRelationship.SYNONYM
        return self._pairs.get(self._key(a, b))

    def similarity(self, a: str, b: str) -> float:
        """The relationship-specific similarity of two words (0.0 if unrelated)."""
        relationship = self.relationship(a, b)
        if relationship is None:
            return 0.0
        return self._similarity[relationship]

    def similarity_many(self, sources: Sequence[str], targets: Sequence[str]) -> np.ndarray:
        """The ``len(sources) x len(targets)`` matrix of :meth:`similarity` values.

        Every word is normalised once.  Each source word then visits only its
        own normalised form, which scores as synonymy over any stored
        relationship, as in :meth:`relationship`, and its stored partners.
        Relationship similarities are read at call time.

        Examples
        --------
        >>> dictionary = default_purchase_order_synonyms()
        >>> dictionary.similarity_many(["Ship", "surname", ""], ["deliver", "name", "", "ship "])
        array([[1. , 0. , 0. , 1. ],
               [0. , 0.8, 0. , 0. ],
               [0. , 0. , 1. , 0. ]])
        """
        columns: Dict[str, List[int]] = {}
        for j, word in enumerate(targets):
            columns.setdefault(word.strip().lower(), []).append(j)
        # Self-pairs are left out: an equal form is synonymy anyway.
        partners: Dict[str, List[Tuple[str, TermRelationship]]] = {}
        for (first, second), relationship in self._pairs.items():
            if first != second:
                partners.setdefault(first, []).append((second, relationship))
                partners.setdefault(second, []).append((first, relationship))
        similarity = self._similarity
        values = np.zeros((len(sources), len(targets)))
        for i, word in enumerate(sources):
            form = word.strip().lower()
            row = values[i]
            for j in columns.get(form, ()):
                row[j] = similarity[TermRelationship.SYNONYM]
            for partner, relationship in partners.get(form, ()):
                for j in columns.get(partner, ()):
                    row[j] = similarity[relationship]
        return values

    def merged_with(self, other: "SynonymDictionary") -> "SynonymDictionary":
        """A new dictionary combining both; entries of ``other`` win on conflict."""
        merged = SynonymDictionary()
        merged._similarity.update(self._similarity)
        merged._similarity.update(other._similarity)
        merged._pairs.update(self._pairs)
        merged._pairs.update(other._pairs)
        return merged

    def items(self) -> Iterable[Tuple[Tuple[str, str], TermRelationship]]:
        """Iterate over ``((word_a, word_b), relationship)`` entries."""
        return self._pairs.items()

    def __len__(self) -> int:
        return len(self._pairs)

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, tuple) and len(pair) == 2:
            return self._key(str(pair[0]), str(pair[1])) in self._pairs
        return False


def default_purchase_order_synonyms() -> SynonymDictionary:
    """The domain synonym file used uniformly in the paper's evaluation.

    The paper lists domain-specific synonyms such as ``(ship, deliver)`` and
    ``(bill, invoice)``; this function reproduces the same content class for
    the purchase-order domain used by the bundled test schemas.
    """
    dictionary = SynonymDictionary()
    dictionary.add_synonyms(
        ("ship", "shipping", "shipment", "deliver", "delivery", "dispatch"),
        ("bill", "billing", "invoice", "invoicing"),
        ("customer", "client", "buyer", "purchaser"),
        ("vendor", "supplier", "seller"),
        ("street", "road"),
        ("city", "town"),
        ("zip", "postal", "postcode", "post"),
        ("telephone", "phone"),
        ("company", "organization", "firm"),
        ("contact", "person"),
        ("item", "article", "product", "line"),
        ("quantity", "count"),
        ("price", "cost"),
        ("order", "purchase"),
        ("number", "identifier", "code"),
        ("name", "title"),
        ("country", "nation"),
        ("state", "province", "region", "district"),
        ("date", "day"),
        ("total", "sum", "gross"),
        ("subtotal", "net"),
        ("amount", "value"),
        ("unit", "measure"),
        ("header", "head"),
        ("detail", "line"),
        ("email", "mail"),
        ("description", "text", "note", "comment"),
        ("partner", "party"),
        ("tax", "vat", "duty"),
        ("freight", "carriage"),
        ("currency", "money"),
        ("remark", "note", "comment"),
        ("position", "line"),
    )
    dictionary.add_hypernym("surname", "name")
    dictionary.add_hypernym("forename", "name")
    dictionary.add_hypernym("city", "address")
    dictionary.add_hypernym("street", "address")
    dictionary.add_hypernym("invoice", "document")
    dictionary.add_hypernym("order", "document")
    return dictionary
