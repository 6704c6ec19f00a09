"""Schema paths - the match granularity of COMA.

Schema elements are represented by their *paths*: sequences of nodes following
the containment links from the root down to the corresponding node (Section 3).
Shared fragments (such as the ``Address`` type in the paper's PO2 schema) yield
multiple paths referring to the same underlying node, and match candidates are
determined independently for each path.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.model.datatypes import GenericType
from repro.model.element import SchemaElement


class SchemaPath:
    """An immutable root-to-node path through the containment hierarchy.

    A path is hashable and compares by the sequence of element identities it
    traverses, so two distinct paths ending at the same shared element are not
    equal.  Its hash is computed once: paths key every dict of the combination
    and profile layers.  The human-readable dotted form (e.g.
    ``PO2.DeliverTo.Address.City``) is available via :meth:`dotted` / ``str``.
    """

    __slots__ = ("_elements", "_key", "_hash", "_names")

    def __init__(self, elements: Sequence[SchemaElement]):
        if not elements:
            raise ValueError("a schema path must contain at least one element")
        self._elements: Tuple[SchemaElement, ...] = tuple(elements)
        self._key: Tuple[int, ...] = tuple(e.element_id for e in self._elements)
        self._hash = hash(self._key)
        self._names: Optional[Tuple[str, ...]] = None

    # -- basic accessors -------------------------------------------------

    @property
    def elements(self) -> Tuple[SchemaElement, ...]:
        """The elements along the path, root first."""
        return self._elements

    @property
    def leaf(self) -> SchemaElement:
        """The final element of the path (the element this path denotes)."""
        return self._elements[-1]

    @property
    def root(self) -> SchemaElement:
        """The first element of the path (the schema root)."""
        return self._elements[0]

    @property
    def parent(self) -> Optional["SchemaPath"]:
        """The path without its final element, or ``None`` for the root path."""
        if len(self._elements) == 1:
            return None
        return SchemaPath(self._elements[:-1])

    @property
    def depth(self) -> int:
        """Number of containment steps from the root (root path has depth 0)."""
        return len(self._elements) - 1

    @property
    def name(self) -> str:
        """The name of the element the path denotes."""
        return self.leaf.name

    @property
    def names(self) -> Tuple[str, ...]:
        """All element names along the path, root first (computed once).

        Ranking, tokenization and tie-breaking all consult the name tuple on
        hot paths, so it is cached on first access; element names are fixed
        after schema construction.
        """
        if self._names is None:
            self._names = tuple(element.name for element in self._elements)
        return self._names

    @property
    def source_type(self) -> Optional[str]:
        """The source-level data type of the denoted element."""
        return self.leaf.source_type

    @property
    def generic_type(self) -> GenericType:
        """The generic data type of the denoted element."""
        return self.leaf.generic_type

    # -- derived forms ---------------------------------------------------

    def dotted(self, skip_root: bool = False) -> str:
        """Return the dotted string form, optionally omitting the schema root."""
        names = self.names[1:] if skip_root and len(self._elements) > 1 else self.names
        return ".".join(names)

    def long_name(self, separator: str = "") -> str:
        """Concatenate all names along the path into one long string.

        This is the representation used by the ``NamePath`` matcher
        (Section 4.2): the long name provides additional tokens for name
        matching and distinguishes different contexts of a shared element.
        """
        return separator.join(self.names)

    def child(self, element: SchemaElement) -> "SchemaPath":
        """Return a new path extending this one by ``element``."""
        return SchemaPath(self._elements + (element,))

    def startswith(self, other: "SchemaPath") -> bool:
        """True if ``other`` is a prefix of this path (by element identity)."""
        return self._key[: len(other._key)] == other._key

    # -- dunder protocol -------------------------------------------------

    def __iter__(self) -> Iterator[SchemaElement]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __getitem__(self, index: int) -> SchemaElement:
        return self._elements[index]

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchemaPath):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "SchemaPath") -> bool:
        return self.names < other.names

    def __str__(self) -> str:
        return self.dotted()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaPath({self.dotted()!r})"
