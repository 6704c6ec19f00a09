"""The schema graph: a rooted directed acyclic graph of schema elements.

This is COMA's internal schema representation (Section 3, Figure 1b).  All
matchers operate on this format; external formats (relational DDL, XSD, dicts)
are converted into it by the importers.

The central operations are:

* adding elements and containment / referential links (cycle-checked),
* enumerating all root-to-node :class:`~repro.model.path.SchemaPath` objects,
  which is the match granularity,
* classifying paths as inner or leaf,
* computing the statistics reported in Table 5 of the paper
  (max depth, node / path counts broken down by inner and leaf).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import CycleError, SchemaError, UnknownElementError
from repro.model.element import ElementKind, Link, LinkKind, SchemaElement
from repro.model.path import SchemaPath


@dataclasses.dataclass(frozen=True)
class SchemaStatistics:
    """Structural statistics of a schema, as reported in Table 5 of the paper."""

    name: str
    max_depth: int
    node_count: int
    path_count: int
    inner_node_count: int
    inner_path_count: int
    leaf_node_count: int
    leaf_path_count: int

    def as_row(self) -> Dict[str, object]:
        """Return the statistics as a flat dict suitable for tabular reports."""
        return {
            "schema": self.name,
            "max_depth": self.max_depth,
            "nodes": self.node_count,
            "paths": self.path_count,
            "inner_nodes": self.inner_node_count,
            "inner_paths": self.inner_path_count,
            "leaf_nodes": self.leaf_node_count,
            "leaf_paths": self.leaf_path_count,
        }


class Schema:
    """A rooted directed acyclic graph representing one schema.

    Parameters
    ----------
    name:
        The schema name.  It becomes the name of the implicit root element and
        the first component of every path.
    namespace:
        Optional namespace / source URI recorded for provenance.

    The root element is created automatically.  Elements are attached to the
    graph with :meth:`add_element` (optionally directly under a parent) and
    additional containment or reference links are added with :meth:`add_link`.
    """

    def __init__(self, name: str, namespace: Optional[str] = None):
        if not name or not name.strip():
            raise SchemaError("schema name must be a non-empty string")
        self._name = name.strip()
        self._namespace = namespace
        self._root = SchemaElement(self._name, kind=ElementKind.SCHEMA)
        self._elements: List[SchemaElement] = [self._root]
        self._element_ids = {self._root.element_id}
        self._children: Dict[SchemaElement, List[SchemaElement]] = {self._root: []}
        self._parents: Dict[SchemaElement, List[SchemaElement]] = {self._root: []}
        self._references: List[Link] = []
        self._paths_cache: Optional[Tuple[SchemaPath, ...]] = None
        self._dotted_cache: Optional[Tuple[str, ...]] = None

    # -- identity ---------------------------------------------------------

    @property
    def name(self) -> str:
        """The schema name (also the root element name)."""
        return self._name

    @property
    def namespace(self) -> Optional[str]:
        """Optional namespace or source URI."""
        return self._namespace

    @property
    def root(self) -> SchemaElement:
        """The implicit root element of the schema graph."""
        return self._root

    # -- construction ------------------------------------------------------

    def add_element(
        self,
        name: str,
        parent: Optional[SchemaElement] = None,
        kind: ElementKind = ElementKind.GENERIC,
        source_type: Optional[str] = None,
        documentation: Optional[str] = None,
    ) -> SchemaElement:
        """Create a new element and attach it beneath ``parent`` (default: root)."""
        element = SchemaElement(
            name, kind=kind, source_type=source_type, documentation=documentation
        )
        self._register(element)
        self.add_link(parent if parent is not None else self._root, element)
        return element

    def add_detached_element(
        self,
        name: str,
        kind: ElementKind = ElementKind.GENERIC,
        source_type: Optional[str] = None,
        documentation: Optional[str] = None,
    ) -> SchemaElement:
        """Create an element that is registered but not yet linked to a parent.

        Useful for shared fragments (an element may later be linked under
        several parents) and for importers that create nodes before wiring the
        hierarchy.  Detached elements do not contribute paths until linked.
        """
        element = SchemaElement(
            name, kind=kind, source_type=source_type, documentation=documentation
        )
        self._register(element)
        return element

    def _register(self, element: SchemaElement) -> None:
        if element.element_id in self._element_ids:
            raise SchemaError(f"element {element!r} is already part of schema {self._name!r}")
        self._elements.append(element)
        self._element_ids.add(element.element_id)
        self._children.setdefault(element, [])
        self._parents.setdefault(element, [])
        self._invalidate()

    def add_link(
        self,
        source: SchemaElement,
        target: SchemaElement,
        kind: LinkKind = LinkKind.CONTAINMENT,
    ) -> Link:
        """Add a directed link from ``source`` to ``target``.

        Containment links participate in path enumeration and are checked for
        cycles; reference links are recorded separately and may freely connect
        any two registered elements.
        """
        self._require_registered(source)
        self._require_registered(target)
        link = Link(source, target, kind)
        if kind is LinkKind.CONTAINMENT:
            if target is self._root:
                raise CycleError("the schema root cannot be the target of a containment link")
            if self._reachable(target, source):
                raise CycleError(
                    f"adding containment link {source.name!r} -> {target.name!r} "
                    "would create a cycle"
                )
            if target in self._children[source]:
                raise SchemaError(
                    f"containment link {source.name!r} -> {target.name!r} already exists"
                )
            self._children[source].append(target)
            self._parents[target].append(source)
            self._invalidate()
        else:
            self._references.append(link)
        return link

    def _require_registered(self, element: SchemaElement) -> None:
        if element.element_id not in self._element_ids:
            raise UnknownElementError(
                f"element {element.name!r} does not belong to schema {self._name!r}"
            )

    def _reachable(self, start: SchemaElement, goal: SchemaElement) -> bool:
        """True if ``goal`` is reachable from ``start`` via containment links."""
        if start is goal:
            return True
        stack = [start]
        seen = {start.element_id}
        while stack:
            current = stack.pop()
            for child in self._children.get(current, ()):
                if child is goal:
                    return True
                if child.element_id not in seen:
                    seen.add(child.element_id)
                    stack.append(child)
        return False

    def _invalidate(self) -> None:
        self._paths_cache = None
        self._dotted_cache = None

    # -- graph accessors ---------------------------------------------------

    @property
    def elements(self) -> Tuple[SchemaElement, ...]:
        """All registered elements including the root."""
        return tuple(self._elements)

    def children(self, element: SchemaElement) -> Tuple[SchemaElement, ...]:
        """Containment children of ``element`` in insertion order."""
        self._require_registered(element)
        return tuple(self._children.get(element, ()))

    def parents(self, element: SchemaElement) -> Tuple[SchemaElement, ...]:
        """Containment parents of ``element`` (more than one for shared fragments)."""
        self._require_registered(element)
        return tuple(self._parents.get(element, ()))

    def references(self) -> Tuple[Link, ...]:
        """All referential links of the schema."""
        return tuple(self._references)

    def references_from(self, element: SchemaElement) -> Tuple[Link, ...]:
        """Referential links whose source is ``element``."""
        return tuple(link for link in self._references if link.source is element)

    def is_leaf(self, element: SchemaElement) -> bool:
        """True if ``element`` has no containment children."""
        self._require_registered(element)
        return not self._children.get(element)

    def is_inner(self, element: SchemaElement) -> bool:
        """True if ``element`` has at least one containment child."""
        return not self.is_leaf(element)

    def is_shared(self, element: SchemaElement) -> bool:
        """True if ``element`` has more than one containment parent."""
        self._require_registered(element)
        return len(self._parents.get(element, ())) > 1

    def find_elements(self, name: str) -> Tuple[SchemaElement, ...]:
        """All elements (excluding the root) whose name equals ``name`` exactly."""
        return tuple(e for e in self._elements[1:] if e.name == name)

    def find_element(self, name: str) -> SchemaElement:
        """The unique element named ``name``; raises if absent or ambiguous."""
        matches = self.find_elements(name)
        if not matches:
            raise UnknownElementError(f"no element named {name!r} in schema {self._name!r}")
        if len(matches) > 1:
            raise SchemaError(
                f"element name {name!r} is ambiguous in schema {self._name!r} "
                f"({len(matches)} occurrences); use find_elements or a path lookup"
            )
        return matches[0]

    # -- paths ---------------------------------------------------------------

    def paths(self, include_root: bool = False) -> Tuple[SchemaPath, ...]:
        """All root-to-node paths following containment links, in DFS order.

        The root path itself is omitted by default because the root is an
        artificial element that does not correspond to any source construct.
        """
        if self._paths_cache is None:
            collected: List[SchemaPath] = []
            self._collect_paths(SchemaPath([self._root]), collected)
            self._paths_cache = tuple(collected)
        if include_root:
            return (SchemaPath([self._root]),) + self._paths_cache
        return self._paths_cache

    def dotted_paths(self) -> Tuple[str, ...]:
        """The dotted form of each path of :meth:`paths`, in that order (computed once).

        >>> from repro.datasets.figure1 import load_po1
        >>> po1 = load_po1()
        >>> po1.dotted_paths()[0] == po1.paths()[0].dotted()
        True
        """
        if self._dotted_cache is None:
            self._dotted_cache = tuple(path.dotted() for path in self.paths())
        return self._dotted_cache

    def _collect_paths(self, prefix: SchemaPath, out: List[SchemaPath]) -> None:
        for child in self._children.get(prefix.leaf, ()):
            child_path = prefix.child(child)
            out.append(child_path)
            self._collect_paths(child_path, out)

    def leaf_paths(self) -> Tuple[SchemaPath, ...]:
        """Paths whose final element is a leaf."""
        return tuple(p for p in self.paths() if self.is_leaf(p.leaf))

    def inner_paths(self) -> Tuple[SchemaPath, ...]:
        """Paths whose final element is an inner element."""
        return tuple(p for p in self.paths() if self.is_inner(p.leaf))

    def descendant_paths(self, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        """All paths strictly beneath ``path`` (sharing it as a prefix)."""
        return tuple(p for p in self.paths() if p != path and p.startswith(path))

    def child_paths(self, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        """Paths extending ``path`` by exactly one containment step."""
        return tuple(path.child(child) for child in self._children.get(path.leaf, ()))

    def leaf_paths_under(self, path: SchemaPath) -> Tuple[SchemaPath, ...]:
        """Leaf paths that have ``path`` as a prefix (used by the Leaves matcher)."""
        return tuple(
            p for p in self.descendant_paths(path) if self.is_leaf(p.leaf)
        )

    def find_path(self, dotted: str) -> SchemaPath:
        """Resolve a dotted path string (with or without the schema root) to a path."""
        target_with_root = dotted.strip()
        for path in self.paths():
            if path.dotted() == target_with_root or path.dotted(skip_root=True) == target_with_root:
                return path
        raise UnknownElementError(f"no path {dotted!r} in schema {self._name!r}")

    def path_of(self, element: SchemaElement) -> SchemaPath:
        """Any one path ending at ``element`` (the first in DFS order)."""
        for path in self.paths():
            if path.leaf is element:
                return path
        raise UnknownElementError(
            f"element {element.name!r} is not reachable from the root of {self._name!r}"
        )

    def paths_of(self, element: SchemaElement) -> Tuple[SchemaPath, ...]:
        """All paths ending at ``element`` (several when the element is shared)."""
        return tuple(path for path in self.paths() if path.leaf is element)

    # -- statistics ----------------------------------------------------------

    def statistics(self) -> SchemaStatistics:
        """Compute the Table 5 statistics for this schema."""
        all_paths = self.paths()
        reachable: Dict[int, SchemaElement] = {}
        for path in all_paths:
            reachable[path.leaf.element_id] = path.leaf
        nodes = list(reachable.values())
        inner_nodes = [n for n in nodes if self.is_inner(n)]
        leaf_nodes = [n for n in nodes if self.is_leaf(n)]
        inner_paths = [p for p in all_paths if self.is_inner(p.leaf)]
        leaf_paths = [p for p in all_paths if self.is_leaf(p.leaf)]
        max_depth = max((p.depth for p in all_paths), default=0)
        return SchemaStatistics(
            name=self._name,
            max_depth=max_depth,
            node_count=len(nodes),
            path_count=len(all_paths),
            inner_node_count=len(inner_nodes),
            inner_path_count=len(inner_paths),
            leaf_node_count=len(leaf_nodes),
            leaf_path_count=len(leaf_paths),
        )

    # -- dunder protocol ------------------------------------------------------

    def __len__(self) -> int:
        """Number of paths (the size measure used throughout the evaluation)."""
        return len(self.paths())

    def __iter__(self) -> Iterator[SchemaPath]:
        return iter(self.paths())

    def __contains__(self, item: object) -> bool:
        if isinstance(item, SchemaPath):
            return item in self.paths()
        if isinstance(item, SchemaElement):
            return item.element_id in self._element_ids
        if isinstance(item, str):
            try:
                self.find_path(item)
                return True
            except UnknownElementError:
                return False
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schema({self._name!r}, paths={len(self.paths())})"


def schemas_by_size(first: Schema, second: Schema) -> Tuple[Schema, Schema]:
    """Return ``(larger, smaller)`` by path count, preserving order on ties."""
    if len(second.paths()) > len(first.paths()):
        return second, first
    return first, second
