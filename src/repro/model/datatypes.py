"""Generic data types and the data-type compatibility table.

COMA's ``DataType`` matcher (Section 4.1 of the paper) does not compare the
raw source-level type strings (``VARCHAR(200)``, ``xsd:string``, ...).  Instead
every source type is first mapped onto a small set of *generic* data types and
a symmetric *compatibility table* assigns a similarity in ``[0, 1]`` to every
pair of generic types.

This module provides:

* :class:`GenericType` -- the enumeration of generic types,
* :func:`map_source_type` -- mapping from SQL / XSD / JSON type names to a
  generic type,
* :class:`TypeCompatibilityTable` -- the configurable compatibility table with
  a sensible default mirroring the paper's intent (identical types are fully
  compatible, numeric types are highly compatible with each other, string is
  moderately compatible with most types because almost anything can be encoded
  as a string).
"""

from __future__ import annotations

import enum
import functools
import re
from typing import Iterable, Mapping, Optional, Tuple


class GenericType(enum.Enum):
    """Generic data types onto which source-level types are mapped."""

    STRING = "string"
    INTEGER = "integer"
    DECIMAL = "decimal"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    TIME = "time"
    DATETIME = "datetime"
    BINARY = "binary"
    IDENTIFIER = "identifier"
    ENUM = "enum"
    COMPLEX = "complex"
    UNKNOWN = "unknown"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Regular-expression based mapping from source type names to generic types.
#: The first matching pattern wins; patterns are matched case-insensitively
#: against the source type with any parenthesised length/precision stripped.
_SOURCE_TYPE_PATTERNS: Tuple[Tuple[str, GenericType], ...] = (
    # SQL types
    (r"^(var)?char.*$", GenericType.STRING),
    (r"^(n)?(var)?char.*$", GenericType.STRING),
    (r"^(tiny|medium|long)?text$", GenericType.STRING),
    (r"^clob$", GenericType.STRING),
    (r"^(big|small|tiny|medium)?int(eger)?$", GenericType.INTEGER),
    (r"^serial$", GenericType.IDENTIFIER),
    (r"^(numeric|number|decimal|dec|money)$", GenericType.DECIMAL),
    (r"^(float|real|double( precision)?)$", GenericType.FLOAT),
    (r"^bool(ean)?$", GenericType.BOOLEAN),
    (r"^date$", GenericType.DATE),
    (r"^time$", GenericType.TIME),
    (r"^(datetime|timestamp.*)$", GenericType.DATETIME),
    (r"^(blob|binary|varbinary|bytea)$", GenericType.BINARY),
    (r"^uuid$", GenericType.IDENTIFIER),
    (r"^enum$", GenericType.ENUM),
    # XSD types (with or without the xsd:/xs: prefix)
    (r"^(xsd?:)?string$", GenericType.STRING),
    (r"^(xsd?:)?(normalizedstring|token|language|name|ncname)$", GenericType.STRING),
    (r"^(xsd?:)?(anyuri|qname)$", GenericType.STRING),
    (r"^(xsd?:)?(int|integer|long|short|byte)$", GenericType.INTEGER),
    (r"^(xsd?:)?(nonnegativeinteger|positiveinteger|unsignedint|unsignedlong)$",
     GenericType.INTEGER),
    (r"^(xsd?:)?decimal$", GenericType.DECIMAL),
    (r"^(xsd?:)?(float|double)$", GenericType.FLOAT),
    (r"^(xsd?:)?boolean$", GenericType.BOOLEAN),
    (r"^(xsd?:)?date$", GenericType.DATE),
    (r"^(xsd?:)?time$", GenericType.TIME),
    (r"^(xsd?:)?datetime$", GenericType.DATETIME),
    (r"^(xsd?:)?(base64binary|hexbinary)$", GenericType.BINARY),
    (r"^(xsd?:)?id(ref)?s?$", GenericType.IDENTIFIER),
    # JSON-ish names
    (r"^str$", GenericType.STRING),
    (r"^number$", GenericType.DECIMAL),
    (r"^object$", GenericType.COMPLEX),
    (r"^array$", GenericType.COMPLEX),
)

_COMPILED_PATTERNS = tuple(
    (re.compile(pattern, re.IGNORECASE), generic)
    for pattern, generic in _SOURCE_TYPE_PATTERNS
)


def normalise_source_type(source_type: str) -> str:
    """Strip length/precision arguments and whitespace from a source type name.

    ``VARCHAR(200)`` becomes ``varchar``; ``NUMERIC(10, 2)`` becomes ``numeric``.
    """
    stripped = source_type.strip().lower()
    stripped = re.sub(r"\(.*\)$", "", stripped).strip()
    return stripped


#: Distinct source-type strings whose generic type :func:`map_source_type`
#: keeps.  Type strings arrive with uploaded schemas, so the memo is bounded.
SOURCE_TYPE_MEMO_SIZE = 1024


@functools.lru_cache(maxsize=SOURCE_TYPE_MEMO_SIZE)
def map_source_type(source_type: Optional[str]) -> GenericType:
    """Map a source-level type string to its :class:`GenericType`.

    Unknown or empty strings map to :attr:`GenericType.UNKNOWN`; inner/complex
    elements without a type should use :attr:`GenericType.COMPLEX` explicitly.
    Every profile build maps each path's type, so the result is memoised per
    string (up to :data:`SOURCE_TYPE_MEMO_SIZE` of them, least recently used
    first out).

    >>> map_source_type("VARCHAR(200)") is map_source_type("varchar")
    True
    """
    if not source_type:
        return GenericType.UNKNOWN
    normalised = normalise_source_type(source_type)
    if not normalised:
        return GenericType.UNKNOWN
    for pattern, generic in _COMPILED_PATTERNS:
        if pattern.match(normalised):
            return generic
    return GenericType.UNKNOWN


#: Groups of generic types that are mutually highly compatible.
_NUMERIC_TYPES = frozenset({
    GenericType.INTEGER,
    GenericType.DECIMAL,
    GenericType.FLOAT,
})

_TEMPORAL_TYPES = frozenset({
    GenericType.DATE,
    GenericType.TIME,
    GenericType.DATETIME,
})

_TEXT_LIKE = frozenset({GenericType.STRING, GenericType.ENUM, GenericType.IDENTIFIER})


def _default_compatibility(a: GenericType, b: GenericType) -> float:
    """Default pairwise compatibility between two generic types."""
    if a == b:
        return 1.0
    if GenericType.UNKNOWN in (a, b):
        return 0.5
    if a in _NUMERIC_TYPES and b in _NUMERIC_TYPES:
        return 0.8
    if a in _TEMPORAL_TYPES and b in _TEMPORAL_TYPES:
        return 0.8
    if a in _TEXT_LIKE and b in _TEXT_LIKE:
        return 0.7
    # Strings can encode nearly everything, so string vs X keeps a moderate score.
    if GenericType.STRING in (a, b):
        other = b if a == GenericType.STRING else a
        if other in _NUMERIC_TYPES or other in _TEMPORAL_TYPES:
            return 0.4
        if other is GenericType.BOOLEAN:
            return 0.3
        if other is GenericType.COMPLEX:
            return 0.1
        return 0.3
    if GenericType.COMPLEX in (a, b):
        return 0.1
    if a is GenericType.IDENTIFIER and b in _NUMERIC_TYPES:
        return 0.6
    if b is GenericType.IDENTIFIER and a in _NUMERIC_TYPES:
        return 0.6
    return 0.2


class TypeCompatibilityTable:
    """Symmetric table assigning a similarity to every pair of generic types.

    The table starts from :func:`_default_compatibility` and individual pairs can
    be overridden with :meth:`set`.  Lookups accept either :class:`GenericType`
    values or raw source-type strings (which are mapped first).
    """

    def __init__(self, overrides: Optional[Mapping[Tuple[GenericType, GenericType], float]] = None):
        self._overrides: dict[Tuple[GenericType, GenericType], float] = {}
        if overrides:
            for (a, b), value in overrides.items():
                self.set(a, b, value)

    @staticmethod
    def _key(a: GenericType, b: GenericType) -> Tuple[GenericType, GenericType]:
        return (a, b) if a.value <= b.value else (b, a)

    def set(self, a: GenericType, b: GenericType, similarity: float) -> None:
        """Override the compatibility of the pair ``(a, b)`` (symmetric)."""
        if not 0.0 <= similarity <= 1.0:
            raise ValueError(f"similarity must be within [0, 1], got {similarity!r}")
        self._overrides[self._key(a, b)] = float(similarity)

    def copy(self) -> "TypeCompatibilityTable":
        """An independent copy (overrides applied to it do not affect this table)."""
        table = TypeCompatibilityTable()
        table._overrides = dict(self._overrides)
        return table

    def compatibility(self, a: GenericType | str | None, b: GenericType | str | None) -> float:
        """Return the compatibility of two types (generic values or source strings)."""
        generic_a = a if isinstance(a, GenericType) else map_source_type(a)
        generic_b = b if isinstance(b, GenericType) else map_source_type(b)
        override = self._overrides.get(self._key(generic_a, generic_b))
        if override is not None:
            return override
        return _default_compatibility(generic_a, generic_b)

    def items(self) -> Iterable[Tuple[GenericType, GenericType, float]]:
        """Yield ``(type_a, type_b, similarity)`` for every pair of generic types."""
        types = list(GenericType)
        for i, a in enumerate(types):
            for b in types[i:]:
                yield a, b, self.compatibility(a, b)


#: Module-level default table used when a matcher is not given an explicit one.
DEFAULT_TYPE_COMPATIBILITY = TypeCompatibilityTable()
