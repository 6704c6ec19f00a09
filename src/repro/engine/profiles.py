"""Shared path-profile caches for the batch match engine.

Every matcher of the library repeatedly derives the same per-path structure:
the Name matchers tokenize element names, the n-gram matchers lower-case names
and build gram sets, Soundex derives phonetic codes, DataType maps source
types to generic classes.  In the pairwise execution model each matcher
re-derives this structure for every cell of its ``m x n`` matrix (or at best
per unique cache key, but still once *per matcher*).

A :class:`PathSetProfile` computes all of it exactly once per path set per
match operation and is cached on the
:class:`~repro.matchers.base.MatchContext` (see ``MatchContext.profiles``), so
all matcher layers of one operation share it.  Besides the derived values the
profile owns the *unique-key machinery*: for every representation (names,
token lists, generic types) it stores the list of distinct values plus an
inverse index mapping each path to its value, which is what lets batch
matchers evaluate unique keys only and scatter results with numpy fancy
indexing (:meth:`~repro.combination.matrix.SimilarityMatrix.from_unique`).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.linguistic.tokenizer import NameTokenizer
from repro.model.datatypes import GenericType
from repro.model.path import SchemaPath

KeyT = TypeVar("KeyT", bound=Hashable)

#: Token-extraction modes for the hybrid name matchers: the leaf name only
#: (``Name``), the hierarchical name without the schema root (``NamePath``
#: default), or the full hierarchical name (``NamePath`` with root).
TOKEN_MODE_NAME = "name"
TOKEN_MODE_PATH = "path"
TOKEN_MODE_PATH_WITH_ROOT = "path_with_root"


def unique_index(items: Sequence[KeyT]) -> Tuple[List[KeyT], np.ndarray]:
    """The distinct items (first-occurrence order) and each item's index.

    Returns ``(unique, inverse)`` with ``unique[inverse[i]] == items[i]`` --
    the building block of the scatter step of every batch matcher.
    """
    index: Dict[KeyT, int] = {}
    inverse = np.empty(len(items), dtype=np.intp)
    unique: List[KeyT] = []
    for i, item in enumerate(items):
        position = index.get(item)
        if position is None:
            position = len(unique)
            index[item] = position
            unique.append(item)
        inverse[i] = position
    return unique, inverse


class TokenProfile:
    """Unique token tuples of one path set under one extraction mode."""

    __slots__ = ("keys", "unique_keys", "inverse")

    def __init__(self, keys: Sequence[Tuple[str, ...]]):
        self.keys: Tuple[Tuple[str, ...], ...] = tuple(keys)
        self.unique_keys, self.inverse = unique_index(self.keys)


class PathTree:
    """The containment tree of a schema's paths, indexed in DFS preorder.

    ``paths`` is ``schema.paths()``, so the subtree of path ``i`` is the
    preorder window ``i .. end[i] - 1`` (the pre/post encoding of
    :mod:`repro.search.intervals`).  ``children`` and ``leaves`` hold every
    path's child paths and leaf paths (empty for a leaf), each set ordered
    by name tuple, ties by position.  ``dense`` ranks the paths by name
    tuple, equal tuples sharing a rank.
    """

    def __init__(self, paths: Sequence[SchemaPath]):
        self.paths = paths
        count = len(paths)
        depths = [len(path) for path in paths]
        parent = [-1] * count
        end = [count] * count
        chain: List[int] = []
        for index, depth in enumerate(depths):
            while chain and depths[chain[-1]] >= depth:
                end[chain.pop()] = index
            parent[index] = chain[-1] if chain else -1
            chain.append(index)
        self.end = np.array(end, dtype=np.intp)
        self.leaf = self.end == np.arange(1, count + 1)
        height = [0] * count
        children: List[List[int]] = [[] for _ in range(count)]
        for index in range(count - 1, -1, -1):
            up = parent[index]
            if up >= 0:
                children[up].append(index)
                height[up] = max(height[up], height[index] + 1)
        self.height = np.array(height, dtype=np.intp)

        names = [path.names for path in paths]
        order = sorted(range(count), key=names.__getitem__)
        rank = [0] * count
        dense = [0] * count
        previous, current = None, -1
        for position, index in enumerate(order):
            rank[index] = position
            if names[index] != previous:
                previous, current = names[index], current + 1
            dense[index] = current
        self.dense = np.array(dense, dtype=np.intp)

        by_rank = rank.__getitem__
        self.children = [sorted(group, key=by_rank) for group in children]
        leaves = np.flatnonzero(self.leaf)
        low = np.searchsorted(leaves, np.arange(1, count + 1)).tolist()
        high = np.searchsorted(leaves, self.end).tolist()
        leaves = leaves.tolist()
        self.leaves = [sorted(leaves[start:stop], key=by_rank) for start, stop in zip(low, high)]

    def index_of(self, paths: Sequence[SchemaPath]) -> np.ndarray:
        """Positions of ``paths`` in the preorder."""
        if paths is self.paths or tuple(paths) == self.paths:
            return np.arange(len(self.paths))
        position = {path: index for index, path in enumerate(self.paths)}
        return np.array([position[path] for path in paths], dtype=np.intp)

    def with_descendants(self, nodes: np.ndarray) -> np.ndarray:
        """``nodes`` plus every path beneath them, in preorder."""
        cover = np.zeros(len(self.paths) + 1, dtype=np.intp)
        np.add.at(cover, nodes, 1)
        np.add.at(cover, self.end[nodes], -1)
        return np.flatnonzero(np.cumsum(cover[:-1]))


class PathSetProfile:
    """Everything matchers repeatedly derive per path, computed once.

    The profile is built for one ordered path set (one side of a match
    operation) and a tokenizer.  All derived representations are exposed both
    per unique value and with the inverse index that maps paths back to them.
    """

    def __init__(
        self,
        paths: Sequence[SchemaPath],
        tokenizer: NameTokenizer,
        token_memo: Optional[Dict[str, Tuple[str, ...]]] = None,
    ):
        self.paths: Tuple[SchemaPath, ...] = tuple(paths)
        self._tokenizer = tokenizer

        # -- leaf names (the representation of all simple string matchers) --
        names = [path.name for path in self.paths]
        self.unique_names, self.name_inverse = unique_index(names)
        self.lowered_names: List[str] = [name.lower() for name in self.unique_names]

        # -- generic data types (DataType / TypeName matchers) --
        types = [path.generic_type for path in self.paths]
        self.unique_types, self.type_inverse = unique_index(types)

        # -- lazy caches --
        # Profiles are shared across matchers and (through a session) across
        # threads; the lock makes each lazy derivation below compute-once
        # under concurrency instead of racing to duplicate the work.
        self._lock = threading.Lock()
        # The name-token memo may be handed in (a session-shared dict, itself
        # possibly seeded from a persistent store): tokenization then happens
        # once per name per memo lifetime instead of once per profile.
        # Inserts are idempotent (the tokenizer is deterministic), so the
        # benign get/set race under a shared dict cannot produce divergence.
        self._name_tokens: Dict[str, Tuple[str, ...]] = (
            token_memo if token_memo is not None else {}
        )
        self._token_profiles: Dict[str, TokenProfile] = {}
        self._ngram_sets: Dict[Tuple[int, bool], List[FrozenSet[str]]] = {}
        self._soundex_codes: Dict[int, List[str]] = {}
        self._tree: Optional[PathTree] = None

    # -- token lists ---------------------------------------------------------

    def _tokens_of_name(self, name: str) -> Tuple[str, ...]:
        """Tokenize one raw element name, memoised across all paths."""
        tokens = self._name_tokens.get(name)
        if tokens is None:
            tokens = self._tokenizer.tokenize(name)
            self._name_tokens[name] = tokens
        return tokens

    def token_profile(self, mode: str = TOKEN_MODE_NAME) -> TokenProfile:
        """The (cached) token profile of this path set under ``mode``.

        Path modes concatenate the memoised per-element token lists, so a
        shared element name is tokenized once no matter how many paths
        traverse it.
        """
        profile = self._token_profiles.get(mode)
        if profile is not None:
            return profile
        with self._lock:
            profile = self._token_profiles.get(mode)
            if profile is not None:
                return profile
            if mode == TOKEN_MODE_NAME:
                keys = [self._tokens_of_name(path.name) for path in self.paths]
            elif mode in (TOKEN_MODE_PATH, TOKEN_MODE_PATH_WITH_ROOT):
                keys = []
                for path in self.paths:
                    names = path.names
                    if mode == TOKEN_MODE_PATH:
                        names = names[1:] or names
                    tokens: List[str] = []
                    for name in names:
                        tokens.extend(self._tokens_of_name(name))
                    keys.append(tuple(tokens))
            else:
                raise ValueError(f"unknown token mode {mode!r}")
            profile = TokenProfile(keys)
            self._token_profiles[mode] = profile
            return profile

    # -- n-gram sets ----------------------------------------------------------

    def ngram_sets(self, n: int, case_sensitive: bool = False) -> List[FrozenSet[str]]:
        """Character n-gram sets of the unique names (cached per ``n``)."""
        key = (int(n), bool(case_sensitive))
        sets = self._ngram_sets.get(key)
        if sets is None:
            from repro.matchers.string.ngram import ngrams

            with self._lock:
                sets = self._ngram_sets.get(key)
                if sets is None:
                    words = self.unique_names if case_sensitive else self.lowered_names
                    sets = [ngrams(word, n) for word in words]
                    self._ngram_sets[key] = sets
        return sets

    # -- soundex codes ---------------------------------------------------------

    def soundex_codes(self, length: int = 4) -> List[str]:
        """Soundex codes of the unique names (cached per code length)."""
        codes = self._soundex_codes.get(length)
        if codes is None:
            from repro.matchers.string.soundex import soundex_code

            with self._lock:
                codes = self._soundex_codes.get(length)
                if codes is None:
                    codes = [soundex_code(name, length) for name in self.unique_names]
                    self._soundex_codes[length] = codes
        return codes

    # -- containment structure ---------------------------------------------------

    def path_tree(self) -> PathTree:
        """The preorder index of this path set (Children and Leaves).

        The paths must be a whole schema's ``paths()``.
        """
        if self._tree is None:
            with self._lock:
                if self._tree is None:
                    self._tree = PathTree(self.paths)
        return self._tree

    # -- misc ------------------------------------------------------------------

    def generic_types(self) -> List[GenericType]:
        """The distinct generic data types appearing in this path set."""
        return list(self.unique_types)

    def __len__(self) -> int:
        return len(self.paths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PathSetProfile(paths={len(self.paths)}, "
            f"unique_names={len(self.unique_names)})"
        )
