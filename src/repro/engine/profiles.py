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

import itertools
import threading
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.combination.matrix import dense_name_ranks
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
    """Unique token tuples of one path set under one extraction mode.

    ``words`` lists the distinct tokens in first-occurrence order over the
    unique tuples: the vocabulary the Name matchers score token pairs over.
    """

    __slots__ = ("keys", "unique_keys", "inverse", "words")

    def __init__(self, keys: Sequence[Tuple[str, ...]]):
        self.keys: Tuple[Tuple[str, ...], ...] = tuple(keys)
        self.unique_keys, self.inverse = unique_index(self.keys)
        self.words: Tuple[str, ...] = tuple(
            dict.fromkeys(itertools.chain.from_iterable(self.unique_keys))
        )


class PathTree:
    """The containment tree of whole schemas' paths, indexed in DFS preorder.

    ``paths`` is ``schema.paths()``, or the ``paths()`` of several schemas
    concatenated (a batched execution's target side): each schema's
    top-level paths open new trees, so the subtree of path ``i`` is the
    preorder window ``i .. end[i] - 1`` either way (the pre/post encoding of
    :mod:`repro.search.intervals`).  ``children`` and ``leaves`` hold every
    path's child paths and leaf paths (empty for a leaf), each set ordered
    by name tuple, ties by position.  ``dense`` ranks the paths by name
    tuple, equal tuples sharing a rank (:func:`dense_name_ranks`, computed
    unless given).
    """

    def __init__(self, paths: Sequence[SchemaPath], dense: Optional[np.ndarray] = None):
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

        self.dense = dense_name_ranks(paths) if dense is None else dense
        # Each path's position in name order, ties by position.
        by_rank = np.argsort(np.argsort(self.dense, kind="stable")).tolist().__getitem__
        self.children = [sorted(group, key=by_rank) for group in children]
        leaves = np.flatnonzero(self.leaf)
        low = np.searchsorted(leaves, np.arange(1, count + 1)).tolist()
        high = np.searchsorted(leaves, self.end).tolist()
        leaves = leaves.tolist()
        self.leaves = [sorted(leaves[start:stop], key=by_rank) for start, stop in zip(low, high)]

    @classmethod
    def concatenated(
        cls, paths: Sequence[SchemaPath], parts: Sequence["PathTree"], dense: np.ndarray
    ) -> "PathTree":
        """``PathTree(paths, dense)`` for ``paths`` the parts' paths concatenated.

        The containment fields are the parts' shifted by their offsets;
        ``dense`` ranks all of ``paths``.
        """
        tree = cls.__new__(cls)
        offsets = np.cumsum([0] + [len(part.paths) for part in parts[:-1]]).tolist()
        tree.paths = paths
        tree.end = np.concatenate([part.end + offset for part, offset in zip(parts, offsets)])
        tree.leaf = np.concatenate([part.leaf for part in parts])
        tree.height = np.concatenate([part.height for part in parts])
        tree.dense = dense
        tree.children = [
            [index + offset for index in group]
            for part, offset in zip(parts, offsets)
            for group in part.children
        ]
        tree.leaves = [
            [index + offset for index in group]
            for part, offset in zip(parts, offsets)
            for group in part.leaves
        ]
        return tree

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

        # The name-token memo may be handed in (a session-shared dict, itself
        # possibly seeded from a persistent store): tokenization then happens
        # once per name per memo lifetime instead of once per profile.
        # Inserts are idempotent (the tokenizer is deterministic), so the
        # benign get/set race under a shared dict cannot produce divergence.
        self._name_tokens: Dict[str, Tuple[str, ...]] = (
            token_memo if token_memo is not None else {}
        )
        self._init_lazy_caches()

    def _init_lazy_caches(self) -> None:
        # Profiles are shared across matchers and (through a session) across
        # threads; the lock makes each lazy derivation below compute-once
        # under concurrency instead of racing to duplicate the work.
        self._lock = threading.Lock()
        self._token_profiles: Dict[str, TokenProfile] = {}
        self._ngram_sets: Dict[Tuple[int, bool], List[FrozenSet[str]]] = {}
        self._soundex_codes: Dict[int, List[str]] = {}
        self._tree: Optional[PathTree] = None
        self._name_ranks: Optional[np.ndarray] = None

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
            profile = TokenProfile(self._token_keys(mode))
            self._token_profiles[mode] = profile
            return profile

    def _token_keys(self, mode: str) -> List[Tuple[str, ...]]:
        """Every path's token tuple under ``mode``."""
        if mode == TOKEN_MODE_NAME:
            return [self._tokens_of_name(path.name) for path in self.paths]
        if mode not in (TOKEN_MODE_PATH, TOKEN_MODE_PATH_WITH_ROOT):
            raise ValueError(f"unknown token mode {mode!r}")
        keys = []
        for path in self.paths:
            names = path.names
            if mode == TOKEN_MODE_PATH:
                names = names[1:] or names
            tokens: List[str] = []
            for name in names:
                tokens.extend(self._tokens_of_name(name))
            keys.append(tuple(tokens))
        return keys

    # -- n-gram sets ----------------------------------------------------------

    def ngram_sets(self, n: int, case_sensitive: bool = False) -> List[FrozenSet[str]]:
        """Character n-gram sets of the unique names (cached per ``n``)."""
        key = (int(n), bool(case_sensitive))
        sets = self._ngram_sets.get(key)
        if sets is None:
            with self._lock:
                sets = self._ngram_sets.get(key)
                if sets is None:
                    sets = self._ngram_sets[key] = self._derive_ngram_sets(*key)
        return sets

    def _derive_ngram_sets(self, n: int, case_sensitive: bool) -> List[FrozenSet[str]]:
        from repro.matchers.string.ngram import ngrams

        words = self.unique_names if case_sensitive else self.lowered_names
        return [ngrams(word, n) for word in words]

    # -- soundex codes ---------------------------------------------------------

    def soundex_codes(self, length: int = 4) -> List[str]:
        """Soundex codes of the unique names (cached per code length)."""
        codes = self._soundex_codes.get(length)
        if codes is None:
            with self._lock:
                codes = self._soundex_codes.get(length)
                if codes is None:
                    codes = self._soundex_codes[length] = self._derive_soundex_codes(length)
        return codes

    def _derive_soundex_codes(self, length: int) -> List[str]:
        from repro.matchers.string.soundex import soundex_code

        return [soundex_code(name, length) for name in self.unique_names]

    # -- name order ------------------------------------------------------------

    def name_ranks(self) -> np.ndarray:
        """The :func:`~repro.combination.matrix.dense_name_ranks` of the paths (cached)."""
        if self._name_ranks is None:
            with self._lock:
                if self._name_ranks is None:
                    self._name_ranks = dense_name_ranks(self.paths)
        return self._name_ranks

    # -- containment structure ---------------------------------------------------

    def path_tree(self) -> PathTree:
        """The preorder index of this path set (Children and Leaves).

        The paths must be whole schemas' ``paths()`` (see :class:`PathTree`).
        """
        if self._tree is None:
            # Outside the lock, which is not re-entrant and name_ranks() takes.
            ranks = self.name_ranks()
            with self._lock:
                if self._tree is None:
                    self._tree = self._build_tree(ranks)
        return self._tree

    def _build_tree(self, ranks: np.ndarray) -> PathTree:
        return PathTree(self.paths, ranks)

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


def _concatenate_unique(
    uniques: Sequence[Sequence[KeyT]], inverses: Sequence[np.ndarray]
) -> Tuple[List[KeyT], np.ndarray, List[Tuple[int, int]]]:
    """:func:`unique_index` of several item lists concatenated, from theirs.

    Each part is given as its ``(unique, inverse)`` pair.  Returns the
    distinct items (first-occurrence order over the concatenation), each
    concatenated item's index, and per distinct item the ``(part, index)``
    it first occurs at.
    """
    position: Dict[KeyT, int] = {}
    origin: List[Tuple[int, int]] = []
    parts_inverse = []
    for part, (unique, inverse) in enumerate(zip(uniques, inverses)):
        local = np.empty(len(unique), dtype=np.intp)
        for index, item in enumerate(unique):
            at = position.get(item)
            if at is None:
                at = position[item] = len(origin)
                origin.append((part, index))
            local[index] = at
        parts_inverse.append(local[inverse])
    return list(position), np.concatenate(parts_inverse), origin


class ForestProfile(PathSetProfile):
    """The profile of several whole schemas' paths, concatenated, composed from theirs.

    A batched execution (:meth:`~repro.session.session.MatchSession.match_many`)
    matches one source against the concatenated paths of many targets.  Every
    derived value of a path -- token tuples, n-gram sets, soundex codes,
    generic types -- is read from its own schema's profile, so a name is
    tokenized, n-grammed and soundexed once however many batches its schema
    joins.  Only the unique indices over the concatenation are rebuilt; the
    :class:`PathTree` joins the parts' cached trees.
    """

    def __init__(self, parts: Sequence[PathSetProfile]):
        self._parts = tuple(parts)
        self.paths = tuple(path for part in self._parts for path in part.paths)
        self.unique_names, self.name_inverse, self._name_origin = _concatenate_unique(
            [part.unique_names for part in self._parts],
            [part.name_inverse for part in self._parts],
        )
        self.lowered_names = self._from_parts([part.lowered_names for part in self._parts])
        self.unique_types, self.type_inverse, _ = _concatenate_unique(
            [part.unique_types for part in self._parts],
            [part.type_inverse for part in self._parts],
        )
        self._init_lazy_caches()

    def _from_parts(self, per_part: Sequence[Sequence[KeyT]]) -> List[KeyT]:
        """Per unique name, its value in the part it first occurs in."""
        return [per_part[part][index] for part, index in self._name_origin]

    def _token_keys(self, mode: str) -> List[Tuple[str, ...]]:
        return [key for part in self._parts for key in part.token_profile(mode).keys]

    def _derive_ngram_sets(self, n: int, case_sensitive: bool) -> List[FrozenSet[str]]:
        return self._from_parts([part.ngram_sets(n, case_sensitive) for part in self._parts])

    def _derive_soundex_codes(self, length: int) -> List[str]:
        return self._from_parts([part.soundex_codes(length) for part in self._parts])

    def _build_tree(self, ranks: np.ndarray) -> PathTree:
        return PathTree.concatenated(self.paths, [part.path_tree() for part in self._parts], ranks)
