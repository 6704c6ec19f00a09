"""Myers' bit-parallel Levenshtein kernels (scalar and numpy-vectorized).

Myers' 1999 algorithm replaces the classic dynamic program's row sweep with
bit-vector arithmetic: the column deltas of the DP matrix are encoded as two
bit vectors (``VP`` -- positions where the column value increases going down,
``VN`` -- where it decreases), and one round of word-level logic advances the
whole column by one *text* character.  For a pattern of ``m`` code points the
per-character cost drops from ``O(m)`` cell updates to ``O(m / 64)`` word
operations.

Two kernels share that recurrence:

* :func:`myers_distance` -- the scalar kernel.  Python integers are arbitrary
  precision, so the entire pattern lives in **one** bit vector regardless of
  length; no multi-word ladder is needed.
* :func:`distances_into` -- the batch kernel.  Pairs are grouped into blocks
  whose patterns need the same number of 64-bit words, each block's
  per-character pattern bitmasks (``Peq``) are packed into a
  ``(batch, alphabet, words)`` uint64 table, and the VP/VN recurrence is
  advanced one text character per step with every operation vectorized across
  the batch.  Patterns longer than 64 code points use the blockwise multi-word
  ladder of Hyyro: words communicate only through the +1/-1 horizontal carry
  (``hin``/``hout``), never through addition carries, so each word update is
  an independent vectorized expression.

The batch setup is vectorized too: code points come from one
``str.encode("utf-32-le")`` pass over the joined block strings (no
per-character ``ord()``), and the block alphabet is remapped with a presence
lookup table over ``[0, max_code]`` instead of a sort-based ``np.unique``.

Correctness of the padding scheme: every bit above position ``m - 1`` of a
pair's last word holds garbage (``VP`` starts all-ones there and ``Peq``
never sets those bits).  That is safe because information in the recurrence
flows exclusively from low bits to high bits -- through left shifts and the
carry of ``(Eq & VP) + VP`` -- so the garbage can never reach the score bit
at position ``(m - 1) % 64``.  The fuzz suites in
``tests/test_levenshtein_batch.py`` pin both kernels to the classic two-row
DP (zero tolerance) on arbitrary unicode, including multi-word and
astral-plane inputs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Bits per machine word of the batch kernel.
WORD_BITS = 64

#: Longest pattern (shorter string of a pair) the batch kernel accepts, in
#: 64-bit words.  Figure-8-scale schema names are 1 word; 8 words (512 code
#: points) covers any plausible element name, and longer degenerate inputs
#: take the scalar kernel upstream.
MAX_PATTERN_WORDS = 8

#: The same cap in code points.
MAX_PATTERN_LENGTH = WORD_BITS * MAX_PATTERN_WORDS

#: Peak size of one block's ``Peq`` table, in bytes.  Blocks beyond the
#: budget are split into chunks.
_PEQ_BUDGET_BYTES = 32 * 2**20

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_TOP_SHIFT = np.uint64(WORD_BITS - 1)


def myers_distance(a: str, b: str) -> int:
    """The exact Levenshtein distance via the scalar bit-vector recurrence.

    The shorter string becomes the pattern; Python's arbitrary-precision
    integers hold its whole bit vector, so there is no length limit.

    Examples
    --------
    >>> myers_distance("kitten", "sitting")
    3
    >>> myers_distance("", "abc")
    3
    """
    if len(a) < len(b):
        pattern, text = a, b
    else:
        pattern, text = b, a
    m = len(pattern)
    if m == 0:
        return len(text)
    peq: Dict[str, int] = {}
    bit = 1
    for char in pattern:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = (1 << m) - 1
    last = 1 << (m - 1)
    vp = mask
    vn = 0
    score = m
    for char in text:
        eq = peq.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | (~(xh | vp) & mask)
        mh = vp & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        vp = mh | (~(xv | ph) & mask)
        vn = ph & xv
    return score


def distances_into(
    pairs: Sequence[Tuple[str, str]],
    indices: Sequence[int],
    out: np.ndarray,
) -> None:
    """Exact distances of the indexed pairs, written into ``out``.

    Every indexed pair must have two non-empty, non-equal strings whose
    shorter side is at most :data:`MAX_PATTERN_LENGTH` code points (the
    dispatcher in :mod:`repro.matchers.string.edit_distance` guarantees
    this).  Pairs are grouped by pattern word count and processed in chunks
    bounded by the ``Peq`` memory budget.
    """
    by_words: Dict[int, List[int]] = {}
    for index in indices:
        a, b = pairs[index]
        words = (min(len(a), len(b)) + WORD_BITS - 1) // WORD_BITS
        by_words.setdefault(words, []).append(index)
    for words, group in by_words.items():
        _group(pairs, group, words, out)


def _group(
    pairs: Sequence[Tuple[str, str]],
    indices: List[int],
    words: int,
    out: np.ndarray,
) -> None:
    """Chunk and advance one group of pairs sharing a pattern word count."""
    patterns: List[str] = []
    texts: List[str] = []
    for index in indices:
        a, b = pairs[index]
        if len(a) <= len(b):
            patterns.append(a)
            texts.append(b)
        else:
            patterns.append(b)
            texts.append(a)
    count = len(indices)
    pattern_lengths = np.fromiter(
        (len(s) for s in patterns), dtype=np.int64, count=count
    )
    text_lengths = np.fromiter((len(s) for s in texts), dtype=np.int64, count=count)

    # Sort by text length so each chunk advances over a uniform step count
    # (the step loop of a chunk runs to the chunk's *longest* text).
    order = np.argsort(text_lengths, kind="stable")
    patterns = [patterns[i] for i in order]
    texts = [texts[i] for i in order]
    pattern_lengths = pattern_lengths[order]
    text_lengths = text_lengths[order]
    index_array = np.asarray(indices, dtype=np.intp)[order]

    # One C-level pass turns every code point into a uint32: no per-character
    # ord().  UTF-32-LE is exactly the code-point sequence.
    codes = np.frombuffer(
        ("".join(patterns) + "".join(texts)).encode("utf-32-le"), dtype=np.uint32
    )
    # Remap code points to a compact block alphabet via a presence table over
    # [0, max_code]; ``sentinel`` pads the id matrices and maps to an
    # all-zero Peq row.  Ids are shared across pairs, which is safe because
    # Peq is per-pair.
    max_code = int(codes.max())
    present = np.zeros(max_code + 2, dtype=bool)
    present[codes] = True
    present[max_code + 1] = True  # the padding sentinel
    id_table = np.cumsum(present) - 1
    alphabet_size = int(id_table[-1]) + 1
    ids = id_table[codes]
    pad_id = alphabet_size - 1
    pattern_chars = int(pattern_lengths.sum())
    pattern_ids_flat = ids[:pattern_chars]
    text_ids_flat = ids[pattern_chars:]
    pattern_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(pattern_lengths, out=pattern_offsets[1:])
    text_offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(text_lengths, out=text_offsets[1:])

    chunk = max(64, _PEQ_BUDGET_BYTES // (alphabet_size * words * 8))
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        _block(
            pattern_ids_flat[pattern_offsets[start] : pattern_offsets[stop]],
            text_ids_flat[text_offsets[start] : text_offsets[stop]],
            pattern_lengths[start:stop],
            text_lengths[start:stop],
            alphabet_size,
            pad_id,
            words,
            index_array[start:stop],
            out,
        )


def _block(
    pattern_ids_flat: np.ndarray,
    text_ids_flat: np.ndarray,
    pattern_lengths: np.ndarray,
    text_lengths: np.ndarray,
    alphabet_size: int,
    pad_id: int,
    words: int,
    index_array: np.ndarray,
    out: np.ndarray,
) -> None:
    """Advance one chunk of pairs sharing a pattern word count."""
    batch = len(index_array)
    m_max = int(pattern_lengths.max())
    n_max = int(text_lengths.max())

    # Padded id matrices, scattered from the flat id runs (boolean masks
    # assign in row-major order, matching the concatenation order).
    positions = np.arange(max(m_max, n_max), dtype=np.int64)
    pattern_mask = positions[:m_max][None, :] < pattern_lengths[:, None]
    pattern_ids = np.full((batch, m_max), pad_id, dtype=np.int64)
    pattern_ids[pattern_mask] = pattern_ids_flat
    text_mask = positions[:n_max][None, :] < text_lengths[:, None]
    text_ids = np.full((batch, n_max), pad_id, dtype=np.int64)
    text_ids[text_mask] = text_ids_flat
    # Transposed C-order so each step reads a contiguous row.
    text_ids_steps = np.ascontiguousarray(text_ids.T)

    # Peq[pair, char_id, word]: bitmask of pattern positions holding char_id.
    peq = np.zeros((batch, alphabet_size, words), dtype=np.uint64)
    rows, cols = np.nonzero(pattern_mask)
    word_of = cols // WORD_BITS
    bit_of = (cols % WORD_BITS).astype(np.uint64)
    flat_index = (rows * alphabet_size + pattern_ids[rows, cols]) * words + word_of
    np.bitwise_or.at(peq.reshape(-1), flat_index, np.left_shift(_ONE, bit_of))

    finish_map: Dict[int, List[int]] = {}
    for row, length in enumerate(text_lengths.tolist()):
        finish_map.setdefault(length, []).append(row)
    score = pattern_lengths.copy()
    score_bit = np.left_shift(
        _ONE, ((pattern_lengths - 1) % WORD_BITS).astype(np.uint64)
    )
    gather_base = np.arange(batch, dtype=np.intp) * alphabet_size
    if words == 1:
        _advance_single_word(
            peq, text_ids_steps, gather_base, score, score_bit, finish_map,
            index_array, out, n_max,
        )
    else:
        _advance_multi_word(
            peq, text_ids_steps, gather_base, score, score_bit, finish_map,
            index_array, out, n_max, words,
        )


def _advance_single_word(
    peq: np.ndarray,
    text_ids_steps: np.ndarray,
    gather_base: np.ndarray,
    score: np.ndarray,
    score_bit: np.ndarray,
    finish_map: Dict[int, List[int]],
    index_array: np.ndarray,
    out: np.ndarray,
    n_max: int,
) -> None:
    """The one-word fast path (patterns of at most 64 code points)."""
    batch = score.shape[0]
    peq_flat = peq.reshape(-1)
    vp = np.full(batch, _FULL, dtype=np.uint64)
    vn = np.zeros(batch, dtype=np.uint64)
    for step in range(n_max):
        eq = peq_flat[gather_base + text_ids_steps[step]]
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | ~(xh | vp)
        mh = vp & xh
        score += (ph & score_bit) != _ZERO
        score -= (mh & score_bit) != _ZERO
        ph = np.left_shift(ph, _ONE) | _ONE
        mh = np.left_shift(mh, _ONE)
        vp = mh | ~(xv | ph)
        vn = ph & xv
        finished = finish_map.get(step + 1)
        if finished:
            out[index_array[finished]] = score[finished]


def _advance_multi_word(
    peq: np.ndarray,
    text_ids_steps: np.ndarray,
    gather_base: np.ndarray,
    score: np.ndarray,
    score_bit: np.ndarray,
    finish_map: Dict[int, List[int]],
    index_array: np.ndarray,
    out: np.ndarray,
    n_max: int,
    words: int,
) -> None:
    """The blockwise ladder: words linked only by the +-1 horizontal carry."""
    batch = score.shape[0]
    peq2 = peq.reshape(batch * peq.shape[1], words)
    vp = np.full((batch, words), _FULL, dtype=np.uint64)
    vn = np.zeros((batch, words), dtype=np.uint64)
    last = words - 1
    for step in range(n_max):
        eq_all = peq2[gather_base + text_ids_steps[step]]
        ph_carry = np.ones(batch, dtype=np.uint64)  # row-0 boundary: hin = +1
        mh_carry = np.zeros(batch, dtype=np.uint64)
        for k in range(words):
            vpk = vp[:, k]
            vnk = vn[:, k]
            eq = eq_all[:, k]
            xv = eq | vnk
            eq = eq | mh_carry  # a -1 carry entering the word acts as a match
            xh = (((eq & vpk) + vpk) ^ vpk) | eq
            ph = vnk | ~(xh | vpk)
            mh = vpk & xh
            if k == last:
                score += (ph & score_bit) != _ZERO
                score -= (mh & score_bit) != _ZERO
            ph_out = np.right_shift(ph, _TOP_SHIFT)
            mh_out = np.right_shift(mh, _TOP_SHIFT)
            ph = np.left_shift(ph, _ONE) | ph_carry
            mh = np.left_shift(mh, _ONE) | mh_carry
            vp[:, k] = mh | ~(xv | ph)
            vn[:, k] = ph & xv
            ph_carry = ph_out
            mh_carry = mh_out
        finished = finish_map.get(step + 1)
        if finished:
            out[index_array[finished]] = score[finished]
