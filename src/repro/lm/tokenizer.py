"""BERT-style tokeniser: trie longest-match WordPiece + pair encoding.

Builds the model inputs the paper describes (§IV-C1): for a candidate pair
``(a_s, a_t)`` the input sentence is

    [CLS] a_s.name a_s.desc [SEP] a_t.name a_t.desc [SEP]

with segment ids 0 for the first span (incl. [CLS] and the first [SEP]) and
1 for the second, and an attention mask that is 0 on padding.

WordPiece here is greedy longest-match-first, implemented as a single
left-to-right walk over the vocabulary's prefix tries
(:attr:`repro.lm.vocab.WordPieceVocab.initial_trie`) instead of the classic
O(L^2) shrinking-substring probe; a bounded per-word memo makes repeated
words (schema vocabularies repeat heavily) a dict hit.  The batched
zero-copy encode path lives in :mod:`repro.lm.encode_plane`; the per-pair
functions below remain the sequential reference it is held bit-exact to.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..text.tokenize import name_and_description_tokens
from .vocab import WordPieceVocab, trie_longest_match

#: Default bound on the tokenizer's per-word memo (word -> piece ids).
WORD_CACHE_CAPACITY = 16384


def checks_enabled() -> bool:
    """Whether expensive redundant invariant checks are on (``REPRO_CHECKS=1``)."""
    return bool(os.environ.get("REPRO_CHECKS"))


@dataclass
class EncodedPair:
    """A batch-ready encoded input: ids, segment ids and attention mask.

    ``length`` optionally carries the precomputed number of real
    (non-padding) tokens of an *unbatched* pair, so bucket planning does not
    re-sum ``attention_mask`` on every call; ``None`` falls back to the sum.
    """

    input_ids: np.ndarray
    segment_ids: np.ndarray
    attention_mask: np.ndarray
    length: int | None = None

    def __len__(self) -> int:
        if self.length is not None:
            return self.length
        return int(self.attention_mask.sum())


class WordPieceTokenizer:
    """Greedy longest-match-first WordPiece tokenisation over a vocabulary."""

    def __init__(
        self,
        vocab: WordPieceVocab,
        max_word_length: int = 64,
        word_cache_capacity: int = WORD_CACHE_CAPACITY,
    ) -> None:
        self.vocab = vocab
        self.max_word_length = max_word_length
        #: Bounded memo: word -> tuple of piece ids (LRU eviction).
        self._word_ids: OrderedDict[str, tuple[int, ...]] = OrderedDict()
        self._word_cache_capacity = max(0, int(word_cache_capacity))
        #: Memo hits/misses, folded into encode-plane stats when wired.
        self.word_cache_hits = 0
        self.word_cache_misses = 0

    # -- word tokenisation -------------------------------------------------------

    def _word_piece_ids(self, word: str) -> tuple[int, ...]:
        """Piece ids of one word via the trie walk (uncached reference)."""
        vocab = self.vocab
        if len(word) > self.max_word_length:
            return (vocab.unk_id,)
        whole = vocab.token_to_id.get(word)
        if whole is not None:
            return (whole,)
        initial = vocab.initial_trie
        continuation = vocab.continuation_trie
        ids: list[int] = []
        start = 0
        length = len(word)
        while start < length:
            root = initial if start == 0 else continuation
            end, piece_id = trie_longest_match(root, word, start)
            if end < 0:
                return (vocab.unk_id,)
            ids.append(piece_id)
            start = end
        return tuple(ids)

    def word_ids(self, word: str) -> tuple[int, ...]:
        """Memoised piece ids of one word."""
        if not word:
            return ()
        cached = self._word_ids.get(word)
        if cached is not None:
            self.word_cache_hits += 1
            self._word_ids.move_to_end(word)
            return cached
        self.word_cache_misses += 1
        ids = self._word_piece_ids(word)
        self._word_ids[word] = ids
        if len(self._word_ids) > self._word_cache_capacity:
            self._word_ids.popitem(last=False)
        return ids

    def tokenize_word(self, word: str) -> list[str]:
        """Split one word into pieces; [UNK] if any character is unknown."""
        tokens = self.vocab.tokens
        return [tokens[piece_id] for piece_id in self.word_ids(word)]

    def tokenize(self, words: list[str]) -> list[str]:
        """WordPiece-tokenise a list of words."""
        tokens = self.vocab.tokens
        return [tokens[piece_id] for word in words for piece_id in self.word_ids(word)]

    def ids(self, words: list[str]) -> list[int]:
        return [piece_id for word in words for piece_id in self.word_ids(word)]

    def ids_array(self, words: Sequence[str]) -> np.ndarray:
        """Piece ids of a word sequence as an int64 array."""
        return np.asarray(
            [piece_id for word in words for piece_id in self.word_ids(word)],
            dtype=np.int64,
        )

    # -- pair encoding ---------------------------------------------------------

    def encode_pair(
        self,
        words_a: list[str],
        words_b: list[str],
        max_length: int = 64,
    ) -> EncodedPair:
        """Encode ``[CLS] A [SEP] B [SEP]`` with padding/truncation.

        When the pair exceeds ``max_length`` the longer span is truncated
        first (the standard BERT pair-truncation rule), preserving as much of
        both names as possible.
        """
        ids_a = self.ids(words_a)
        ids_b = self.ids(words_b)
        budget = max_length - 3  # [CLS] + 2x[SEP]
        while len(ids_a) + len(ids_b) > budget:
            if len(ids_a) >= len(ids_b):
                ids_a.pop()
            else:
                ids_b.pop()

        input_ids = [self.vocab.cls_id] + ids_a + [self.vocab.sep_id] + ids_b + [self.vocab.sep_id]
        segment_ids = [0] * (len(ids_a) + 2) + [1] * (len(ids_b) + 1)
        attention = [1] * len(input_ids)
        real = len(input_ids)
        padding = max_length - real
        input_ids.extend([self.vocab.pad_id] * padding)
        segment_ids.extend([0] * padding)
        attention.extend([0] * padding)
        return EncodedPair(
            input_ids=np.asarray(input_ids, dtype=np.int64),
            segment_ids=np.asarray(segment_ids, dtype=np.int64),
            attention_mask=np.asarray(attention, dtype=np.int64),
            length=real,
        )

    def encode_single(self, words: list[str], max_length: int = 64) -> EncodedPair:
        """Encode a single span as ``[CLS] A [SEP]`` (MLM batch reference)."""
        ids = self.ids(words)[: max_length - 2]
        input_ids = [self.vocab.cls_id] + ids + [self.vocab.sep_id]
        segment_ids = [0] * len(input_ids)
        attention = [1] * len(input_ids)
        real = len(input_ids)
        padding = max_length - real
        input_ids.extend([self.vocab.pad_id] * padding)
        segment_ids.extend([0] * padding)
        attention.extend([0] * padding)
        return EncodedPair(
            input_ids=np.asarray(input_ids, dtype=np.int64),
            segment_ids=np.asarray(segment_ids, dtype=np.int64),
            attention_mask=np.asarray(attention, dtype=np.int64),
            length=real,
        )

    def encode_attribute_pair(
        self,
        name_a: str,
        desc_a: str,
        name_b: str,
        desc_b: str,
        max_length: int = 64,
    ) -> EncodedPair:
        """Encode the paper's candidate-pair sentence from raw attribute fields."""
        return self.encode_pair(
            name_and_description_tokens(name_a, desc_a),
            name_and_description_tokens(name_b, desc_b),
            max_length=max_length,
        )


def stack_encoded(pairs: list[EncodedPair]) -> EncodedPair:
    """Stack individually encoded pairs into one batched :class:`EncodedPair`."""
    if not pairs:
        raise ValueError("cannot stack an empty list of encoded pairs")
    return EncodedPair(
        input_ids=np.stack([pair.input_ids for pair in pairs]),
        segment_ids=np.stack([pair.segment_ids for pair in pairs]),
        attention_mask=np.stack([pair.attention_mask for pair in pairs]),
    )


def encoded_length(pair: EncodedPair) -> int:
    """Number of real (non-padding) tokens of one unbatched encoded pair.

    Served from the pair's precomputed ``length`` when present (the encode
    plane and both ``encode_*`` constructors set it), falling back to an
    ``attention_mask`` sum.  ``REPRO_CHECKS=1`` re-derives the sum and
    asserts the two agree.
    """
    if pair.input_ids.ndim != 1:
        raise ValueError("encoded_length expects an unbatched EncodedPair")
    if pair.length is not None:
        if checks_enabled():
            derived = int(pair.attention_mask.sum())
            if derived != pair.length:
                raise AssertionError(
                    f"EncodedPair.length={pair.length} disagrees with "
                    f"attention_mask.sum()={derived}"
                )
        return pair.length
    return int(pair.attention_mask.sum())


def trim_encoded(batch: EncodedPair, length: int | None = None) -> EncodedPair:
    """Drop trailing all-padding columns from a batched :class:`EncodedPair`.

    Attention masks zero padding keys out of every attention softmax and out
    of the segment pooling, so removing padding columns leaves the scores of
    every row unchanged -- this is what makes length-bucketed micro-batching
    (``repro.engine``) numerically equivalent to the monolithic batch.

    ``length`` pads the trim point up (e.g. to a bucket boundary); it must
    cover the longest row.  ``None`` trims to the longest row exactly.
    """
    if batch.input_ids.ndim != 2:
        raise ValueError("trim_encoded expects a batched EncodedPair; use stack_encoded")
    longest = int(batch.attention_mask.sum(axis=1).max()) if batch.input_ids.size else 0
    width = batch.input_ids.shape[1]
    if length is None:
        length = longest
    if length < longest:
        raise ValueError(f"trim length {length} drops real tokens (longest row: {longest})")
    length = min(length, width)
    return EncodedPair(
        input_ids=batch.input_ids[:, :length],
        segment_ids=batch.segment_ids[:, :length],
        attention_mask=batch.attention_mask[:, :length],
    )
