"""FastText-style subword embeddings.

FastText represents a word as the sum of its character n-gram vectors (plus a
per-word vector for in-vocabulary words), which is what makes it robust to
the abbreviations and concatenations rampant in schema identifiers.  This
module reimplements that representation from scratch:

* :class:`SubwordVocab` -- word vocabulary + hashed character-n-gram ids,
* :class:`SubwordEmbeddings` -- the trained tables and vector/cosine queries.

Training lives in :mod:`repro.embeddings.ppmi`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

#: FNV-1a offset/prime for the n-gram hash (FastText uses the same trick).
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: Share of a known word's vector taken from its own row; the rest is the
#: mean of its n-gram rows.  Training and every store load read this one
#: value, so a loaded table gives the vectors it was trained with.
WORD_ROW_WEIGHT = 0.7


def fnv1a(text: str) -> int:
    """64-bit FNV-1a hash of a string (deterministic across runs)."""
    value = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def character_ngrams_of_word(word: str, min_n: int = 3, max_n: int = 5) -> list[str]:
    """Boundary-marked character n-grams, FastText style (``<word>``)."""
    marked = f"<{word}>"
    grams: list[str] = []
    for n in range(min_n, max_n + 1):
        if len(marked) < n:
            continue
        for i in range(len(marked) - n + 1):
            grams.append(marked[i : i + n])
    return grams


class SubwordVocab:
    """Word ids + hashed n-gram bucket ids over one shared row space.

    Row layout of the input table: rows ``[0, num_words)`` are per-word
    vectors, rows ``[num_words, num_words + num_buckets)`` are hashed n-gram
    buckets, and the final row is an all-zero padding row used to batch
    variable-length subword lists.
    """

    def __init__(
        self,
        corpus: Iterable[Sequence[str]],
        min_count: int = 1,
        num_buckets: int = 1 << 14,
        min_n: int = 3,
        max_n: int = 5,
    ) -> None:
        frequency: Counter = Counter()
        for sentence in corpus:
            frequency.update(sentence)
        self.words: list[str] = sorted(
            word for word, count in frequency.items() if count >= min_count
        )
        self.word_to_id: dict[str, int] = {word: i for i, word in enumerate(self.words)}
        self.frequency: dict[str, int] = {
            word: frequency[word] for word in self.words
        }
        self.num_buckets = num_buckets
        self.min_n = min_n
        self.max_n = max_n
        self._subword_cache: dict[str, list[int]] = {}

    @property
    def num_words(self) -> int:
        return len(self.words)

    @property
    def num_rows(self) -> int:
        """Total rows in the input table, including the trailing padding row."""
        return self.num_words + self.num_buckets + 1

    @property
    def padding_row(self) -> int:
        return self.num_words + self.num_buckets

    def bucket_of(self, ngram: str) -> int:
        return self.num_words + (fnv1a(ngram) % self.num_buckets)

    def subword_ids(self, word: str) -> list[int]:
        """Row ids composing ``word``: its word row (if known) + n-gram buckets.

        Unknown words still get n-gram rows, which is exactly the FastText
        OOV story and why abbreviations like ``qty`` land near ``quantity``.
        """
        cached = self._subword_cache.get(word)
        if cached is not None:
            return cached
        ids: list[int] = []
        word_id = self.word_to_id.get(word)
        if word_id is not None:
            ids.append(word_id)
        ids.extend(self.bucket_of(gram) for gram in character_ngrams_of_word(word, self.min_n, self.max_n))
        if not ids:
            ids = [self.padding_row]
        self._subword_cache[word] = ids
        return ids

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id


class SubwordEmbeddings:
    """Trained subword embedding tables with vector and cosine queries.

    Word vectors blend the per-word row with the mean of the hashed n-gram
    rows (:data:`WORD_ROW_WEIGHT`), then remove the corpus-wide *common
    direction* (mean + top principal component of the in-vocabulary word
    vectors, the "all-but-the-top" post-processing).  On a small synthetic
    corpus the shared character n-grams otherwise dominate and every pair of
    words ends up with cosine ~1, destroying the metric's discriminative
    power.
    """

    def __init__(self, vocab: SubwordVocab, input_table: np.ndarray) -> None:
        if input_table.shape[0] != vocab.num_rows:
            raise ValueError(
                f"table has {input_table.shape[0]} rows, vocab expects {vocab.num_rows}"
            )
        self.vocab = vocab
        self.input_table = input_table.astype(np.float32)
        # Padding row must stay zero so batched means are correct.
        self.input_table[vocab.padding_row].fill(0.0)
        self._word_vector_cache: dict[str, np.ndarray] = {}
        self._common_mean: np.ndarray | None = None
        self._common_direction: np.ndarray | None = None
        self._fit_common_component()

    @property
    def dim(self) -> int:
        return self.input_table.shape[1]

    def _raw_word_vector(self, word: str) -> np.ndarray:
        """Blend of the word row and the mean of the n-gram rows."""
        ids = self.vocab.subword_ids(word)
        word_id = self.vocab.word_to_id.get(word)
        if word_id is not None and len(ids) > 1:
            ngram_mean = self.input_table[ids[1:]].mean(axis=0)
            return (
                WORD_ROW_WEIGHT * self.input_table[word_id]
                + (1.0 - WORD_ROW_WEIGHT) * ngram_mean
            )
        return self.input_table[ids].mean(axis=0)

    def _fit_common_component(self) -> None:
        """Estimate the shared mean + top principal direction to remove."""
        if self.vocab.num_words < 3:
            return
        matrix = np.stack([self._raw_word_vector(word) for word in self.vocab.words])
        self._common_mean = matrix.mean(axis=0)
        centered = matrix - self._common_mean
        # Top singular vector of the centered matrix.
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        self._common_direction = vt[0].astype(np.float32)

    def _remove_common(self, vector: np.ndarray) -> np.ndarray:
        if self._common_mean is None or self._common_direction is None:
            return vector
        centered = vector - self._common_mean
        return centered - (centered @ self._common_direction) * self._common_direction

    def word_vector(self, word: str) -> np.ndarray:
        """Post-processed vector of a word (never raises on OOV)."""
        cached = self._word_vector_cache.get(word)
        if cached is not None:
            return cached
        vector = self._remove_common(self._raw_word_vector(word)).astype(np.float32)
        self._word_vector_cache[word] = vector
        return vector

    def phrase_vector(self, tokens: Sequence[str]) -> np.ndarray:
        """Mean of word vectors; zero vector for an empty phrase."""
        if not tokens:
            return np.zeros(self.dim, dtype=np.float32)
        return np.mean([self.word_vector(token) for token in tokens], axis=0)

    def phrase_matrix(
        self, token_lists: Sequence[Sequence[str]], normalize: bool = True
    ) -> np.ndarray:
        """Stack phrase vectors into a ``(len(token_lists), dim)`` matrix.

        With ``normalize=True`` rows are L2-normalised (zero rows stay zero),
        so ``Q @ T.T`` is directly the cosine-similarity matrix -- the
        operation the dense retriever and the blocking path are built on.
        """
        if not token_lists:
            return np.zeros((0, self.dim), dtype=np.float32)
        matrix = np.stack([self.phrase_vector(tokens) for tokens in token_lists])
        if normalize:
            norms = np.linalg.norm(matrix, axis=1, keepdims=True)
            matrix = matrix / np.where(norms > 0, norms, 1.0)
        return matrix.astype(np.float32)

    @staticmethod
    def cosine(vector_a: np.ndarray, vector_b: np.ndarray) -> float:
        norm_a = float(np.linalg.norm(vector_a))
        norm_b = float(np.linalg.norm(vector_b))
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return float(vector_a @ vector_b / (norm_a * norm_b))

    def similarity(self, tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
        """Cosine similarity of two token phrases, in [-1, 1]."""
        return self.cosine(self.phrase_vector(tokens_a), self.phrase_vector(tokens_b))

    def nearest_words(self, tokens: Sequence[str], k: int = 5) -> list[tuple[str, float]]:
        """The k in-vocabulary words nearest to a phrase (diagnostics)."""
        query = self.phrase_vector(tokens)
        scored = [
            (word, self.cosine(query, self.word_vector(word))) for word in self.vocab.words
        ]
        scored.sort(key=lambda pair: -pair[1])
        return scored[:k]
