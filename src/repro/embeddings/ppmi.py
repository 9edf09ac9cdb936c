"""PPMI + truncated-SVD word embeddings (the small-corpus workhorse).

Skip-gram with negative sampling needs web-scale data to produce reliable
synonym geometry; on a synthetic corpus of a few thousand sentences the
count-based classic -- positive pointwise mutual information with context
distribution smoothing, factorised by a truncated SVD -- is far more sample
efficient (Levy & Goldberg's "don't count, predict" rebuttal in miniature).
This module therefore provides the reproduction's one embedding trainer.

Subword handling: each hashed n-gram bucket receives the average vector of
the in-vocabulary words containing it, so out-of-vocabulary words (unseen
abbreviations, concatenations) are composed from n-gram rows exactly as in
:class:`~repro.embeddings.subword.SubwordEmbeddings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import subword
from .subword import SubwordEmbeddings, SubwordVocab

if TYPE_CHECKING:  # scipy loads only in the functions that build matrices
    from scipy import sparse


#: Co-occurrence window (tokens on each side, weighted 1 / distance).
WINDOW = 4
#: Context-distribution smoothing exponent.
SMOOTHING = 0.75
#: Subtracted from PMI before clipping (log k).
SHIFT = 0.0
#: Minimum corpus frequency of a vocabulary word.
MIN_COUNT = 1
#: Seed of the SVD's start vector.
SEED = 0


@dataclass(frozen=True)
class PpmiConfig:
    """Hyper-parameters of the PPMI-SVD trainer."""

    dim: int = 48

    def describe(self) -> dict:
        """Every value training reads, for the artefact content key."""
        return {
            "dim": self.dim,
            "window": WINDOW,
            "smoothing": SMOOTHING,
            "shift": SHIFT,
            "min_count": MIN_COUNT,
            # Read from the module that applies it, so a patched weight
            # changes the key too.
            "word_row_weight": subword.WORD_ROW_WEIGHT,
            "seed": SEED,
        }


def _cooccurrence_counts(
    corpus: Sequence[Sequence[str]],
    vocab: SubwordVocab,
    window: int,
) -> sparse.csr_matrix:
    """Distance-weighted co-occurrence counts over the corpus."""
    from scipy import sparse

    word_to_id = vocab.word_to_id
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    for sentence in corpus:
        ids = [word_to_id[token] for token in sentence if token in word_to_id]
        for i, center in enumerate(ids):
            hi = min(len(ids), i + window + 1)
            for j in range(i + 1, hi):
                weight = 1.0 / (j - i)
                rows.append(center)
                cols.append(ids[j])
                values.append(weight)
                rows.append(ids[j])
                cols.append(center)
                values.append(weight)
    matrix = sparse.csr_matrix(
        (values, (rows, cols)), shape=(vocab.num_words, vocab.num_words)
    )
    matrix.sum_duplicates()
    return matrix


def _ppmi(matrix: sparse.csr_matrix, smoothing: float, shift: float) -> sparse.csr_matrix:
    """Positive PMI with context-distribution smoothing."""
    from scipy import sparse

    total = matrix.sum()
    if total == 0:
        raise ValueError("empty co-occurrence matrix")
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    col_sums = np.asarray(matrix.sum(axis=0)).ravel() ** smoothing
    col_sums = col_sums / col_sums.sum() * total  # renormalise to count scale

    coo = matrix.tocoo()
    with np.errstate(divide="ignore"):
        pmi = np.log(coo.data * total / (row_sums[coo.row] * col_sums[coo.col]))
    pmi -= shift
    keep = pmi > 0
    return sparse.csr_matrix(
        (pmi[keep], (coo.row[keep], coo.col[keep])), shape=matrix.shape
    )


def train_ppmi_embeddings(
    corpus: Sequence[Sequence[str]],
    config: PpmiConfig = PpmiConfig(),
    vocab: SubwordVocab | None = None,
) -> SubwordEmbeddings:
    """Train PPMI-SVD embeddings and package them as subword embeddings."""
    from scipy.sparse.linalg import svds

    if vocab is None:
        vocab = SubwordVocab(corpus, min_count=MIN_COUNT)
    if vocab.num_words < 3:
        raise ValueError("corpus too small for PPMI embeddings")

    counts = _cooccurrence_counts(corpus, vocab, WINDOW)
    ppmi = _ppmi(counts, SMOOTHING, SHIFT)

    k = min(config.dim, min(ppmi.shape) - 1)
    # svds needs float and a deterministic start vector for reproducibility.
    rng = np.random.default_rng(SEED)
    v0 = rng.standard_normal(min(ppmi.shape))
    u, s, vt = svds(ppmi.astype(np.float64), k=k, v0=v0)
    order = np.argsort(-s)
    scale = np.sqrt(s[order])
    # "w + c": adding the context vectors to the word vectors lets first-order
    # co-occurrence (synonyms placed next to each other by the corpus
    # templates) contribute to similarity, not just second-order context
    # overlap (Levy, Goldberg & Dagan 2015).
    word_vectors = (u[:, order] * scale + vt.T[:, order] * scale).astype(np.float32)
    if word_vectors.shape[1] < config.dim:
        padding = np.zeros(
            (word_vectors.shape[0], config.dim - word_vectors.shape[1]), dtype=np.float32
        )
        word_vectors = np.hstack([word_vectors, padding])

    # Build the combined input table: word rows, then n-gram buckets averaged
    # from the words containing them, then the zero padding row.
    input_table = np.zeros((vocab.num_rows, config.dim), dtype=np.float32)
    input_table[: vocab.num_words] = word_vectors
    bucket_sums = np.zeros((vocab.num_buckets, config.dim), dtype=np.float64)
    bucket_counts = np.zeros(vocab.num_buckets, dtype=np.int64)
    for word, word_id in vocab.word_to_id.items():
        for row in vocab.subword_ids(word):
            if row >= vocab.num_words and row != vocab.padding_row:
                bucket = row - vocab.num_words
                bucket_sums[bucket] += word_vectors[word_id]
                bucket_counts[bucket] += 1
    nonzero = bucket_counts > 0
    bucket_sums[nonzero] /= bucket_counts[nonzero, None]
    input_table[vocab.num_words : vocab.num_words + vocab.num_buckets] = bucket_sums

    return SubwordEmbeddings(vocab, input_table)
