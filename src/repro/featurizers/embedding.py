"""The paper's word-embedding featurizer (Section IV-C2).

Cosine similarity between the (FastText-style) embedding representations of
the two attribute names.  The raw cosine lies in [-1, 1]; it is rescaled to
[0, 1] so all featurizer outputs share a range (the meta-learner is scale
sensitive only up to its learned weights, but a common range keeps the
self-training thresholds meaningful).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..embeddings.subword import SubwordEmbeddings
from .base import PairBatch, StaticFeaturizer


@dataclass
class EmbeddingFeaturizer(StaticFeaturizer):
    """Cosine similarity of subword-embedding name vectors, mapped to [0, 1]."""

    embeddings: SubwordEmbeddings = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.embeddings is None:
            raise ValueError("EmbeddingFeaturizer requires trained embeddings")

    @property
    def name(self) -> str:
        return "embedding"

    def _phrases(self, token_lists) -> tuple[list[np.ndarray], list[float]]:
        """Phrase vector and norm of each table entry."""
        vectors = [self.embeddings.phrase_vector(list(tokens)) for tokens in token_lists]
        return vectors, [float(np.linalg.norm(vector)) for vector in vectors]

    def score_pairs(self, batch: PairBatch) -> np.ndarray:
        """One phrase vector per table entry; each distinct token pair keeps
        the float32 ``a @ b / (|a|·|b|)`` of
        :meth:`~repro.embeddings.subword.SubwordEmbeddings.cosine`, so the
        column is bit-identical to a per-pair cosine."""
        if not len(batch):
            return np.zeros(0, dtype=np.float64)
        tokens_a, tokens_b = batch.sources.tokens, batch.targets.tokens
        vectors_a, norms_a = self._phrases(tokens_a)
        vectors_b, norms_b = self._phrases(tokens_b)
        rows_a, rows_b, inverse = batch.distinct_pairs(tokens_a, tokens_b)
        values = np.empty(rows_a.size, dtype=np.float64)
        for position, (a, b) in enumerate(zip(rows_a.tolist(), rows_b.tolist())):
            norm_a, norm_b = norms_a[a], norms_b[b]
            cosine = (
                0.0
                if norm_a == 0.0 or norm_b == 0.0
                else float(vectors_a[a] @ vectors_b[b] / (norm_a * norm_b))
            )
            values[position] = (cosine + 1.0) / 2.0
        return values[inverse]
