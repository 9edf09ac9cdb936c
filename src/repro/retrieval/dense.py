"""Dense retrieval: a bi-encoder index over the target attributes.

:class:`DenseRetriever` embeds each attribute as a phrase vector from the
``repro.embeddings`` subword tables.  The embeddings are frozen after
pre-training, so the target index is encoded once, when the retriever is
built, and lives in memory only.  Rows are L2-normalised, so scoring a
batch of queries is one matmul of cosines.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..embeddings.subword import SubwordEmbeddings
from .base import AttributeDoc, RetrievalStats


class DenseRetriever:
    """Cosine retrieval over subword-embedding phrase vectors."""

    name = "dense"

    def __init__(
        self,
        embeddings: SubwordEmbeddings,
        target_docs: Sequence[AttributeDoc],
        stats: RetrievalStats | None = None,
    ) -> None:
        self.embeddings = embeddings
        self.stats = stats or RetrievalStats()
        with self.stats.timer(f"build.{self.name}"):
            self._index = self.embeddings.phrase_matrix(
                [list(doc.tokens) for doc in target_docs]
            )
        self.stats.index_builds += 1

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        query_matrix = self.embeddings.phrase_matrix([list(doc.tokens) for doc in queries])
        return query_matrix @ self._index.T
