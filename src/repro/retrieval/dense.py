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
        self.target_docs = list(target_docs)
        self.stats = stats or RetrievalStats()
        with self.stats.timer(f"build.{self.name}"):
            self._index = self.embeddings.phrase_matrix(
                [list(doc.tokens) for doc in self.target_docs]
            )
        self.stats.index_builds += 1

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        query_matrix = self.embeddings.phrase_matrix([list(doc.tokens) for doc in queries])
        return query_matrix @ self._index.T

    def update_docs(
        self,
        added_docs: Sequence[AttributeDoc],
        removed_refs: set,
    ) -> None:
        """Mutate the index in place: drop rows of removed docs, encode and
        append rows for added ones.  Only the added docs are encoded.
        """
        if removed_refs:
            keep = [
                i for i, doc in enumerate(self.target_docs)
                if doc.ref not in removed_refs
            ]
            self.target_docs = [self.target_docs[i] for i in keep]
            self._index = self._index[keep]
        if added_docs:
            self.target_docs.extend(added_docs)
            added = self.embeddings.phrase_matrix(
                [list(doc.tokens) for doc in added_docs]
            )
            self._index = np.concatenate([self._index, added.astype(self._index.dtype)])
