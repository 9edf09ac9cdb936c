"""Dense retrieval: a bi-encoder index over the target attributes.

:class:`DenseRetriever` embeds each attribute as a phrase vector from the
``repro.embeddings`` subword tables.  The embeddings are frozen after
pre-training, so the target index is encoded once and persisted through
``repro.store`` keyed by artefact provenance + document contents.  Rows
are L2-normalised, so scoring a batch of queries is one matmul of cosines.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import store
from ..embeddings.subword import SubwordEmbeddings
from .base import AttributeDoc, RetrievalStats

#: Store kind for all persisted retrieval indexes.
STORE_KIND = "retrieval"


def _load_or_encode(
    stats: RetrievalStats, persist: bool, name: str, key: str | None, encode
) -> np.ndarray:
    """The persisted index under ``key``, else ``encode()`` (then saved)."""
    if persist and key is not None:
        cached = store.load_arrays(STORE_KIND, key)
        if cached is not None and "index" in cached:
            stats.index_cache_hits += 1
            return cached["index"].astype(np.float32)
    with stats.timer(f"build.{name}"):
        index = encode()
    stats.index_builds += 1
    if persist and key is not None:
        store.save_arrays(STORE_KIND, key, {"index": index})
    return index


class DenseRetriever:
    """Cosine retrieval over subword-embedding phrase vectors.

    ``cache_token`` ties the persisted index to the artefact provenance that
    produced the embeddings (the ``DomainArtifacts.cache_key``); pass None to
    disable persistence for throwaway embeddings (tests, ad-hoc corpora).
    """

    name = "dense"

    def __init__(
        self,
        embeddings: SubwordEmbeddings,
        target_docs: Sequence[AttributeDoc],
        cache_token: str | None = None,
        stats: RetrievalStats | None = None,
        persist: bool = True,
    ) -> None:
        self.embeddings = embeddings
        self.target_docs = list(target_docs)
        self.stats = stats or RetrievalStats()
        key = (
            store.content_key(
                "retrieval-dense-v1", cache_token, [doc.text for doc in self.target_docs]
            )
            if cache_token is not None
            else None
        )
        self._index = _load_or_encode(
            self.stats, persist, self.name, key, self._encode_targets
        )

    def _encode_targets(self) -> np.ndarray:
        return self.embeddings.phrase_matrix(
            [list(doc.tokens) for doc in self.target_docs]
        )

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        query_matrix = self.embeddings.phrase_matrix([list(doc.tokens) for doc in queries])
        return query_matrix @ self._index.T

    def update_docs(
        self,
        added_docs: Sequence[AttributeDoc],
        removed_refs: set,
    ) -> None:
        """Mutate the index in place: drop rows of removed docs, encode and
        append rows for added ones.  Only the added docs are encoded; the
        evolved index is deliberately not persisted -- the store entry stays
        keyed by (and consistent with) the doc set it was built from.
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
