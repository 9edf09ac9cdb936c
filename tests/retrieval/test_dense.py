"""Tests for the dense retriever and its in-memory index."""

import numpy as np
import pytest

from repro.retrieval import (
    DenseRetriever,
    RetrievalStats,
    docs_from_refs,
)


@pytest.fixture()
def source_docs(source_schema):
    return docs_from_refs(source_schema, source_schema.attribute_refs())


@pytest.fixture()
def target_docs(target_schema):
    return docs_from_refs(target_schema, target_schema.attribute_refs())


class TestDenseRetriever:
    def test_true_match_beats_random_target(self, tiny_artifacts, source_docs, target_docs):
        retriever = DenseRetriever(tiny_artifacts.embeddings, target_docs)
        matrix = retriever.score_matrix(source_docs)
        assert matrix.shape == (len(source_docs), len(target_docs))
        qty = next(i for i, d in enumerate(source_docs) if d.ref.attribute == "qty")
        quantity = next(
            i for i, d in enumerate(target_docs) if d.ref.attribute == "quantity"
        )
        tax = next(
            i for i, d in enumerate(target_docs) if d.ref.attribute == "tax_amount"
        )
        assert matrix[qty, quantity] > matrix[qty, tax]

    def test_scores_are_cosines(self, tiny_artifacts, target_docs):
        retriever = DenseRetriever(tiny_artifacts.embeddings, target_docs)
        matrix = retriever.score_matrix(target_docs)
        assert matrix.max() <= 1.0 + 1e-5
        # An attribute is maximally similar to itself (duplicate-token docs
        # like the two ``product_id`` columns may tie, so compare scores).
        assert np.allclose(np.diagonal(matrix), matrix.max(axis=1), atol=1e-5)

    def test_persistence_roundtrip(
        self, tiny_artifacts, target_docs, tmp_path, monkeypatch
    ):
        """Nothing round-trips through the store: every retriever encodes
        its index at construction, and equal docs give equal indexes."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        stats = RetrievalStats()
        first = DenseRetriever(tiny_artifacts.embeddings, target_docs, stats=stats)
        assert stats.index_builds == 1
        second = DenseRetriever(tiny_artifacts.embeddings, target_docs, stats=stats)
        assert stats.index_builds == 2
        np.testing.assert_array_equal(first._index, second._index)

    def test_no_cache_token_skips_store(
        self, tiny_artifacts, target_docs, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        DenseRetriever(tiny_artifacts.embeddings, target_docs)
        assert not any(tmp_path.rglob("*.npz"))
