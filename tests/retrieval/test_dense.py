"""Tests for the dense retriever and its in-memory index."""

import numpy as np
import pytest

from repro.retrieval import (
    AttributeDoc,
    DenseRetriever,
    RetrievalStats,
    docs_from_refs,
)
from repro.schema import AttributeRef, RenameColumn, SchemaDelta, apply_delta
from repro.text.tokenize import split_identifier

from ..conftest import make_target_schema


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


def _extra_doc(name="launch_window", entity="Transaction"):
    return AttributeDoc(
        ref=AttributeRef(entity, name),
        name_tokens=tuple(split_identifier(name)),
        description_tokens=("scheduled", "launch", "window"),
        entity_tokens=tuple(split_identifier(entity)),
        dtype_family="temporal",
    )


class TestStoreKeyStaleness:
    """A retriever over changed docs encodes the changed docs: no index is
    shared across doc sets."""

    def test_mutated_schema_rebuilds_dense_index(self, tiny_artifacts):
        schema = make_target_schema()
        docs = docs_from_refs(schema, schema.attribute_refs())
        stats = RetrievalStats()
        original = DenseRetriever(tiny_artifacts.embeddings, docs, stats=stats)
        assert stats.index_builds == 1

        # Same artefacts -- but one column was renamed.
        renamed = AttributeRef("Product", "product_name")
        evolved, _ = apply_delta(
            schema, SchemaDelta((RenameColumn(renamed, "title"),))
        )
        evolved_docs = docs_from_refs(evolved, evolved.attribute_refs())
        rebuilt = DenseRetriever(tiny_artifacts.embeddings, evolved_docs, stats=stats)
        assert stats.index_builds == 2
        row = [doc.ref for doc in docs].index(renamed)
        assert not np.array_equal(original._index[row], rebuilt._index[row])

    def test_description_change_rebuilds_dense_index(self, tiny_artifacts):
        schema = make_target_schema()
        docs = docs_from_refs(schema, schema.attribute_refs())
        stats = RetrievalStats()
        original = DenseRetriever(tiny_artifacts.embeddings, docs, stats=stats)
        mutated = list(docs)
        mutated[0] = _extra_doc(name=docs[0].ref.attribute, entity=docs[0].ref.entity)
        rebuilt = DenseRetriever(tiny_artifacts.embeddings, mutated, stats=stats)
        assert stats.index_builds == 2
        assert not np.array_equal(original._index[0], rebuilt._index[0])
