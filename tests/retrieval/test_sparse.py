"""Tests for the BM25 sparse retriever."""

import numpy as np
import pytest

from repro.retrieval import AttributeDoc, SparseRetriever, docs_from_refs
from repro.retrieval.sparse import doc_terms
from repro.schema import AttributeRef


def _doc(entity, name_tokens, description_tokens=(), dtype_family="unknown", is_key=False):
    return AttributeDoc(
        ref=AttributeRef(entity, "_".join(name_tokens)),
        name_tokens=tuple(name_tokens),
        description_tokens=tuple(description_tokens),
        entity_tokens=(entity.lower(),),
        dtype_family=dtype_family,
        is_key=is_key,
    )


@pytest.fixture()
def target_docs(target_schema):
    return docs_from_refs(target_schema, target_schema.attribute_refs())


class TestDocTerms:
    def test_contains_tokens_and_ngrams(self):
        doc = _doc("Orders", ["quantity"])
        terms = doc_terms(doc, ngram_n=3)
        assert terms["quantity"] == 1
        assert "#<qu" in terms
        assert "#ty>" in terms

    def test_description_tokens_have_no_ngrams(self):
        doc = _doc("Orders", ["qty"], ["ordered", "amount"])
        terms = doc_terms(doc, ngram_n=3)
        assert terms["ordered"] == 1
        assert "#<or" not in terms  # n-grams come from name tokens only

    def test_structural_markers(self):
        doc = _doc("Orders", ["id"], dtype_family="numeric", is_key=True)
        terms = doc_terms(doc)
        assert terms["~dtype:numeric"] == 1
        assert terms["~key"] == 1
        unknown = _doc("Orders", ["id"])
        assert "~dtype:unknown" not in doc_terms(unknown)
        assert "~key" not in doc_terms(unknown)


class TestSparseRetriever:
    def test_exact_name_match_ranks_first(self, target_docs):
        retriever = SparseRetriever(target_docs)
        query = _doc("Orders", ["quantity"])
        scores = retriever.score_query(query)
        best = int(np.argmax(scores))
        assert target_docs[best].ref.attribute == "quantity"

    def test_abbreviation_reaches_expansion(self, target_docs):
        """``qty`` shares character n-grams with ``quantity`` via its
        description tokens and trigram overlap -- the signal blocking needs."""
        retriever = SparseRetriever(target_docs)
        query = _doc("Orders", ["qty"], ["quantity", "ordered"])
        scores = retriever.score_query(query)
        ranked = np.argsort(-scores)
        names = [target_docs[int(i)].ref.attribute for i in ranked[:5]]
        assert "quantity" in names

    def test_score_matrix_shape(self, target_docs):
        retriever = SparseRetriever(target_docs)
        queries = [_doc("Orders", ["qty"]), _doc("Orders", ["price"])]
        matrix = retriever.score_matrix(queries)
        assert matrix.shape == (2, len(target_docs))
        assert (matrix >= 0).all()

    def test_no_overlap_scores_zero(self, target_docs):
        retriever = SparseRetriever(target_docs)
        query = _doc("X", ["zzzz"])
        assert retriever.score_query(query).max() == 0.0

    def test_key_marker_links_cryptic_identifiers(self):
        """A key-to-key pair with zero character overlap still scores > 0."""
        docs = [
            _doc("name_basics", ["nconst"], is_key=True),
            _doc("name_basics", ["primary", "name"]),
        ]
        retriever = SparseRetriever(docs)
        query = _doc("users", ["user", "id"], is_key=True)
        scores = retriever.score_query(query)
        assert scores[0] > scores[1]
