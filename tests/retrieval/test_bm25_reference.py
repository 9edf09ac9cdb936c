"""BM25 scoring against a per-posting reference, bit for bit.

:class:`~repro.retrieval.SparseRetriever` adds one precomputed saturation
array per query term.  The reference below rebuilds the statistics from the
docs and walks every posting in Python, one add per (term, doc) in the
query's term order -- the plain BM25 sum.  Candidate sets come from ranking
these scores, so the two must agree exactly, not just closely.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.retrieval import AttributeDoc, SparseRetriever
from repro.retrieval.sparse import doc_terms
from repro.schema import AttributeRef


def reference_matrix(target_docs, queries, ngram_n=3, k1=1.5, b=0.75) -> np.ndarray:
    terms = [doc_terms(doc, ngram_n) for doc in target_docs]
    lengths = np.array([sum(t.values()) for t in terms], dtype=np.float64)
    average = lengths.mean() if len(target_docs) else 1.0
    norm = k1 * (1.0 - b + b * lengths / (average if average else 1.0))
    postings: dict[str, list[tuple[int, int]]] = {}
    for doc_index, doc_terms_ in enumerate(terms):
        for term, frequency in doc_terms_.items():
            postings.setdefault(term, []).append((doc_index, frequency))
    count = len(target_docs)
    scores = np.zeros((len(queries), count), dtype=np.float64)
    for row, query in enumerate(queries):
        for term, query_frequency in doc_terms(query, ngram_n).items():
            df = len(postings.get(term, ()))
            idf = float(np.log1p((count - df + 0.5) / (df + 0.5)))
            for doc_index, frequency in postings.get(term, ()):
                saturation = frequency * (k1 + 1.0) / (frequency + norm[doc_index])
                scores[row, doc_index] += query_frequency * idf * saturation
    return scores


WORD = st.sampled_from(
    ["qty", "quantity", "price", "amount", "id", "code", "brand", "name", "a", "ab"]
)
DOC = st.builds(
    lambda i, name, desc, family, key: AttributeDoc(
        ref=AttributeRef("E", f"a{i}"),
        name_tokens=tuple(name),
        description_tokens=tuple(desc),
        entity_tokens=("e",),
        dtype_family=family,
        is_key=key,
    ),
    st.integers(0, 10**6),
    st.lists(WORD, max_size=4),
    st.lists(WORD, max_size=8),
    st.sampled_from(["unknown", "numeric", "text"]),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(targets=st.lists(DOC, min_size=1, max_size=12), queries=st.lists(DOC, max_size=6))
def test_score_matrix_equals_per_posting_reference(targets, queries):
    retriever = SparseRetriever(targets)
    expected = reference_matrix(targets, queries)
    got = np.stack([retriever.score_query(q) for q in queries]) if queries else expected
    np.testing.assert_array_equal(got, expected)
    if queries:
        np.testing.assert_array_equal(retriever.score_matrix(queries), expected)
