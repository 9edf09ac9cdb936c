"""Sparse lexical retrieval: a BM25 inverted index over attribute docs.

Terms are the union of identifier/description word tokens and boundary-less
character n-grams of the name tokens (prefixed ``#`` so they never collide
with word tokens).  The n-grams carry the abbreviation robustness --
``qty`` and ``quantity`` share ``#qty``-adjacent trigrams even though the
tokens never match -- while whole-token matches dominate through their
higher within-document frequency and sharper idf.

Scoring is standard Okapi BM25 (k1/b) accumulated into a dense
``(num_queries, num_targets)`` matrix; schema-side vocabularies are small
enough that sparse output would cost more than it saves.  The index is
flat: one array entry per posting (term id, doc index, term frequency,
precomputed BM25 saturation), grouped by term with one span per term and
built once, when the retriever is constructed.  A query adds one
``qf * idf * saturation`` slice per term instead of walking postings in
Python; every doc still gets at most one add per term, in the query's term
order, so the scores are bit-identical to the per-posting sum.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .base import AttributeDoc

#: Character n-gram order of the name-token terms.
NGRAM_N = 3
#: Okapi BM25 parameters.
BM25_K1 = 1.5
BM25_B = 0.75


def doc_terms(doc: AttributeDoc, ngram_n: int = NGRAM_N) -> Counter:
    """Term multiset of one attribute doc.

    Word tokens + ``#``-prefixed character n-grams of the name tokens, plus
    two schema-structural marker terms: the dtype family (``~dtype:numeric``)
    and PK/FK participation (``~key``).  The markers are what lets cryptic
    identifier pairs with zero character overlap (``user_id`` vs ``nconst``,
    ``age`` vs ``birth_year``) stay retrievable; their BM25 weight is bounded
    by their (low) idf, so they never outrank real lexical evidence.
    """
    terms = Counter(doc.tokens)
    for token in doc.name_tokens:
        marked = f"<{token}>"
        if len(marked) < ngram_n:
            terms[f"#{marked}"] += 1
            continue
        for i in range(len(marked) - ngram_n + 1):
            terms[f"#{marked[i : i + ngram_n]}"] += 1
    if doc.dtype_family != "unknown":
        terms[f"~dtype:{doc.dtype_family}"] += 1
    if doc.is_key:
        terms["~key"] += 1
    return terms


class SparseRetriever:
    """BM25 over an inverted index of the target attribute docs."""

    name = "sparse"

    def __init__(self, target_docs: Sequence[AttributeDoc]) -> None:
        self.target_docs = list(target_docs)
        num_docs = len(self.target_docs)

        # term -> term id, in first-seen order.
        term_ids: dict[str, int] = {}
        # One entry per posting: term id, doc index, term frequency.
        terms: list[int] = []
        doc_index: list[int] = []
        frequency: list[int] = []
        lengths: list[int] = []
        for index, doc in enumerate(self.target_docs):
            counts = doc_terms(doc)
            lengths.append(sum(counts.values()))
            for term, term_frequency in counts.items():
                terms.append(term_ids.setdefault(term, len(term_ids)))
                doc_index.append(index)
                frequency.append(term_frequency)
        post_term = np.array(terms, dtype=np.intp)
        doc_lengths = np.array(lengths, dtype=np.float64)

        average_length = doc_lengths.mean() if num_docs else 1.0
        if average_length == 0.0:
            average_length = 1.0
        # Per-doc BM25 length normaliser ``k1 * (1 - b + b * len/avg_len)``.
        length_norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_lengths / average_length)
        # Group the postings by term; ``_spans[term] = (start, stop)``.
        order = np.argsort(post_term, kind="stable")
        self._post_doc = np.array(doc_index, dtype=np.intp)[order]
        post_tf = np.array(frequency, dtype=np.float64)[order]
        counts = np.bincount(post_term, minlength=len(term_ids)).tolist()
        self._spans: dict[str, tuple[int, int]] = {}
        #: term -> idf, the BM25+ variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``
        #: which never goes negative on tiny collections.
        self._idf: dict[str, float] = {}
        stop = 0
        for term, term_id in term_ids.items():
            df = counts[term_id]
            if df:
                self._spans[term] = (stop, stop + df)
                self._idf[term] = float(np.log1p((num_docs - df + 0.5) / (df + 0.5)))
                stop += df
        #: Per posting, ``tf * (k1 + 1) / (tf + length_norm)``.
        denominator = length_norm[self._post_doc]
        denominator += post_tf
        self._saturation = post_tf * (BM25_K1 + 1.0)
        self._saturation /= denominator

    @property
    def num_targets(self) -> int:
        return len(self.target_docs)

    def score_query(self, query: AttributeDoc) -> np.ndarray:
        """BM25 scores of one query against every target doc."""
        scores = np.zeros(self.num_targets, dtype=np.float64)
        for term, query_frequency in doc_terms(query).items():
            span = self._spans.get(term)
            if span is None:
                continue
            start, stop = span
            scores[self._post_doc[start:stop]] += (
                query_frequency * self._idf[term] * self._saturation[start:stop]
            )
        return scores

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        return np.stack([self.score_query(query) for query in queries])
