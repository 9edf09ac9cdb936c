"""Sparse lexical retrieval: a BM25 inverted index over attribute docs.

Terms are the union of identifier/description word tokens and boundary-less
character n-grams of the name tokens (prefixed ``#`` so they never collide
with word tokens).  The n-grams carry the abbreviation robustness --
``qty`` and ``quantity`` share ``#qty``-adjacent trigrams even though the
tokens never match -- while whole-token matches dominate through their
higher within-document frequency and sharper idf.

Scoring is standard Okapi BM25 (k1/b) accumulated into a dense
``(num_queries, num_targets)`` matrix; schema-side vocabularies are small
enough that sparse output would cost more than it saves.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from ..schema.model import AttributeRef
from .base import AttributeDoc


def doc_terms(doc: AttributeDoc, ngram_n: int = 3) -> Counter:
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

    def __init__(
        self,
        target_docs: Sequence[AttributeDoc],
        ngram_n: int = 3,
        k1: float = 1.5,
        b: float = 0.75,
    ) -> None:
        self.target_docs = list(target_docs)
        self.ngram_n = ngram_n
        self.k1 = k1
        self.b = b

        #: term -> list of (doc_index, term_frequency)
        self._postings: dict[str, list[tuple[int, int]]] = {}
        self._doc_lengths = np.zeros(len(self.target_docs), dtype=np.float64)
        for doc_index, doc in enumerate(self.target_docs):
            self._post_doc(doc_index, doc)
        self._refresh_statistics()

    def _post_doc(self, doc_index: int, doc: AttributeDoc) -> None:
        """Add one doc's term postings (collection statistics not updated)."""
        terms = doc_terms(doc, self.ngram_n)
        self._doc_lengths[doc_index] = sum(terms.values())
        for term, frequency in terms.items():
            self._postings.setdefault(term, []).append((doc_index, frequency))

    def _refresh_statistics(self) -> None:
        """Recompute the collection-level BM25 statistics from the postings.

        Length norms and idf depend on collection aggregates (average length,
        document frequency), so in-place doc changes refresh them wholesale
        -- O(vocabulary), which is the cheap part; the expensive part
        (re-tokenising unchanged docs into n-gram postings) never reruns.
        """
        num_docs = len(self.target_docs)
        average_length = self._doc_lengths.mean() if num_docs else 1.0
        if average_length == 0.0:
            average_length = 1.0
        #: Per-doc BM25 length normaliser ``k1 * (1 - b + b * len/avg_len)``.
        self._length_norm = self.k1 * (
            1.0 - self.b + self.b * self._doc_lengths / average_length
        )
        #: term -> idf, the BM25+ variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``
        #: which never goes negative on tiny collections.
        self._idf = {
            term: float(np.log1p((num_docs - len(postings) + 0.5) / (len(postings) + 0.5)))
            for term, postings in self._postings.items()
        }

    def update_docs(
        self,
        added_docs: Sequence[AttributeDoc],
        removed_refs: set[AttributeRef],
    ) -> None:
        """Mutate the inverted index in place (schema drift on the target).

        Removed docs take their postings with them and the survivors'
        indices compact; added docs post at the end.  Only the changed docs
        are (re-)tokenised -- surviving postings are renumbered, not
        rebuilt -- then the collection statistics refresh once.
        """
        if removed_refs:
            keep = [
                i for i, doc in enumerate(self.target_docs)
                if doc.ref not in removed_refs
            ]
            index_map = {old: new for new, old in enumerate(keep)}
            self.target_docs = [self.target_docs[i] for i in keep]
            self._doc_lengths = self._doc_lengths[keep]
            for term in list(self._postings):
                postings = [
                    (index_map[doc_index], frequency)
                    for doc_index, frequency in self._postings[term]
                    if doc_index in index_map
                ]
                if postings:
                    self._postings[term] = postings
                else:
                    del self._postings[term]
        if added_docs:
            start = len(self.target_docs)
            self.target_docs.extend(added_docs)
            self._doc_lengths = np.concatenate(
                [self._doc_lengths, np.zeros(len(added_docs))]
            )
            for offset, doc in enumerate(added_docs):
                self._post_doc(start + offset, doc)
        self._refresh_statistics()

    @property
    def num_targets(self) -> int:
        return len(self.target_docs)

    def score_query(self, query: AttributeDoc) -> np.ndarray:
        """BM25 scores of one query against every target doc."""
        scores = np.zeros(self.num_targets, dtype=np.float64)
        for term, query_frequency in doc_terms(query, self.ngram_n).items():
            postings = self._postings.get(term)
            if not postings:
                continue
            idf = self._idf[term]
            for doc_index, frequency in postings:
                saturation = (
                    frequency
                    * (self.k1 + 1.0)
                    / (frequency + self._length_norm[doc_index])
                )
                scores[doc_index] += query_frequency * idf * saturation
        return scores

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        return np.stack([self.score_query(query) for query in queries])
