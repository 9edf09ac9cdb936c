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
precomputed BM25 saturation), grouped by term with one span per term, and
the saturations refresh whenever the collection statistics move.  A query
adds one ``qf * idf * saturation`` slice per term instead of walking
postings in Python; every doc still gets at most one add per term, in the
query's term order, so the scores are bit-identical to the per-posting sum.
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

        #: term -> term id, in first-seen order.
        self._term_ids: dict[str, int] = {}
        #: One entry per posting: term id, doc index, term frequency.
        #: :meth:`_refresh_statistics` groups them by term.
        self._post_term = np.zeros(0, dtype=np.intp)
        self._post_doc = np.zeros(0, dtype=np.intp)
        self._post_tf = np.zeros(0, dtype=np.float64)
        self._doc_lengths = np.zeros(0, dtype=np.float64)
        self._add_docs(self.target_docs, 0)
        self._refresh_statistics()

    def _add_docs(self, docs: Sequence[AttributeDoc], start: int) -> None:
        """Append the postings of ``docs``, numbered from ``start``
        (collection statistics not updated)."""
        terms: list[int] = []
        doc_index: list[int] = []
        frequency: list[int] = []
        lengths: list[int] = []
        for offset, doc in enumerate(docs):
            counts = doc_terms(doc, self.ngram_n)
            lengths.append(sum(counts.values()))
            for term, term_frequency in counts.items():
                terms.append(self._term_ids.setdefault(term, len(self._term_ids)))
                doc_index.append(start + offset)
                frequency.append(term_frequency)
        self._post_term = np.concatenate([self._post_term, np.array(terms, dtype=np.intp)])
        self._post_doc = np.concatenate([self._post_doc, np.array(doc_index, dtype=np.intp)])
        self._post_tf = np.concatenate([self._post_tf, np.array(frequency, dtype=np.float64)])
        self._doc_lengths = np.concatenate(
            [self._doc_lengths, np.array(lengths, dtype=np.float64)]
        )

    def _refresh_statistics(self) -> None:
        """Recompute the collection-level BM25 statistics from the postings.

        Length norms, idf and the per-posting saturations depend on
        collection aggregates (average length, document frequency), so
        in-place doc changes refresh them wholesale -- whole-array work plus
        one idf per term; the expensive part (re-tokenising unchanged docs
        into n-gram postings) never reruns.
        """
        num_docs = len(self.target_docs)
        average_length = self._doc_lengths.mean() if num_docs else 1.0
        if average_length == 0.0:
            average_length = 1.0
        #: Per-doc BM25 length normaliser ``k1 * (1 - b + b * len/avg_len)``.
        self._length_norm = self.k1 * (
            1.0 - self.b + self.b * self._doc_lengths / average_length
        )
        # Group the postings by term; ``_spans[term] = (start, stop)``.
        order = np.argsort(self._post_term, kind="stable")
        self._post_term = self._post_term[order]
        self._post_doc = self._post_doc[order]
        self._post_tf = self._post_tf[order]
        counts = np.bincount(self._post_term, minlength=len(self._term_ids)).tolist()
        self._spans: dict[str, tuple[int, int]] = {}
        #: term -> idf, the BM25+ variant ``ln(1 + (N - df + 0.5)/(df + 0.5))``
        #: which never goes negative on tiny collections.
        self._idf: dict[str, float] = {}
        stop = 0
        for term, term_id in self._term_ids.items():
            df = counts[term_id]
            if df:
                self._spans[term] = (stop, stop + df)
                self._idf[term] = float(np.log1p((num_docs - df + 0.5) / (df + 0.5)))
                stop += df
        #: Per posting, ``tf * (k1 + 1) / (tf + length_norm)``.
        denominator = self._length_norm[self._post_doc]
        denominator += self._post_tf
        self._saturation = self._post_tf * (self.k1 + 1.0)
        self._saturation /= denominator

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
            keep = np.fromiter(
                (doc.ref not in removed_refs for doc in self.target_docs),
                dtype=bool,
                count=len(self.target_docs),
            )
            self.target_docs = [doc for doc, kept in zip(self.target_docs, keep) if kept]
            self._doc_lengths = self._doc_lengths[keep]
            surviving = keep[self._post_doc]
            self._post_term = self._post_term[surviving]
            self._post_tf = self._post_tf[surviving]
            self._post_doc = (np.cumsum(keep) - 1)[self._post_doc[surviving]]
        if added_docs:
            start = len(self.target_docs)
            self.target_docs.extend(added_docs)
            self._add_docs(added_docs, start)
        self._refresh_statistics()

    @property
    def num_targets(self) -> int:
        return len(self.target_docs)

    def score_query(self, query: AttributeDoc) -> np.ndarray:
        """BM25 scores of one query against every target doc."""
        scores = np.zeros(self.num_targets, dtype=np.float64)
        for term, query_frequency in doc_terms(query, self.ngram_n).items():
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
