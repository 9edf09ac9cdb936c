"""Candidate-generation interfaces: retrieve-then-rerank for the LSM.

The paper scores the full Cartesian product ``P = A_s x A_t`` with the BERT
cross-encoder, which walls off scaling past the 1218-attribute ISS.  This
package implements the two-stage small-LM-retrieval + rerank architecture
(Magneto-style): cheap *retrievers* rank every target attribute for every
source attribute, a *fusion* step combines their rankings into per-source
top-k candidate sets, and only those candidates reach the cross-encoder.

Three layers live here:

* :class:`AttributeDoc` -- the retrieval view of one attribute (tokens of
  its entity, name and description), decoupled from schema internals;
* :class:`Retriever` -- one ranking signal producing a dense
  ``(num_queries, num_targets)`` score matrix (``repro.retrieval.dense``
  and ``repro.retrieval.sparse`` provide the implementations);
* :class:`FusedCandidateGenerator` -- what the matcher holds when
  ``max_candidates_per_source`` is set: reciprocal-rank fusion over the
  configured retrievers.  Without that budget the matcher holds no
  generator and scores the paper's full product.

The target indexes are built once and never change; schema drift on the
source side only swaps query docs (:meth:`FusedCandidateGenerator.
replace_source_docs`).  Nothing in this package imports ``repro.core``:
generators consume docs and produce target-index sets, and the
:class:`~repro.core.candidates.CandidateStore` applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..obs.counters import Counters
from ..schema.model import AttributeRef, Schema
from ..text.tokenize import split_identifier, words


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttributeDoc:
    """The retrieval-side view of one attribute (source or target).

    Besides the text, a doc carries two schema-structural markers the sparse
    retriever turns into (low-weight) matchable terms: the attribute's
    dtype *family* and whether it participates in a PK/FK key.  Cryptic
    identifier pairs (``user_id`` vs IMDb's ``nconst``) share no characters
    at all -- key-ness and dtype are the only schema-only signals that can
    keep such true matches inside a pruned candidate set.
    """

    ref: AttributeRef
    name_tokens: tuple[str, ...]
    description_tokens: tuple[str, ...]
    entity_tokens: tuple[str, ...]
    dtype_family: str = "unknown"
    is_key: bool = False

    @property
    def tokens(self) -> tuple[str, ...]:
        """Name tokens followed by description tokens (the document body)."""
        return self.name_tokens + self.description_tokens


def docs_from_refs(
    schema: Schema,
    refs: Sequence[AttributeRef],
    use_descriptions: bool = True,
) -> list[AttributeDoc]:
    """Materialise :class:`AttributeDoc` rows for ``refs`` of ``schema``."""
    key_refs = set(schema.key_refs())
    docs: list[AttributeDoc] = []
    for ref in refs:
        attribute = schema.attribute(ref)
        description = attribute.description if use_descriptions else ""
        docs.append(
            AttributeDoc(
                ref=ref,
                name_tokens=tuple(split_identifier(attribute.name)),
                description_tokens=tuple(words(description)) if description else (),
                entity_tokens=tuple(split_identifier(ref.entity)),
                dtype_family=attribute.dtype.family,
                is_key=ref in key_refs,
            )
        )
    return docs


# ---------------------------------------------------------------------------
# Configuration + stats
# ---------------------------------------------------------------------------

#: Reciprocal-rank-fusion smoothing constant; 60 is the canonical value.
RRF_K = 60
#: Per-retriever fusion weights, by retriever name.
RRF_WEIGHTS = {"dense": 1.0, "sparse": 1.0}


@dataclass
class RetrievalConfig:
    """Which retrievers the candidate generator fuses (``LsmConfig.retrieval``).

    A retriever whose inputs are missing (dense without embeddings) is
    skipped; a config that leaves no retriever is rejected by
    :func:`repro.retrieval.build_generator`.
    """

    #: Dense bi-encoder over ``repro.embeddings`` subword phrase vectors.
    use_dense: bool = True
    #: Sparse BM25 over identifier/description tokens + character n-grams.
    use_sparse: bool = True


@dataclass
class RetrievalStats(Counters):
    """Counters/timings of the candidate-generation layer (obs surface).

    Stages are named ``build.dense``, ``fuse``, ... and render as
    ``time.<stage>``.
    """

    #: Dense indexes encoded.
    index_builds: int = 0
    #: ``generate()``/``generate_for_sources()`` calls (initial build +
    #: post-drift regenerations).
    generations: int = 0
    #: Size of the full Cartesian product the generator replaced.
    pairs_full_product: int = 0
    #: Candidate pairs surviving the latest pruning pass.
    pairs_after_pruning: int = 0


# ---------------------------------------------------------------------------
# Retriever protocol + fusion
# ---------------------------------------------------------------------------

class Retriever(Protocol):
    """One ranking signal over the target attributes."""

    @property
    def name(self) -> str: ...

    def score_matrix(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        """Dense ``(len(queries), num_targets)`` relevance scores."""
        ...


def rrf_fuse(
    matrices: Sequence[np.ndarray],
    weights: Sequence[float],
    rrf_k: int = RRF_K,
) -> np.ndarray:
    """Weighted reciprocal-rank fusion of per-retriever score matrices.

    Each matrix is converted to per-query ranks (0 = best, ties broken by
    target index so fusion is deterministic) and combined as
    ``sum_i w_i / (rrf_k + 1 + rank_i)``, i.e. the usual RRF over 1-based
    ranks.  RRF is scale-free, which is what makes it robust to BM25 and
    cosine living on incomparable scales.
    """
    fused = np.zeros_like(matrices[0], dtype=np.float64)
    for matrix, weight in zip(matrices, weights):
        order = np.argsort(-matrix, axis=1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(
            ranks, order, np.broadcast_to(np.arange(matrix.shape[1]), order.shape), axis=1
        )
        fused += weight / (rrf_k + 1.0 + ranks)
    return fused


# ---------------------------------------------------------------------------
# Candidate sets + generators
# ---------------------------------------------------------------------------

@dataclass
class CandidateSets:
    """Per-source ranked target candidate sets -- the generator's product."""

    #: ``per_source[i]`` = ranked target indices for source doc ``i``.
    per_source: list[np.ndarray]
    #: Requested candidates per source (rows may be shorter than ``k``).
    k: int
    #: Names of the retrievers that produced the fused ranking.
    retriever_names: tuple[str, ...]

    @property
    def num_sources(self) -> int:
        return len(self.per_source)

    def total_candidates(self) -> int:
        return int(sum(row.size for row in self.per_source))

    def rank_of(self, source_index: int, target_index: int) -> int | None:
        """0-based rank of a target in a source's candidate list, or None."""
        row = self.per_source[int(source_index)]
        hits = np.flatnonzero(row == int(target_index))
        return int(hits[0]) if hits.size else None


class FusedCandidateGenerator:
    """Rank fusion over the configured retrievers -> per-source top-k sets."""

    name = "fused"

    def __init__(
        self,
        source_docs: Sequence[AttributeDoc],
        target_docs: Sequence[AttributeDoc],
        retrievers: Sequence[Retriever],
        stats: RetrievalStats | None = None,
    ) -> None:
        if not retrievers:
            raise ValueError("FusedCandidateGenerator needs at least one retriever")
        self.source_docs = list(source_docs)
        self.target_docs = list(target_docs)
        self.retrievers = list(retrievers)
        self.stats = stats or RetrievalStats()

    @property
    def num_targets(self) -> int:
        return len(self.target_docs)

    def _fuse_queries(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        matrices: list[np.ndarray] = []
        weights: list[float] = []
        for retriever in self.retrievers:
            with self.stats.timer(f"score.{retriever.name}"):
                matrices.append(retriever.score_matrix(queries))
            weights.append(RRF_WEIGHTS.get(retriever.name, 1.0))
        with self.stats.timer("fuse"):
            if len(matrices) == 1:
                return matrices[0].astype(np.float64)
            return rrf_fuse(matrices, weights)

    def _rank(self, fused: np.ndarray, k: int) -> list[np.ndarray]:
        with self.stats.timer("rank"):
            order = np.argsort(-fused, axis=1, kind="stable")[:, : min(k, fused.shape[1])]
        return [row.copy() for row in order]

    def generate(self, k: int) -> CandidateSets:
        """Candidate sets for every source doc."""
        return self.generate_for_sources(range(len(self.source_docs)), k)

    def generate_for_sources(
        self, source_indices: Sequence[int], k: int
    ) -> CandidateSets:
        """Candidate sets for a subset of sources (post-drift regeneration).

        Scores only ``len(source_indices)`` query rows against the target
        indexes; ``per_source[i]`` corresponds to ``source_indices[i]``.
        Reciprocal-rank fusion ranks each query row independently, so the
        rows equal the matching rows of a full :meth:`generate`.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        self.stats.generations += 1
        queries = [self.source_docs[int(i)] for i in source_indices]
        fused = self._fuse_queries(queries)
        return CandidateSets(
            per_source=self._rank(fused, k),
            k=min(k, fused.shape[1]),
            retriever_names=tuple(r.name for r in self.retrievers),
        )

    # -- schema drift ---------------------------------------------------------

    def replace_source_docs(self, source_docs: Sequence[AttributeDoc]) -> None:
        """Swap the query-side docs after source-schema drift.

        Source docs are queries, not index content, so no retriever state
        needs rebuilding.
        """
        self.source_docs = list(source_docs)

    def refresh(self) -> bool:
        """No-op kept for the end-to-end benchmark's span table, which
        patches it by name: every retriever is frozen, so candidate sets
        never go stale on a model update."""
        return False
