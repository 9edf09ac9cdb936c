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
* :class:`CandidateGenerator` -- the pluggable interface the matcher holds:
  :class:`FusedCandidateGenerator` (reciprocal-rank fusion over the
  configured retrievers) and :class:`FullProductGenerator` (the escape
  hatch back to the paper's full Cartesian product).

Nothing in this package imports ``repro.core``: generators consume docs and
produce target-index sets, and the :class:`~repro.core.candidates.
CandidateStore` applies them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

    @property
    def text(self) -> str:
        """Canonical flat text -- used for content-addressed index keys."""
        key_marker = "key" if self.is_key else "nonkey"
        return " ".join(
            (*self.entity_tokens, "|", *self.tokens, "|", self.dtype_family, key_marker)
        )


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

@dataclass
class RetrievalConfig:
    """Knobs of the candidate-generation layer (``LsmConfig.retrieval``).

    ``generator="full"`` is the escape hatch: the matcher keeps the paper's
    full Cartesian product regardless of ``max_candidates_per_source``.
    """

    #: "fused" (retrieve-then-rerank) or "full" (escape hatch: no pruning).
    generator: str = "fused"
    #: Dense bi-encoder over ``repro.embeddings`` subword phrase vectors.
    use_dense: bool = True
    #: Sparse BM25 over identifier/description tokens + character n-grams.
    use_sparse: bool = True
    #: RRF smoothing constant; 60 is the canonical value.
    rrf_k: int = 60
    #: Per-retriever reciprocal-rank-fusion weights, by retriever name.
    weights: dict[str, float] = field(
        default_factory=lambda: {"dense": 1.0, "sparse": 1.0}
    )
    #: Character n-gram order of the sparse index.
    ngram_n: int = 3
    #: BM25 parameters.
    bm25_k1: float = 1.5
    bm25_b: float = 0.75
    #: Persist pre-encoded dense indexes through ``repro.store`` (keyed by
    #: artefact provenance + document contents + model version).
    persist: bool = True

    def __post_init__(self) -> None:
        if self.generator not in {"fused", "full"}:
            raise ValueError(f"unknown candidate generator: {self.generator!r}")
        if self.rrf_k < 1:
            raise ValueError("rrf_k must be >= 1")
        if self.ngram_n < 2:
            raise ValueError("ngram_n must be >= 2")


@dataclass
class RetrievalStats(Counters):
    """Counters/timings of the candidate-generation layer (obs surface).

    Stages are named ``build.dense``, ``fuse``, ... and render as
    ``time.<stage>``.
    """

    #: Dense indexes encoded from scratch.
    index_builds: int = 0
    #: Dense indexes loaded from the artifact store.
    index_cache_hits: int = 0
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

    def update_docs(
        self, added_docs: Sequence[AttributeDoc], removed_refs: set[AttributeRef]
    ) -> None:
        """Mutate the index in place: drop removed docs, append added ones."""
        ...


def rrf_fuse(
    matrices: Sequence[np.ndarray],
    weights: Sequence[float],
    rrf_k: int = 60,
) -> np.ndarray:
    """Weighted reciprocal-rank fusion of per-retriever score matrices.

    Each matrix is converted to per-query ranks (0 = best, ties broken by
    target index so fusion is deterministic) and combined as
    ``sum_i w_i / (rrf_k + rank_i)``.  RRF is scale-free, which is what makes
    it robust to BM25 and cosine living on incomparable scales.
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
    #: Fused relevance matrix (num_sources, num_targets); kept for
    #: diagnostics (recall gates, minimal-k probes).
    fused_scores: np.ndarray | None = None

    @property
    def num_sources(self) -> int:
        return len(self.per_source)

    def total_candidates(self) -> int:
        return int(sum(row.size for row in self.per_source))

    def contains(self, source_index: int, target_index: int) -> bool:
        return int(target_index) in self.per_source[int(source_index)]

    def rank_of(self, source_index: int, target_index: int) -> int | None:
        """0-based rank of a target in a source's candidate list, or None."""
        row = self.per_source[int(source_index)]
        hits = np.flatnonzero(row == int(target_index))
        return int(hits[0]) if hits.size else None


class CandidateGenerator(Protocol):
    """What the matcher holds: produces per-source candidate sets."""

    @property
    def name(self) -> str: ...

    @property
    def num_targets(self) -> int: ...

    def generate(self, k: int) -> CandidateSets: ...


class FullProductGenerator:
    """Escape hatch: every target is a candidate for every source."""

    name = "full"

    def __init__(self, num_sources: int, num_targets: int) -> None:
        self._num_sources = num_sources
        self._num_targets = num_targets

    @property
    def num_targets(self) -> int:
        return self._num_targets

    def generate(self, k: int) -> CandidateSets:
        all_targets = np.arange(self._num_targets)
        return CandidateSets(
            per_source=[all_targets] * self._num_sources,
            k=self._num_targets,
            retriever_names=("full",),
        )

    def replace_source_docs(self, source_docs: Sequence[AttributeDoc]) -> None:
        self._num_sources = len(source_docs)

    def generate_for_sources(
        self, source_indices: Sequence[int], k: int
    ) -> CandidateSets:
        all_targets = np.arange(self._num_targets)
        return CandidateSets(
            per_source=[all_targets] * len(source_indices),
            k=self._num_targets,
            retriever_names=("full",),
        )


class FusedCandidateGenerator:
    """Rank fusion over the configured retrievers -> per-source top-k sets."""

    name = "fused"

    def __init__(
        self,
        source_docs: Sequence[AttributeDoc],
        target_docs: Sequence[AttributeDoc],
        retrievers: Sequence[Retriever],
        config: RetrievalConfig | None = None,
        stats: RetrievalStats | None = None,
    ) -> None:
        if not retrievers:
            raise ValueError("FusedCandidateGenerator needs at least one retriever")
        self.source_docs = list(source_docs)
        self.target_docs = list(target_docs)
        self.retrievers = list(retrievers)
        self.config = config or RetrievalConfig()
        self.stats = stats or RetrievalStats()

    @property
    def num_targets(self) -> int:
        return len(self.target_docs)

    def fused_matrix(self) -> np.ndarray:
        return self._fuse_queries(self.source_docs)

    def _fuse_queries(self, queries: Sequence[AttributeDoc]) -> np.ndarray:
        matrices: list[np.ndarray] = []
        weights: list[float] = []
        for retriever in self.retrievers:
            with self.stats.timer(f"score.{retriever.name}"):
                matrices.append(retriever.score_matrix(queries))
            weights.append(float(self.config.weights.get(retriever.name, 1.0)))
        with self.stats.timer("fuse"):
            if len(matrices) == 1:
                return matrices[0].astype(np.float64)
            return rrf_fuse(matrices, weights, rrf_k=self.config.rrf_k)

    def _rank(self, fused: np.ndarray, k: int) -> list[np.ndarray]:
        with self.stats.timer("rank"):
            order = np.argsort(-fused, axis=1, kind="stable")[:, : min(k, fused.shape[1])]
        return [row.copy() for row in order]

    def generate(self, k: int) -> CandidateSets:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.stats.generations += 1
        fused = self.fused_matrix()
        return CandidateSets(
            per_source=self._rank(fused, k),
            k=min(k, fused.shape[1]),
            retriever_names=tuple(r.name for r in self.retrievers),
            fused_scores=fused,
        )

    # -- schema drift ---------------------------------------------------------

    def replace_source_docs(self, source_docs: Sequence[AttributeDoc]) -> None:
        """Swap the query-side docs after source-schema drift.

        Source docs are queries, not index content, so no retriever state
        needs rebuilding -- reciprocal-rank fusion ranks each query row
        independently, which is what makes :meth:`generate_for_sources`
        equivalent to slicing a full :meth:`generate`.
        """
        self.source_docs = list(source_docs)

    def generate_for_sources(
        self, source_indices: Sequence[int], k: int
    ) -> CandidateSets:
        """Candidate sets for a subset of sources (post-drift regeneration).

        Scores only ``len(source_indices)`` query rows against the target
        indexes; ``per_source[i]`` corresponds to ``source_indices[i]``.
        Identical to the matching rows of a full :meth:`generate`.
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
            fused_scores=fused,
        )

    def update_target_docs(
        self,
        added_docs: Sequence[AttributeDoc] = (),
        removed_refs: Sequence[AttributeRef] = (),
    ) -> None:
        """Evolve the target side in place: append/remove docs per retriever.

        Every retriever mutates its existing index (new postings / index
        rows) instead of rebuilding from scratch; removed docs are addressed
        by ref.  Target indices shift when docs are removed -- callers must
        regenerate their candidate sets afterwards.
        """
        removed = set(removed_refs)
        if removed:
            self.target_docs = [
                doc for doc in self.target_docs if doc.ref not in removed
            ]
        self.target_docs.extend(added_docs)
        for retriever in self.retrievers:
            with self.stats.timer(f"update.{retriever.name}"):
                retriever.update_docs(added_docs, removed)

    def refresh(self) -> bool:
        """No-op kept for the end-to-end benchmark's span table, which
        patches it by name: every retriever is frozen, so candidate sets
        never go stale on a model update."""
        return False
