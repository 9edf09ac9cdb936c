"""Tests for fusion and the candidate-generator layer."""

import numpy as np
import pytest

from repro.retrieval import (
    AttributeDoc,
    DenseRetriever,
    FusedCandidateGenerator,
    RetrievalConfig,
    RetrievalStats,
    SparseRetriever,
    build_generator,
    docs_from_refs,
    rrf_fuse,
)
from repro.schema import AttributeRef


class _StubRetriever:
    def __init__(self, name, matrix):
        self.name = name
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def score_matrix(self, queries):
        return self.matrix


def _docs(n, prefix):
    return [
        AttributeDoc(
            ref=AttributeRef("E", f"{prefix}{i}"),
            name_tokens=(f"{prefix}{i}",),
            description_tokens=(),
            entity_tokens=("e",),
        )
        for i in range(n)
    ]


class TestFusion:
    def test_rrf_agreement_wins(self):
        # Both retrievers rank target 2 first -> it must fuse first.
        a = np.array([[0.1, 0.2, 0.9]])
        b = np.array([[5.0, 1.0, 9.0]])
        fused = rrf_fuse([a, b], [1.0, 1.0])
        assert int(np.argmax(fused)) == 2

    def test_rrf_is_scale_free(self):
        a = np.array([[0.1, 0.2, 0.9]])
        fused_small = rrf_fuse([a], [1.0])
        fused_big = rrf_fuse([a * 1000], [1.0])
        np.testing.assert_allclose(fused_small, fused_big)

    def test_rrf_weighting_breaks_disagreement(self):
        a = np.array([[1.0, 0.0]])  # prefers target 0
        b = np.array([[0.0, 1.0]])  # prefers target 1
        heavy_a = rrf_fuse([a, b], [3.0, 1.0])
        heavy_b = rrf_fuse([a, b], [1.0, 3.0])
        assert int(np.argmax(heavy_a)) == 0
        assert int(np.argmax(heavy_b)) == 1

    def test_rrf_ties_break_by_target_index(self):
        a = np.array([[0.5, 0.5, 0.5]])
        fused = rrf_fuse([a], [1.0])
        assert list(np.argsort(-fused[0], kind="stable")) == [0, 1, 2]


class TestFusedCandidateGenerator:
    def test_topk_follows_fused_ranking(self):
        sources, targets = _docs(2, "s"), _docs(4, "t")
        matrix = np.array([[0.9, 0.1, 0.5, 0.3], [0.0, 0.2, 0.1, 0.8]])
        generator = FusedCandidateGenerator(
            sources, targets, [_StubRetriever("dense", matrix)]
        )
        sets = generator.generate(k=2)
        assert list(sets.per_source[0]) == [0, 2]
        assert list(sets.per_source[1]) == [3, 1]
        assert sets.k == 2
        assert sets.retriever_names == ("dense",)

    def test_k_clamped_to_num_targets(self):
        sources, targets = _docs(1, "s"), _docs(3, "t")
        generator = FusedCandidateGenerator(
            sources, targets, [_StubRetriever("dense", np.zeros((1, 3)))]
        )
        sets = generator.generate(k=100)
        assert sets.k == 3
        assert sets.per_source[0].size == 3

    def test_candidate_set_helpers(self):
        sources, targets = _docs(1, "s"), _docs(4, "t")
        matrix = np.array([[0.1, 0.9, 0.5, 0.0]])
        generator = FusedCandidateGenerator(
            sources, targets, [_StubRetriever("dense", matrix)]
        )
        sets = generator.generate(k=2)
        assert sets.rank_of(0, 1) == 0
        assert sets.rank_of(0, 2) == 1
        assert sets.rank_of(0, 3) is None

    def test_generation_counted(self):
        stats = RetrievalStats()
        generator = FusedCandidateGenerator(
            _docs(1, "s"),
            _docs(2, "t"),
            [_StubRetriever("dense", np.zeros((1, 2)))],
            stats=stats,
        )
        generator.generate(k=1)
        generator.generate(k=1)
        assert stats.generations == 2
        generator.generate_for_sources([0], k=1)
        assert stats.generations == 3

    def test_requires_a_retriever(self):
        with pytest.raises(ValueError):
            FusedCandidateGenerator(_docs(1, "s"), _docs(1, "t"), [])

    def test_invalid_k(self):
        generator = FusedCandidateGenerator(
            _docs(1, "s"), _docs(1, "t"), [_StubRetriever("dense", np.zeros((1, 1)))]
        )
        with pytest.raises(ValueError):
            generator.generate(k=0)

    def test_generate_for_sources_matches_full_generate(
        self, tiny_artifacts, source_schema, target_schema
    ):
        source_docs = docs_from_refs(source_schema, source_schema.attribute_refs())
        target_docs = docs_from_refs(target_schema, target_schema.attribute_refs())
        generator = FusedCandidateGenerator(
            source_docs,
            target_docs,
            [
                SparseRetriever(target_docs),
                DenseRetriever(tiny_artifacts.embeddings, target_docs),
            ],
        )
        full = generator.generate(k=3)
        some = [0, 2, 5]
        partial = generator.generate_for_sources(some, k=3)
        assert partial.k == full.k
        for row, source_index in enumerate(some):
            np.testing.assert_array_equal(
                partial.per_source[row], full.per_source[source_index]
            )


class TestRetrievalConfig:
    def test_rejects_unknown_generator(self):
        # Fused retrieval is the only generator; there is no selector knob.
        with pytest.raises(TypeError):
            RetrievalConfig(generator="full")

    def test_rejects_unknown_fusion(self):
        # Reciprocal-rank fusion is the only fusion; there is no mode knob.
        with pytest.raises(TypeError):
            RetrievalConfig(fusion="score")


class TestBuildGenerator:
    @pytest.fixture()
    def docs(self, source_schema, target_schema):
        return (
            docs_from_refs(source_schema, source_schema.attribute_refs()),
            docs_from_refs(target_schema, target_schema.attribute_refs()),
        )

    def test_sparse_only(self, docs):
        source_docs, target_docs = docs
        generator = build_generator(
            source_docs,
            target_docs,
            RetrievalConfig(use_dense=False, use_sparse=True),
        )
        assert isinstance(generator, FusedCandidateGenerator)
        assert [r.name for r in generator.retrievers] == ["sparse"]

    def test_dense_without_embeddings_falls_back(self, docs):
        """Dense is requested but no embeddings are available: only the
        retrievers whose dependencies exist are built."""
        source_docs, target_docs = docs
        generator = build_generator(
            source_docs,
            target_docs,
            RetrievalConfig(use_dense=True, use_sparse=True),
            embeddings=None,
        )
        assert [r.name for r in generator.retrievers] == ["sparse"]

    def test_nothing_available_raises(self, docs):
        """No usable retriever is a configuration error, not a silent
        full product: without a candidate budget the matcher holds no
        generator at all."""
        source_docs, target_docs = docs
        with pytest.raises(ValueError):
            build_generator(
                source_docs,
                target_docs,
                RetrievalConfig(use_dense=True, use_sparse=False),
                embeddings=None,
            )
        with pytest.raises(ValueError):
            build_generator(
                source_docs,
                target_docs,
                RetrievalConfig(use_dense=False, use_sparse=False),
            )

    def test_dense_and_sparse(self, docs, tiny_artifacts):
        source_docs, target_docs = docs
        generator = build_generator(
            source_docs,
            target_docs,
            RetrievalConfig(),
            embeddings=tiny_artifacts.embeddings,
        )
        names = [r.name for r in generator.retrievers]
        assert names == ["sparse", "dense"] or names == ["dense", "sparse"]
        sets = generator.generate(k=3)
        assert sets.num_sources == len(source_docs)
        assert all(row.size == 3 for row in sets.per_source)
