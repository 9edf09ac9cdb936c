"""In-place index updates under schema drift, and store-key staleness.

The drift path mutates retrieval indexes in place (`update_docs`) instead
of rebuilding them; these tests pin the contract that an updated index is
*indistinguishable* from one rebuilt from scratch over the same doc set --
bit for bit for BM25, whose candidate sets rank exact scores.

`TestStoreKeyStaleness` is the regression suite for the persisted-index
key: the key must hash the indexed document *contents*, so an index built
for a mutated schema can never be served from a stale cache entry that
only matched on artefact provenance.
"""

import numpy as np
import pytest

from repro.retrieval import (
    DenseRetriever,
    FusedCandidateGenerator,
    RetrievalStats,
    SparseRetriever,
    docs_from_refs,
)
from repro.schema import AttributeRef, RenameColumn, SchemaDelta, apply_delta

from ..conftest import make_target_schema


@pytest.fixture()
def source_docs(source_schema):
    return docs_from_refs(source_schema, source_schema.attribute_refs())


@pytest.fixture()
def target_docs(target_schema):
    return docs_from_refs(target_schema, target_schema.attribute_refs())


def _extra_doc(name="launch_window", entity="Transaction"):
    from repro.retrieval.base import AttributeDoc
    from repro.text.tokenize import split_identifier

    return AttributeDoc(
        ref=AttributeRef(entity, name),
        name_tokens=tuple(split_identifier(name)),
        description_tokens=("scheduled", "launch", "window"),
        entity_tokens=tuple(split_identifier(entity)),
        dtype_family="temporal",
    )


class TestSparseUpdateDocs:
    def test_update_matches_rebuild(self, source_docs, target_docs):
        added = [_extra_doc()]
        removed = {target_docs[1].ref, target_docs[4].ref}
        evolved_docs = [d for d in target_docs if d.ref not in removed] + added

        updated = SparseRetriever(target_docs)
        updated.update_docs(added, removed)
        rebuilt = SparseRetriever(evolved_docs)

        assert [d.ref for d in updated.target_docs] == [
            d.ref for d in rebuilt.target_docs
        ]
        np.testing.assert_array_equal(
            updated.score_matrix(source_docs), rebuilt.score_matrix(source_docs)
        )

    def test_remove_only_and_add_only(self, source_docs, target_docs):
        remove_only = SparseRetriever(target_docs)
        remove_only.update_docs([], {target_docs[0].ref})
        assert remove_only.num_targets == len(target_docs) - 1
        np.testing.assert_array_equal(
            remove_only.score_matrix(source_docs),
            SparseRetriever(target_docs[1:]).score_matrix(source_docs),
        )

        add_only = SparseRetriever(target_docs)
        add_only.update_docs([_extra_doc()], set())
        assert add_only.num_targets == len(target_docs) + 1
        np.testing.assert_array_equal(
            add_only.score_matrix(source_docs),
            SparseRetriever(target_docs + [_extra_doc()]).score_matrix(source_docs),
        )

    def test_saturations_follow_the_average_length(self, source_docs, target_docs):
        """A long added doc moves the average length, so every surviving
        doc's saturation changes; stale ones would miss the rebuild."""
        long_doc = _extra_doc("lifetime_value_estimate_adjusted_for_returns")
        retriever = SparseRetriever(target_docs)
        before = retriever._length_norm.copy()
        retriever.update_docs([long_doc], set())
        assert not np.array_equal(retriever._length_norm[: len(before)], before)
        np.testing.assert_array_equal(
            retriever.score_matrix(source_docs),
            SparseRetriever(target_docs + [long_doc]).score_matrix(source_docs),
        )

    def test_noop_update(self, source_docs, target_docs):
        retriever = SparseRetriever(target_docs)
        before = retriever.score_matrix(source_docs)
        retriever.update_docs([], set())
        np.testing.assert_array_equal(retriever.score_matrix(source_docs), before)


class TestDenseUpdateDocs:
    def test_update_matches_rebuild(self, tiny_artifacts, source_docs, target_docs):
        added = [_extra_doc()]
        removed = {target_docs[2].ref}
        evolved_docs = [d for d in target_docs if d.ref not in removed] + added

        updated = DenseRetriever(tiny_artifacts.embeddings, target_docs)
        updated.update_docs(added, removed)
        rebuilt = DenseRetriever(tiny_artifacts.embeddings, evolved_docs)

        np.testing.assert_allclose(
            updated.score_matrix(source_docs),
            rebuilt.score_matrix(source_docs),
            atol=1e-6,
        )

    def test_evolved_index_not_persisted(
        self, tiny_artifacts, target_docs, tmp_path, monkeypatch
    ):
        """The store entry stays keyed by the doc set it was built from: an
        in-place update must not overwrite it with the evolved index."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        stats = RetrievalStats()
        retriever = DenseRetriever(
            tiny_artifacts.embeddings, target_docs, cache_token="tok", stats=stats
        )
        retriever.update_docs([], {target_docs[0].ref})
        # A fresh retriever over the *original* docs still gets the
        # original (full-size) index from the store.
        again = DenseRetriever(
            tiny_artifacts.embeddings, target_docs, cache_token="tok", stats=stats
        )
        assert stats.index_cache_hits == 1
        assert again._index.shape[0] == len(target_docs)


class TestGeneratorUpdate:
    def test_generate_for_sources_matches_full_generate(
        self, tiny_artifacts, source_docs, target_docs
    ):
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

    def test_update_target_docs_propagates_to_all_retrievers(
        self, tiny_artifacts, source_docs, target_docs
    ):
        added = [_extra_doc()]
        removed = {target_docs[0].ref}
        evolved_docs = [d for d in target_docs if d.ref not in removed] + added

        generator = FusedCandidateGenerator(
            source_docs,
            target_docs,
            [
                SparseRetriever(target_docs),
                DenseRetriever(tiny_artifacts.embeddings, target_docs),
            ],
        )
        generator.update_target_docs(added, removed)
        rebuilt = FusedCandidateGenerator(
            source_docs,
            evolved_docs,
            [
                SparseRetriever(evolved_docs),
                DenseRetriever(tiny_artifacts.embeddings, evolved_docs),
            ],
        )
        assert generator.num_targets == rebuilt.num_targets
        updated_sets = generator.generate(k=3)
        rebuilt_sets = rebuilt.generate(k=3)
        for a, b in zip(updated_sets.per_source, rebuilt_sets.per_source):
            np.testing.assert_array_equal(a, b)


class TestStoreKeyStaleness:
    """Satellite regression: persisted retrieval indexes must key on the
    indexed document contents, not just artefact provenance."""

    def test_mutated_schema_rebuilds_dense_index(
        self, tiny_artifacts, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        schema = make_target_schema()
        docs = docs_from_refs(schema, schema.attribute_refs())
        stats = RetrievalStats()
        DenseRetriever(
            tiny_artifacts.embeddings, docs, cache_token="tok", stats=stats
        )
        assert stats.index_builds == 1

        # Same artefacts, same cache token -- but one column was renamed.
        evolved, _ = apply_delta(
            schema,
            SchemaDelta(
                (RenameColumn(AttributeRef("Product", "product_name"), "title"),)
            ),
        )
        evolved_docs = docs_from_refs(evolved, evolved.attribute_refs())
        DenseRetriever(
            tiny_artifacts.embeddings, evolved_docs, cache_token="tok", stats=stats
        )
        assert stats.index_builds == 2
        assert stats.index_cache_hits == 0

    def test_description_change_rebuilds_dense_index(
        self, tiny_artifacts, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        schema = make_target_schema()
        docs = docs_from_refs(schema, schema.attribute_refs())
        stats = RetrievalStats()
        DenseRetriever(
            tiny_artifacts.embeddings, docs, cache_token="tok", stats=stats
        )
        mutated = list(docs)
        mutated[0] = _extra_doc(name=docs[0].ref.attribute, entity=docs[0].ref.entity)
        DenseRetriever(
            tiny_artifacts.embeddings, mutated, cache_token="tok", stats=stats
        )
        assert stats.index_builds == 2
