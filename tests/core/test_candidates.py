"""Tests for the candidate-pair store."""

import numpy as np
import pytest

from repro.core import NEGATIVE, POSITIVE, UNLABELED, CandidateStore
from repro.schema import AttributeRef

from ..conftest import top_k_sets


@pytest.fixture()
def store(source_schema, target_schema):
    return CandidateStore(source_schema, target_schema)


class TestPreparation:
    def test_cartesian_product(self, store, source_schema, target_schema):
        assert store.num_pairs == source_schema.num_attributes * target_schema.num_attributes
        assert store.num_sources == source_schema.num_attributes
        assert store.num_targets == target_schema.num_attributes

    def test_all_labels_start_unlabeled(self, store):
        assert (store.labels == UNLABELED).all()

    def test_pair_lookup(self, store):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "quantity")
        pair_id = store.pair_id(source, target)
        assert pair_id is not None
        view = store.view(pair_id)
        assert view.source_ref == source
        assert view.target_ref == target

    def test_pairs_of_source(self, store, target_schema):
        pairs = store.pairs_of_source(AttributeRef("Orders", "qty"))
        assert pairs.size == target_schema.num_attributes


class TestLabels:
    def test_set_positive_marks_others_negative(self, store):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "quantity")
        store.set_positive(source, target)
        pair_ids = store.pairs_of_source(source)
        labels = store.labels[pair_ids]
        assert (labels == POSITIVE).sum() == 1
        assert (labels == NEGATIVE).sum() == pair_ids.size - 1
        assert store.matched_target_of(source) == target

    def test_set_negative(self, store):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "tax_amount")
        store.set_negative(source, target)
        assert store.labels[store.pair_id(source, target)] == NEGATIVE

    def test_set_negative_never_overrides_positive(self, store):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "quantity")
        store.set_positive(source, target)
        store.set_negative(source, target)
        assert store.labels[store.pair_id(source, target)] == POSITIVE

    def test_repositioning_a_match(self, store):
        source = AttributeRef("Orders", "qty")
        store.set_positive(source, AttributeRef("Transaction", "quantity"))
        store.set_positive(source, AttributeRef("Transaction", "tax_amount"))
        assert store.matched_target_of(source) == AttributeRef("Transaction", "tax_amount")
        assert len(store.matched_sources()) == 1

    def test_matched_and_unmatched_partition(self, store, source_schema):
        source = AttributeRef("Orders", "qty")
        store.set_positive(source, AttributeRef("Transaction", "quantity"))
        matched = store.matched_sources()
        unmatched = store.unmatched_sources()
        assert matched == [source]
        assert len(unmatched) == source_schema.num_attributes - 1
        assert source not in unmatched

    def test_matched_target_entities(self, store):
        store.set_positive(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        assert store.matched_target_entities() == {"Transaction"}


class TestPruning:
    def test_prune_keeps_top_per_source(self, store, rng):
        scores = rng.random(store.num_pairs)
        store.apply_candidate_sets(top_k_sets(store, 3, scores))
        for source_index in range(store.num_sources):
            assert (store.pair_source == source_index).sum() == 3

    def test_prune_retains_labeled_pairs(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "quantity")
        pair_id = store.pair_id(source, target)
        scores = np.zeros(store.num_pairs)
        scores[pair_id] = -1.0  # worst score: would be pruned if unlabeled
        store.set_positive(source, target)
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        assert store.pair_id(source, target) is not None
        assert store.matched_target_of(source) == target

    def test_prune_noop_when_keep_exceeds_targets(self, store, rng):
        before = store.num_pairs
        sets = top_k_sets(store, 10_000, rng.random(store.num_pairs))
        assert store.apply_candidate_sets(sets) == (0, 0)
        assert store.num_pairs == before

    def test_ensure_pair_restores_pruned_pair(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Brand", "brand_name")
        scores = rng.random(store.num_pairs)
        scores[store.pair_id(source, target)] = -10.0
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        assert store.pair_id(source, target) is None
        pair_id = store.ensure_pair(source, target)
        assert store.pair_id(source, target) == pair_id
        assert store.labels[pair_id] == UNLABELED

    def test_set_positive_after_pruning(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Brand", "brand_name")
        scores = rng.random(store.num_pairs)
        scores[store.pair_id(source, target)] = -10.0
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        store.set_positive(source, target)  # must not raise
        assert store.matched_target_of(source) == target

    def test_set_negative_after_pruning(self, store, rng):
        """Regression: rejecting a pair blocking pruned used to no-op
        silently, dropping the user's feedback on the floor."""
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Brand", "brand_name")
        scores = rng.random(store.num_pairs)
        scores[store.pair_id(source, target)] = -10.0
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        assert store.pair_id(source, target) is None  # really was pruned
        store.set_negative(source, target)
        pair_id = store.pair_id(source, target)
        assert pair_id is not None
        assert store.labels[pair_id] == NEGATIVE
        assert store.label_explicit[pair_id]

    def test_negative_feedback_survives_repruning(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Brand", "brand_name")
        scores = rng.random(store.num_pairs)
        scores[store.pair_id(source, target)] = -10.0
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        store.set_negative(source, target)
        # A later pruning pass (e.g. post-drift regeneration) must keep it.
        store.apply_candidate_sets(
            [np.array([0, 1]) for _ in range(store.num_sources)]
        )
        pair_id = store.pair_id(source, target)
        assert pair_id is not None
        assert store.labels[pair_id] == NEGATIVE


class TestLabelProvenance:
    def test_explicit_flags(self, store):
        source = AttributeRef("Orders", "qty")
        store.set_negative(source, AttributeRef("Transaction", "tax_amount"))
        store.set_positive(source, AttributeRef("Transaction", "quantity"))
        explicit = store.explicit_ids()
        # Exactly the direct actions: one rejection + one acceptance.
        assert explicit.size == 2
        labels = sorted(store.labels[explicit])
        assert labels == [NEGATIVE, POSITIVE]

    def test_implied_negatives_not_informative(self, store):
        source = AttributeRef("Orders", "qty")
        store.set_positive(source, AttributeRef("Transaction", "quantity"))
        informative = store.informative_ids()
        assert informative.size == 1  # just the positive
        assert (store.labels == NEGATIVE).sum() == store.num_targets - 1

    def test_informative_includes_explicit_negatives(self, store):
        store.set_negative(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "tax_amount")
        )
        store.set_positive(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        store.set_positive(
            AttributeRef("Item", "ean"),
            AttributeRef("Product", "european_article_number"),
        )
        informative = store.informative_ids()
        assert informative.size == 3  # 2 positives + 1 explicit negative

    def test_explicit_flag_survives_pruning(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "tax_amount")
        store.set_negative(source, target)
        store.apply_candidate_sets(
            top_k_sets(store, 2, rng.random(store.num_pairs))
        )
        pair_id = store.pair_id(source, target)
        assert store.label_explicit[pair_id]
        assert pair_id in store.informative_ids()


class TestSourceGroups:
    """The cached per-source pair-id lists must track every reshape.

    Regression: the prediction rank loop used to rescan ``flatnonzero``
    per source; the cache replacing it must be invalidated by pruning and
    pair re-addition or ranking would silently use stale pair ids.
    """

    def _assert_groups_consistent(self, store):
        seen = 0
        for source_index in range(store.num_sources):
            pair_ids = store.pairs_of_source_index(source_index)
            assert (store.pair_source[pair_ids] == source_index).all()
            seen += pair_ids.size
        assert seen == store.num_pairs

    def test_groups_cover_initial_product(self, store):
        self._assert_groups_consistent(store)

    def test_groups_invalidated_by_prune(self, store, rng):
        store.pairs_of_source_index(0)  # populate the cache
        store.apply_candidate_sets(
            top_k_sets(store, 3, rng.random(store.num_pairs))
        )
        self._assert_groups_consistent(store)
        assert store.pairs_of_source_index(0).size == 3

    def test_groups_invalidated_by_ensure_pair(self, store, rng):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Brand", "brand_name")
        scores = rng.random(store.num_pairs)
        scores[store.pair_id(source, target)] = -10.0
        store.apply_candidate_sets(top_k_sets(store, 2, scores))
        store.pairs_of_source_index(0)  # populate the cache
        pair_id = store.ensure_pair(source, target)
        self._assert_groups_consistent(store)
        assert pair_id in store.pairs_of_source(source)

    def test_groups_invalidated_by_apply_candidate_sets(self, store):
        store.pairs_of_source_index(0)  # populate the cache
        store.apply_candidate_sets(
            [np.array([0, 2, 4]) for _ in range(store.num_sources)]
        )
        self._assert_groups_consistent(store)
        for source_index in range(store.num_sources):
            assert store.pairs_of_source_index(source_index).size == 3

    def test_groups_agree_with_flatnonzero(self, store, rng):
        store.apply_candidate_sets(
            top_k_sets(store, 4, rng.random(store.num_pairs))
        )
        for source_index in range(store.num_sources):
            expected = np.flatnonzero(store.pair_source == source_index)
            np.testing.assert_array_equal(
                np.sort(store.pairs_of_source_index(source_index)), expected
            )


class TestApplyCandidateSets:
    def test_prunes_to_allowed_targets(self, store):
        added, removed = store.apply_candidate_sets(
            [np.array([0, 1]) for _ in range(store.num_sources)]
        )
        assert added == 0
        assert removed == store.num_sources * (store.num_targets - 2)
        assert store.num_pairs == store.num_sources * 2

    def test_readds_missing_pairs(self, store):
        store.apply_candidate_sets([np.array([0]) for _ in range(store.num_sources)])
        added, removed = store.apply_candidate_sets(
            [np.array([0, 1, 2]) for _ in range(store.num_sources)]
        )
        assert removed == 0
        assert added == store.num_sources * 2
        assert store.num_pairs == store.num_sources * 3
        self_check = [
            store.pairs_of_source_index(i).size for i in range(store.num_sources)
        ]
        assert self_check == [3] * store.num_sources

    def test_labeled_pairs_survive(self, store):
        source = AttributeRef("Orders", "qty")
        target = AttributeRef("Transaction", "quantity")
        store.set_positive(source, target)
        target_index = store.target_index(target)
        disallowed = np.array([t for t in range(3) if t != target_index])
        store.apply_candidate_sets(
            [disallowed for _ in range(store.num_sources)]
        )
        assert store.matched_target_of(source) == target
        # The implied sibling negatives survive too (they are labeled).
        pair_ids = store.pairs_of_source(source)
        assert (store.labels[pair_ids] != UNLABELED).all()

    def test_misaligned_sets_rejected(self, store):
        with pytest.raises(ValueError):
            store.apply_candidate_sets([np.array([0])])

    def test_roundtrip_is_stable(self, store):
        sets = [np.array([1, 3, 5]) for _ in range(store.num_sources)]
        store.apply_candidate_sets(sets)
        added, removed = store.apply_candidate_sets(sets)
        assert (added, removed) == (0, 0)
