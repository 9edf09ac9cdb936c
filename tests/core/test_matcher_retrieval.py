"""Matcher-level tests of the retrieve-then-rerank candidate layer.

These cover generator-driven pruning instead of score-based blocking at
init, feedback on pruned pairs, the informative training subset fed to
BERT fine-tuning, score/mask alignment across prune -> ensure_pair ->
re-prune, and candidate sets that stay fixed across a BERT hot-swap.
"""

import numpy as np
import pytest

from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
)
from repro.core.scoring import dtype_compatibility_mask
from repro.featurizers.bert import BertFeaturizerConfig
from repro.retrieval import FusedCandidateGenerator
from repro.schema import AttributeRef


def _config(**overrides):
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
        ),
        seed=0,
        **overrides,
    )


@pytest.fixture()
def pruned_matcher(source_schema, target_schema, tiny_artifacts):
    matcher = LearnedSchemaMatcher(
        source_schema,
        target_schema,
        config=_config(max_candidates_per_source=4),
        artifacts=tiny_artifacts,
    )
    yield matcher
    matcher.close()


class TestGeneratorPruning:
    def test_pruning_shrinks_pair_set(self, pruned_matcher):
        store = pruned_matcher.store
        assert store.num_pairs < store.num_sources * store.num_targets
        assert store.num_pairs == store.num_sources * 4
        assert isinstance(pruned_matcher.generator, FusedCandidateGenerator)

    def test_stats_record_reduction(self, pruned_matcher):
        stats = pruned_matcher.retrieval_stats
        store = pruned_matcher.store
        assert stats.pairs_full_product == store.num_sources * store.num_targets
        assert stats.pairs_after_pruning == store.num_pairs
        assert stats.generations == 1

    def test_no_generator_without_blocking(
        self, source_schema, target_schema, tiny_artifacts
    ):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=_config(), artifacts=tiny_artifacts
        )
        assert matcher.generator is None
        store = matcher.store
        assert store.num_pairs == store.num_sources * store.num_targets
        matcher.close()

    def test_pruned_ground_truth_recall(
        self, source_schema, target_schema, tiny_artifacts, ground_truth
    ):
        """At k=6 (the tiny task's minimal full-recall k) the fused generator
        keeps every true match -- the recall property that makes blocking
        safe."""
        matcher = LearnedSchemaMatcher(
            source_schema,
            target_schema,
            config=_config(max_candidates_per_source=6),
            artifacts=tiny_artifacts,
        )
        store = matcher.store
        for source, target in ground_truth.items():
            assert store.pair_id(source, target) is not None, (
                f"blocking dropped ground-truth pair {source} -> {target}"
            )
        matcher.close()


class TestFeedbackOnPrunedPairs:
    def test_record_rejected_on_pruned_pair_lands(self, pruned_matcher):
        """Regression (the ISSUE-6 headline bug): rejecting a suggestion the
        blocking step pruned must create the negative, not no-op."""
        store = pruned_matcher.store
        source = AttributeRef("Orders", "qty")
        pruned_away = [
            target
            for target in store.target_refs
            if store.pair_id(source, target) is None
        ]
        assert pruned_away, "need at least one pruned pair for the regression"
        target = pruned_away[0]
        pruned_matcher.record_rejected(source, [target])
        pair_id = store.pair_id(source, target)
        assert pair_id is not None
        assert store.labels[pair_id] == 0
        assert store.label_explicit[pair_id]

    def test_record_match_on_pruned_pair_lands(self, pruned_matcher):
        store = pruned_matcher.store
        source = AttributeRef("Orders", "qty")
        pruned_away = [
            target
            for target in store.target_refs
            if store.pair_id(source, target) is None
        ]
        target = pruned_away[0]
        pruned_matcher.record_match(source, target)
        assert store.matched_target_of(source) == target

    def test_predict_scores_restored_pair(self, pruned_matcher):
        """After ensure_pair re-adds a pruned pair, predict() must produce a
        score for it -- arrays, views and the dtype mask stay aligned."""
        store = pruned_matcher.store
        source = AttributeRef("Orders", "order_date")
        pruned_away = [
            target
            for target in store.target_refs
            if store.pair_id(source, target) is None
        ]
        target = pruned_away[0]
        pruned_matcher.record_rejected(source, [target])
        predictions = pruned_matcher.predict()
        assert predictions.scores.shape[0] == store.num_pairs
        mask = dtype_compatibility_mask(store)
        assert mask.shape[0] == store.num_pairs
        # The §IV-D invariant holds over the reshaped pair set.
        assert np.count_nonzero(predictions.scores[~mask]) == 0


class TestScoreAlignmentAcrossReshapes:
    def test_prune_ensure_reprune_stays_aligned(self, pruned_matcher, ground_truth):
        """prune -> ensure_pair -> re-prune (the PR-4 fingerprint path): a
        full session over a reshaping store completes with aligned scores."""
        matcher = pruned_matcher
        source = AttributeRef("Orders", "qty")
        store = matcher.store
        pruned_away = [
            t for t in store.target_refs if store.pair_id(source, t) is None
        ]
        matcher.record_rejected(source, pruned_away[:2])  # ensure_pair x2
        matcher.predict()
        # Re-apply the candidate sets: labeled pairs must survive.
        sets = matcher.generator.generate(matcher.config.max_candidates_per_source)
        store.apply_candidate_sets(sets.per_source)
        for t in pruned_away[:2]:
            assert store.pair_id(source, t) is not None
        predictions = matcher.predict()
        assert predictions.scores.shape[0] == store.num_pairs

    def test_session_with_blocking_completes_and_loses_no_labels(
        self, source_schema, target_schema, tiny_artifacts, ground_truth
    ):
        matcher = LearnedSchemaMatcher(
            source_schema,
            target_schema,
            config=_config(max_candidates_per_source=3),
            artifacts=tiny_artifacts,
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        assert session.completed
        # Every confirmed label is still present in the store at the end.
        store = matcher.store
        assert len(store.matched_sources()) == source_schema.num_attributes
        assert session.result.accuracy_against(ground_truth) == pytest.approx(1.0)


class TestInformativeTrainingSubset:
    def test_bert_update_sees_only_informative_pairs(
        self, source_schema, target_schema, tiny_artifacts, ground_truth, monkeypatch
    ):
        """Fine-tuning receives positives + explicit negatives, not the mass
        of sibling negatives ``set_positive`` implies."""
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=_config(), artifacts=tiny_artifacts
        )
        seen = []
        monkeypatch.setattr(
            matcher.bert_featurizer,
            "update",
            lambda views, labels: seen.append((list(views), list(labels))),
        )
        source = AttributeRef("Orders", "qty")
        rejected = AttributeRef("Transaction", "tax_amount")
        matcher.record_rejected(source, [rejected])
        matcher.record_match(source, ground_truth[source])
        matcher.predict()
        assert len(seen) == 1
        views, labels = seen[0]
        # 1 positive + 1 explicit negative; the other ~11 implied sibling
        # negatives of the confirmed source are excluded.
        assert sorted(labels) == [0, 1]
        refs = {(v.source_ref, v.target_ref) for v in views}
        assert (source, ground_truth[source]) in refs
        assert (source, rejected) in refs
        matcher.close()


class TestHotSwapRefresh:
    """Every retriever is frozen (BM25 and subword phrase vectors), so a
    BERT update never regenerates the candidate sets."""

    def test_no_refresh_without_model_sensitive_retriever(self, pruned_matcher):
        stats = pruned_matcher.retrieval_stats
        pruned_matcher.record_match(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        generations_before = stats.generations
        pairs_before = pruned_matcher.store.num_pairs
        version_before = pruned_matcher.bert_featurizer.model_version
        pruned_matcher.predict()
        assert pruned_matcher.bert_featurizer.model_version > version_before
        assert stats.generations == generations_before
        assert pruned_matcher.store.num_pairs == pairs_before
