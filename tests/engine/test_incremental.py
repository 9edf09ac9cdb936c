"""Incremental re-scoring: only dirty pairs re-run BERT, rankings stay exact.

Regression suite for acceptance criterion 3: after ``record_match`` +
``predict()``, the engine counters prove the clean pairs were served from
the fingerprint cache (>= 50% skipped), and the warm rankings match a cold
full recompute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LsmConfig
from repro.core.matcher import LearnedSchemaMatcher
from repro.engine import EngineConfig, ScoringEngine
from repro.featurizers.bert import MatchingClassifier
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig

from .test_batching import encoded_of_length


@pytest.fixture()
def incremental_config() -> LsmConfig:
    # A huge update threshold isolates incremental re-scoring from
    # retraining: one label must not touch the BERT weights, so every
    # unchanged pair stays clean.  Without the dtype filter the cold pass
    # scores every row: no row waits for the first label (stage 0, see
    # tests/core/test_dtype_skip.py).
    return LsmConfig(
        update_bert_every=10**9,
        apply_dtype_filter=False,
        engine=EngineConfig(microbatch_size=16),
    )


def make_matcher(tiny_artifacts, source_schema, target_schema, config) -> LearnedSchemaMatcher:
    return LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )


class TestMatcherIncrementalRescoring:
    def test_second_predict_skips_clean_pairs(
        self, tiny_artifacts, source_schema, target_schema, ground_truth, incremental_config
    ):
        matcher = make_matcher(
            tiny_artifacts, source_schema, target_schema, incremental_config
        )
        try:
            stats = matcher.bert_featurizer.engine.stats
            matcher.predict()
            num_pairs = matcher.store.num_pairs
            assert stats.pairs_scored == num_pairs  # cold pass scored everything
            assert stats.pairs_skipped == 0

            source, target = next(iter(ground_truth.items()))
            matcher.record_match(source, target)
            matcher.predict()

            # No weights changed, so the warm pass re-featurized nothing.
            assert stats.pairs_scored == num_pairs
            assert stats.pairs_skipped == num_pairs
            # Acceptance criterion: >= 50% of pair scorings skipped overall.
            assert stats.skip_fraction >= 0.5
            assert stats.invalidations == 1  # pretrain only
        finally:
            matcher.close()

    def test_warm_rankings_match_cold_recompute(
        self, tiny_artifacts, source_schema, target_schema, ground_truth, incremental_config
    ):
        source, target = next(iter(ground_truth.items()))

        warm = make_matcher(
            tiny_artifacts, source_schema, target_schema, incremental_config
        )
        try:
            warm.predict()
            warm.record_match(source, target)
            warm_predictions = warm.predict()
        finally:
            warm.close()

        cold = make_matcher(
            tiny_artifacts, source_schema, target_schema, incremental_config
        )
        try:
            cold.record_match(source, target)
            cold_predictions = cold.predict()
            assert cold.bert_featurizer.engine.stats.pairs_skipped == 0
        finally:
            cold.close()

        np.testing.assert_allclose(
            warm_predictions.scores, cold_predictions.scores, atol=1e-8, rtol=0
        )
        for ref, suggested in warm_predictions.suggestions.items():
            assert [t for t, _ in suggested] == [
                t for t, _ in cold_predictions.suggestions[ref]
            ]

    def test_update_rescores_only_live_rows(
        self, tiny_artifacts, source_schema, target_schema, ground_truth
    ):
        config = LsmConfig(
            update_bert_every=1,
            engine=EngineConfig(microbatch_size=16),
        )
        matcher = make_matcher(tiny_artifacts, source_schema, target_schema, config)
        try:
            stats = matcher.bert_featurizer.engine.stats
            matcher.predict()
            num_pairs = matcher.store.num_pairs
            filtered = stats.pairs_filtered
            source, target = next(iter(ground_truth.items()))
            rows = matcher.store.pairs_of_source(source)
            siblings = rows.size
            # The matched source's filtered rows are scored under the model
            # before the update, then freeze with the other implied negatives.
            prescored = int(np.count_nonzero(~matcher.store.current[rows]))
            assert prescored > 0
            matcher.record_match(source, target)
            requested = stats.pairs_requested
            matcher.predict()  # triggers a BERT update
            assert stats.invalidations >= 2  # pretrain + label update
            # Every other source's rows plus the positive rescore; the
            # matched source's implied negatives stay frozen.
            live = num_pairs - siblings + 1
            assert stats.pairs_scored == num_pairs - filtered + prescored + live
            # Frozen rows count as neither requested nor skipped.
            assert stats.pairs_requested - requested == prescored + live
        finally:
            matcher.close()


@pytest.fixture(scope="module")
def engine_stack():
    model = MiniBert(
        BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                   intermediate_size=32, max_position=32),
        seed=0,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    classifier.eval()
    return model, classifier, [0, 1, 2, 3, 4]


class TestEngineLevelIncrementalRescoring:
    def test_only_new_pairs_are_scored(self, engine_stack):
        model, classifier, special_ids = engine_stack
        engine = ScoringEngine(model, classifier, special_ids)
        try:
            first = [encoded_of_length(length, fill=5) for length in (4, 8, 12)]
            engine.score_encoded(first)
            assert engine.stats.pairs_scored == 3

            fresh = [encoded_of_length(16, fill=6), encoded_of_length(20, fill=6)]
            engine.score_encoded(first + fresh)
            assert engine.stats.pairs_scored == 5  # only the two new pairs
            assert engine.stats.pairs_skipped == 3
        finally:
            engine.close()

    def test_weight_change_invalidates_scores(self, engine_stack):
        model, classifier, special_ids = engine_stack
        engine = ScoringEngine(model, classifier, special_ids)
        try:
            encoded = [encoded_of_length(length, fill=5) for length in (4, 8, 12)]
            before = engine.score_encoded(encoded)
            classifier.scalar_path.bias.value[:] += 0.5
            engine.invalidate_model()
            after = engine.score_encoded(encoded)
            assert engine.stats.pairs_scored == 6  # everything re-ran
            assert not np.allclose(before, after)
        finally:
            classifier.scalar_path.bias.value[:] -= 0.5
            engine.close()
