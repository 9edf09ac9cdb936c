"""Incremental re-scoring: only dirty pairs re-run BERT, rankings stay exact.

Regression suite for acceptance criterion 3: after ``record_match`` +
``predict()``, the engine counters prove the clean pairs were served from
the fingerprint cache (>= 50% skipped), and the warm rankings match a cold
full recompute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import store
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
    # unchanged pair stays clean.
    return LsmConfig(
        update_bert_every=10**9,
        engine=EngineConfig(persist_scores=False, microbatch_size=16),
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

    def test_update_marks_everything_dirty(
        self, tiny_artifacts, source_schema, target_schema, ground_truth
    ):
        config = LsmConfig(
            update_bert_every=1,
            engine=EngineConfig(persist_scores=False, microbatch_size=16),
        )
        matcher = make_matcher(tiny_artifacts, source_schema, target_schema, config)
        try:
            stats = matcher.bert_featurizer.engine.stats
            matcher.predict()
            num_pairs = matcher.store.num_pairs
            source, target = next(iter(ground_truth.items()))
            matcher.record_match(source, target)
            matcher.predict()  # triggers a BERT update -> full re-score
            assert stats.pairs_scored == 2 * num_pairs
            assert stats.invalidations >= 2  # pretrain + label update
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
        engine = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=False)
        )
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
        engine = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=False)
        )
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

    def test_scores_persist_across_engines(self, engine_stack, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        model, classifier, special_ids = engine_stack
        encoded = [encoded_of_length(length, fill=5) for length in (4, 8, 12, 16)]

        first = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=True),
            cache_token="test-vertical",
        )
        try:
            expected = first.score_encoded(encoded)
            assert first.stats.pairs_scored == 4
        finally:
            first.close()

        second = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=True),
            cache_token="test-vertical",
        )
        try:
            scores = second.score_encoded(encoded)
            np.testing.assert_allclose(scores, expected, atol=0, rtol=0)
            assert second.stats.pairs_scored == 0
            assert second.stats.pairs_persisted_hits == 4
        finally:
            second.close()

    def test_old_namespace_blocks_are_not_served(
        self, engine_stack, tmp_path, monkeypatch
    ):
        """Score blocks are keyed by weights, not by the forward's rounding:
        a block persisted under an earlier namespace must be recomputed,
        never mixed into today's scores.  ``-v1`` held the ``powf`` GELU's
        rounding, ``-v2`` the numpy-reduction LayerNorm and softmax."""
        model, classifier, special_ids = engine_stack
        encoded = [encoded_of_length(length, fill=7) for length in (4, 8, 12)]

        fresh = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=False)
        )
        try:
            expected = fresh.score_encoded(encoded)
        finally:
            fresh.close()

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "current"))
        writer = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=True),
            cache_token="test-vertical",
        )
        try:
            writer.score_encoded(encoded)
            block = store.load_arrays("engine-scores", writer._store_key())
            weights_key = writer._current_weights_key()
        finally:
            writer.close()
        assert block is not None

        reloaded = ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=True),
            cache_token="test-vertical",
        )
        try:
            np.testing.assert_array_equal(reloaded.score_encoded(encoded), expected)
            assert reloaded.stats.pairs_persisted_hits == len(encoded)
        finally:
            reloaded.close()

        # The same fingerprints with poisoned scores, under an old key only.
        for namespace in ("engine-scores-v1", "engine-scores-v2"):
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / namespace))
            store.save_arrays(
                "engine-scores",
                store.content_key(namespace, "test-vertical", weights_key),
                {"fingerprints": block["fingerprints"], "scores": block["scores"] + 1.0},
            )
            upgraded = ScoringEngine(
                model, classifier, special_ids, EngineConfig(persist_scores=True),
                cache_token="test-vertical",
            )
            try:
                np.testing.assert_array_equal(upgraded.score_encoded(encoded), expected)
                assert upgraded.stats.pairs_persisted_hits == 0
                assert upgraded.stats.pairs_scored == len(encoded)
            finally:
                upgraded.close()


class TestScoreBlockPersistence:
    """When the engine writes its cross-process score block."""

    def _engine(self, engine_stack) -> ScoringEngine:
        model, classifier, special_ids = engine_stack
        return ScoringEngine(
            model, classifier, special_ids, EngineConfig(persist_scores=True),
            cache_token="test-vertical",
        )

    def _block_size(self, engine: ScoringEngine) -> int:
        block = store.load_arrays("engine-scores", engine._store_key())
        return 0 if block is None else len(block["scores"])

    def test_first_scored_call_writes_block(self, engine_stack, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = self._engine(engine_stack)
        try:
            engine.score_encoded([encoded_of_length(n, fill=5) for n in (4, 8, 12)])
            assert self._block_size(engine) == 3
        finally:
            engine.close()

    def test_later_scores_wait_for_close(self, engine_stack, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        engine = self._engine(engine_stack)
        try:
            engine.score_encoded([encoded_of_length(n, fill=5) for n in (4, 8, 12)])
            engine.score_encoded([encoded_of_length(n, fill=6) for n in (4, 8)])
            # Fewer than PERSIST_EVERY new scores: the block is not rewritten.
            assert self._block_size(engine) == 3
        finally:
            engine.close()
        assert self._block_size(engine) == 5

    def test_invalidate_model_flushes_under_old_key(
        self, engine_stack, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _model, classifier, _special_ids = engine_stack
        first = [encoded_of_length(n, fill=5) for n in (4, 8, 12)]
        second = [encoded_of_length(n, fill=6) for n in (4, 8)]
        engine = self._engine(engine_stack)
        try:
            expected = np.concatenate(
                [engine.score_encoded(first), engine.score_encoded(second)]
            )
            old_key = engine._store_key()
            classifier.scalar_path.bias.value[:] += 0.5
            engine.invalidate_model()
            assert len(store.load_arrays("engine-scores", old_key)["scores"]) == 5
        finally:
            classifier.scalar_path.bias.value[:] -= 0.5
            engine.close()

        fresh = self._engine(engine_stack)
        try:
            scores = fresh.score_encoded(first + second)
            np.testing.assert_array_equal(scores, expected)
            assert fresh.stats.pairs_scored == 0
        finally:
            fresh.close()
