"""Integration-grade tests for the matcher and interactive session on the
tiny synthetic task (full pipeline, small model)."""

import numpy as np
import pytest

from repro.core import (
    GroundTruthOracle,
    LearnedSchemaMatcher,
    LsmConfig,
    MatchingSession,
    manual_labeling_curve,
)
from repro.featurizers.bert import BertFeaturizerConfig
from repro.schema import AttributeRef
from repro.store import ArtifactStore


@pytest.fixture()
def config():
    return LsmConfig(
        bert=BertFeaturizerConfig(
            max_length=24, pretrain_epochs=2, update_epochs=1, batch_size=16, seed=0
        ),
        seed=0,
    )


@pytest.fixture()
def matcher(source_schema, target_schema, config, tiny_artifacts):
    return LearnedSchemaMatcher(
        source_schema, target_schema, config=config, artifacts=tiny_artifacts
    )


class TestMatcherPredict:
    def test_suggestions_cover_unmatched_sources(self, matcher, source_schema):
        predictions = matcher.predict()
        assert set(predictions.suggestions) == set(source_schema.attribute_refs())
        for ranked in predictions.suggestions.values():
            assert 1 <= len(ranked) <= matcher.config.top_k
            scores = [score for _, score in ranked]
            assert scores == sorted(scores, reverse=True)

    def test_feature_columns_follow_featurizer_order(self, matcher):
        """Column ``i`` holds featurizer ``i``'s scores over every row (BERT's
        over the dtype-compatible rows: before the first label it skips the
        others), and each featurizer's seconds report under
        ``pipeline.<name>``."""
        predictions = matcher.predict()
        names = ["lexical", "embedding", "bert"]
        assert matcher.feature_names == names
        assert list(matcher.store.feature_names) == names
        assert predictions.feature_names == names
        compatible = matcher.adjuster.dtype_mask()
        for column, featurizer in enumerate(matcher.featurizers):
            rows = compatible if featurizer is matcher.bert_featurizer else slice(None)
            batch = matcher.store.pair_batch(np.arange(matcher.store.num_pairs)[rows])
            np.testing.assert_array_equal(
                matcher.store.features[rows, column], featurizer.score_pairs(batch)
            )
        stats = matcher.engine_stats()
        assert all(stats[f"pipeline.{name}"] > 0 for name in names)
        assert sorted(matcher.metrics.snapshot()["pipeline"]) == sorted(names)

    def test_confidences_are_probabilities(self, matcher):
        predictions = matcher.predict()
        for confidence in predictions.confidences.values():
            assert 0.0 <= confidence <= 1.0

    def test_matched_sources_excluded(self, matcher, ground_truth):
        source = AttributeRef("Orders", "qty")
        matcher.record_match(source, ground_truth[source])
        predictions = matcher.predict()
        assert source not in predictions.suggestions

    def test_feedback_improves_or_preserves_labelled_ranking(self, matcher, ground_truth):
        source = AttributeRef("Orders", "disc")
        matcher.record_match(source, ground_truth[source])
        result = matcher.result()
        assert result.target_for(source) == ground_truth[source]

    def test_rejection_records_negatives(self, matcher):
        source = AttributeRef("Orders", "qty")
        predictions = matcher.predict()
        shown = predictions.suggestion_refs(source)
        matcher.record_rejected(source, shown)
        for target in shown:
            pair_id = matcher.store.pair_id(source, target)
            assert matcher.store.labels[pair_id] == 0

    def test_result_is_valid_match_result(self, matcher, ground_truth):
        for source, target in list(ground_truth.items())[:4]:
            matcher.record_match(source, target)
        result = matcher.result()
        assert len(result) == 4
        assert result.accuracy_against(
            {s: t for s, t in list(ground_truth.items())[:4]}
        ) == pytest.approx(1.0)


class TestTokenStoreInMemory:
    def test_matchers_share_no_token_entry(
        self, source_schema, target_schema, config, tiny_artifacts, tmp_path, monkeypatch
    ):
        """Token arrays never reach the artifact store: two matchers built and
        closed in turn on one store neither read nor write one, and agree."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        kinds = []
        for method in ("load_arrays", "save_arrays"):
            original = getattr(ArtifactStore, method)

            def spy(store, kind, *args, _original=original, **kwargs):
                kinds.append(kind)
                return _original(store, kind, *args, **kwargs)

            monkeypatch.setattr(ArtifactStore, method, spy)
        predictions = []
        for _ in range(2):
            with LearnedSchemaMatcher(
                source_schema, target_schema, config=config, artifacts=tiny_artifacts
            ) as matcher:
                predictions.append(matcher.predict())
        assert "bert-pretrain" in kinds  # the spy sees the featurizer's traffic
        assert not [kind for kind in kinds if "token" in kind]
        assert not list(tmp_path.rglob("*token*"))
        assert predictions[0].suggestions == predictions[1].suggestions
        assert predictions[0].confidences == predictions[1].confidences


class TestSelection:
    def test_first_selection_is_anchor(self, matcher):
        matcher.predict()
        chosen = matcher.select_attributes_to_label()
        assert len(chosen) == 1
        assert chosen[0] in set(matcher.source_schema.key_refs())


class TestDtypeInvariant:
    def test_incompatible_pairs_score_exactly_zero(self, matcher):
        """The §IV-D guarantee at matcher level: after adjustment, every
        dtype-incompatible candidate pair scores exactly 0 -- the invariant
        the obs layer's ``scoring.incompatible_pairs_zeroed`` check guards."""
        from repro.core.scoring import dtype_compatibility_mask

        predictions = matcher.predict()
        matcher.record_match(
            AttributeRef("Orders", "qty"), AttributeRef("Transaction", "quantity")
        )
        predictions = matcher.predict()  # retrain with a label + entity penalty live
        mask = dtype_compatibility_mask(matcher.store)
        incompatible = predictions.scores[~mask]
        assert incompatible.size > 0
        assert np.count_nonzero(incompatible) == 0


class TestSession:
    def test_session_completes_and_is_correct(
        self, source_schema, target_schema, config, tiny_artifacts, ground_truth
    ):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        assert session.completed
        assert session.result.accuracy_against(ground_truth) == pytest.approx(1.0)
        # The labeling cost must be below manual labeling (9 attributes).
        assert session.total_labels < source_schema.num_attributes

    def test_curve_is_monotone(self, source_schema, target_schema, config, tiny_artifacts, ground_truth):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        xs, ys = session.curve()
        assert xs == sorted(xs)
        assert ys == sorted(ys)  # matches never get unmatched
        assert ys[-1] == pytest.approx(100.0)

    def test_labels_to_reach(self, source_schema, target_schema, config, tiny_artifacts, ground_truth):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        assert session.labels_to_reach(1.0) is not None
        assert session.labels_to_reach(0.5) <= session.labels_to_reach(1.0)

    def test_noisy_session_plateaus_below_perfect(
        self, source_schema, target_schema, config, tiny_artifacts, ground_truth
    ):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(
            ground_truth,
            target_schema,
            noise_rate=0.5,
            embeddings=tiny_artifacts.embeddings,
            seed=3,
        )
        assert oracle.num_corrupted() > 0
        session = MatchingSession(matcher, oracle).run()
        assert session.completed  # all matched...
        accuracy = session.result.accuracy_against(ground_truth)
        assert accuracy < 1.0  # ...but not all correctly

    def test_zero_max_iterations_runs_zero_iterations(
        self, source_schema, target_schema, config, tiny_artifacts, ground_truth
    ):
        """Regression: ``max_iterations or default`` treated an explicit 0 as
        "unset" and ran the full default-length session."""
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle, max_iterations=0).run()
        assert session.records == []
        assert not session.completed
        assert session.total_labels == 0

    def test_negative_max_iterations_rejected(
        self, source_schema, target_schema, config, tiny_artifacts, ground_truth
    ):
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        with pytest.raises(ValueError, match="max_iterations"):
            MatchingSession(matcher, oracle, max_iterations=-1)

    def test_random_strategy_also_completes(
        self, source_schema, target_schema, tiny_artifacts, ground_truth
    ):
        config = LsmConfig(
            selection_strategy="random",
            bert=BertFeaturizerConfig(
                max_length=24, pretrain_epochs=1, update_epochs=1, seed=0
            ),
            seed=0,
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        assert session.completed


class TestAblationConfigs:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_bert": False},
            {"use_descriptions": False},
            {"apply_dtype_filter": False},
            {"apply_entity_penalty": False},
            {"max_candidates_per_source": 5},
        ],
    )
    def test_ablated_configs_complete(
        self, source_schema, target_schema, tiny_artifacts, ground_truth, overrides
    ):
        config = LsmConfig(
            bert=BertFeaturizerConfig(
                max_length=24, pretrain_epochs=1, update_epochs=1, seed=0
            ),
            seed=0,
            **overrides,
        )
        matcher = LearnedSchemaMatcher(
            source_schema, target_schema, config=config, artifacts=tiny_artifacts
        )
        oracle = GroundTruthOracle(ground_truth, target_schema)
        session = MatchingSession(matcher, oracle).run()
        assert session.completed


def test_manual_labeling_curve():
    xs, ys = manual_labeling_curve(4)
    assert xs == ys
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(100.0)
