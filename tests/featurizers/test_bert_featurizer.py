"""Tests for the BERT featurizer: pre-training samples, training, scoring."""

import dataclasses

import numpy as np
import pytest

from repro.featurizers import (
    BertFeaturizer,
    BertFeaturizerConfig,
    MatchingClassifier,
    compute_match_features,
    generate_pretraining_samples,
    make_pair_view,
)
from repro.nn.serialize import state_dict
from repro.schema import AttributeRef


@pytest.fixture()
def featurizer(tiny_artifacts):
    config = BertFeaturizerConfig(
        max_length=24, pretrain_epochs=2, update_epochs=1, batch_size=16, seed=0
    )
    return BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, config)


class TestPretrainingSamples:
    def test_sample_kinds_present(self, target_schema, rng):
        samples = generate_pretraining_samples(target_schema, rng)
        kinds = {sample.kind for sample in samples}
        assert "self-repeating" in kinds
        assert "self-explaining" in kinds  # tiny target has descriptions
        assert "pkfk" in kinds
        assert "synonym-paraphrase" in kinds
        assert "negative" in kinds

    def test_self_repeating_per_attribute(self, target_schema, rng):
        samples = generate_pretraining_samples(target_schema, rng)
        self_repeating = [s for s in samples if s.kind == "self-repeating"]
        assert len(self_repeating) == target_schema.num_attributes
        for sample in self_repeating:
            assert sample.words_a == sample.words_b
            assert sample.label == 1

    def test_pkfk_per_relationship(self, target_schema, rng):
        samples = generate_pretraining_samples(target_schema, rng)
        pkfk = [s for s in samples if s.kind == "pkfk"]
        assert len(pkfk) == target_schema.num_relationships

    def test_negative_ratio(self, target_schema, rng):
        samples = generate_pretraining_samples(
            target_schema, rng, negatives_per_positive=2
        )
        positives = [s for s in samples if s.label == 1]
        negatives = [s for s in samples if s.label == 0]
        assert len(negatives) == 2 * len(positives)

    def test_negatives_differ_from_positives(self, target_schema, rng):
        samples = generate_pretraining_samples(target_schema, rng)
        for sample in samples:
            if sample.kind == "negative":
                assert sample.words_a != sample.words_b or sample.label == 1

    def test_deterministic(self, target_schema):
        a = generate_pretraining_samples(target_schema, np.random.default_rng(5))
        b = generate_pretraining_samples(target_schema, np.random.default_rng(5))
        assert a == b


class TestMatchingClassifier:
    def test_forward_backward_shapes(self, rng):
        classifier = MatchingClassifier(hidden_size=8, classifier_size=4, rng=rng)
        features = rng.standard_normal(
            (3, MatchingClassifier.NUM_SCALARS + MatchingClassifier.NUM_CHANNELS * 8)
        ).astype(np.float32)
        logits = classifier.forward(features)
        assert logits.shape == (3,)
        grad = classifier.backward(np.ones(3, dtype=np.float32))
        assert grad.shape == features.shape

    def test_channel_path_starts_silent(self, rng):
        classifier = MatchingClassifier(hidden_size=8, classifier_size=4, rng=rng)
        scalars = np.zeros((1, MatchingClassifier.NUM_SCALARS), dtype=np.float32)
        channels = rng.standard_normal((1, MatchingClassifier.NUM_CHANNELS * 8)).astype(
            np.float32
        )
        features = np.concatenate([scalars, channels], axis=1)
        # With zero scalars and zeroed channel output, logit = scalar bias.
        assert classifier.forward(features)[0] == pytest.approx(
            float(classifier.scalar_path.bias.value[0])
        )


class TestBertFeaturizerTraining:
    def test_pretrain_produces_losses(self, featurizer, target_schema):
        losses = featurizer.pretrain(target_schema)
        assert losses
        assert all(np.isfinite(losses))

    def test_scores_in_unit_interval(
        self, featurizer, source_schema, target_schema
    ):
        featurizer.pretrain(target_schema)
        views = [
            make_pair_view(
                source_schema,
                target_schema,
                AttributeRef("Orders", "qty"),
                target,
            )
            for target in target_schema.attribute_refs()
        ]
        scores = featurizer.score_pairs(views)
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_score_cache_hit_is_stable(self, featurizer, source_schema, target_schema):
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "qty"),
            AttributeRef("Transaction", "quantity"),
        )
        first = featurizer.score_pairs([view])[0]
        second = featurizer.score_pairs([view])[0]
        assert first == second

    def test_update_invalidates_score_cache(
        self, featurizer, source_schema, target_schema
    ):
        featurizer.pretrain(target_schema)
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "qty"),
            AttributeRef("Transaction", "quantity"),
        )
        before = featurizer.score_pairs([view])[0]
        featurizer.update([view], [1])
        after = featurizer.score_pairs([view])[0]
        assert before != after  # training moved the score

    def test_update_label_direction(self, tiny_artifacts, source_schema, target_schema):
        """Training the same pair positive vs negative moves scores apart."""
        config = BertFeaturizerConfig(
            max_length=24, pretrain_epochs=1, update_epochs=4, batch_size=16, seed=0
        )
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "order_date"),
            AttributeRef("Transaction", "tax_amount"),
        )
        scores = {}
        for label in (0, 1):
            featurizer = BertFeaturizer(
                tiny_artifacts.tokenizer, tiny_artifacts.bert, config
            )
            featurizer.pretrain(target_schema)
            for _ in range(3):
                featurizer.update([view], [label])
            scores[label] = featurizer.score_pairs([view])[0]
        assert scores[1] > scores[0]

    def test_update_without_labels_is_noop(self, featurizer):
        featurizer.update([], [])  # must not raise


class TestPretrainCache:
    """The pretrained block is keyed on what pretraining reads, and a warm
    load leaves the featurizer exactly where a cold pass does."""

    BASE = BertFeaturizerConfig(
        max_length=24, pretrain_epochs=1, update_epochs=1, batch_size=16, seed=0
    )

    def pretrained(self, tiny_artifacts, target_schema, config=BASE):
        featurizer = BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, config)
        featurizer.pretrain(target_schema, cache_key=tiny_artifacts.cache_key)
        return featurizer

    def parameters(self, featurizer):
        return {
            **{f"model.{k}": v for k, v in state_dict(featurizer.model).items()},
            **{f"classifier.{k}": v for k, v in state_dict(featurizer.classifier).items()},
        }

    def test_cold_and_warm_agree_after_an_update(
        self, tiny_artifacts, source_schema, target_schema, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "qty"),
            AttributeRef("Transaction", "quantity"),
        )
        cold = self.pretrained(tiny_artifacts, target_schema)
        warm = self.pretrained(tiny_artifacts, target_schema)
        try:
            assert cold.train_stats.steps > 0
            assert warm.train_stats.steps == 0
            for featurizer in (cold, warm):
                featurizer.update([view], [1])
            cold_parameters = self.parameters(cold)
            warm_parameters = self.parameters(warm)
            assert cold_parameters.keys() == warm_parameters.keys()
            for name, value in cold_parameters.items():
                np.testing.assert_array_equal(warm_parameters[name], value, err_msg=name)
        finally:
            cold.close()
            warm.close()

    @pytest.mark.parametrize(
        "change, reused",
        [
            ({"update_epochs": 3}, True),
            ({"human_sample_weight": 2.0}, True),
            ({"pretrain_epochs": 2}, False),
            ({"lr": 5e-4}, False),
        ],
    )
    def test_key_covers_only_pretraining_fields(
        self, tiny_artifacts, target_schema, tmp_path, monkeypatch, change, reused
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.pretrained(tiny_artifacts, target_schema).close()
        changed = self.pretrained(
            tiny_artifacts, target_schema, dataclasses.replace(self.BASE, **change)
        )
        changed.close()
        assert (changed.train_stats.steps == 0) == reused


class TestEncodePathsAreBatched:
    """Every encode path must go through stack_encoded (satellite of PR 2)."""

    def test_compute_match_features_rejects_unbatched(self, featurizer):
        single = featurizer.tokenizer.encode_pair(["order"], ["product"], max_length=12)
        with pytest.raises(
            ValueError, match=r"2-D.*wrap single pairs\s+with stack_encoded"
        ):
            compute_match_features(
                featurizer.model,
                sorted(featurizer.tokenizer.vocab.special_ids()),
                single,
            )

    def test_score_pairs_accepts_a_single_view(self, featurizer, source_schema, target_schema):
        """One pair flows through the engine's stack_encoded path, no ValueError."""
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "order_id"),
            AttributeRef("Transaction", "transaction_id"),
        )
        scores = featurizer.score_pairs([view])
        assert scores.shape == (1,)
        assert 0.0 <= scores[0] <= 1.0
