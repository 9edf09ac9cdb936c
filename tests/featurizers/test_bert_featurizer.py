"""Tests for the BERT featurizer: pre-training samples, training, scoring."""

import dataclasses

import numpy as np
import pytest

from repro.featurizers import (
    BertFeaturizer,
    BertFeaturizerConfig,
    MatchingClassifier,
    PairBatch,
    compute_match_features,
    generate_pretraining_samples,
    make_pair_view,
)
from repro.core.artifacts import build_artifacts
from repro.featurizers.bert import activate_channel_path
from repro.nn import TrainStats, inference_scope
from repro.nn.layers import Dropout
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.optim import Adam, clip_gradients
from repro.nn.serialize import state_dict
from repro.schema import AttributeRef
from tests.conftest import tiny_artifact_config
from tests.training_reference import assert_batches_equal, reference_steps, sample_rows


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
        scores = featurizer.score_pairs(PairBatch.from_views(views))
        assert ((0.0 <= scores) & (scores <= 1.0)).all()

    def test_score_cache_hit_is_stable(self, featurizer, source_schema, target_schema):
        view = make_pair_view(
            source_schema,
            target_schema,
            AttributeRef("Orders", "qty"),
            AttributeRef("Transaction", "quantity"),
        )
        first = featurizer.score_pairs(PairBatch.from_views([view]))[0]
        second = featurizer.score_pairs(PairBatch.from_views([view]))[0]
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
        before = featurizer.score_pairs(PairBatch.from_views([view]))[0]
        featurizer.update([view], [1])
        after = featurizer.score_pairs(PairBatch.from_views([view]))[0]
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
            scores[label] = featurizer.score_pairs(PairBatch.from_views([view]))[0]
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

    def test_cold_and_warm_artifacts_agree_after_an_update(
        self, source_schema, target_schema, ground_truth, tmp_path, monkeypatch
    ):
        """A cold store trains the MiniBERT in this process, which advances
        its dropout generator; a warm store loads the weights into a freshly
        seeded model.  The featurizer's later dropout draws must not tell
        the two apart."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        labeled = list(ground_truth.items())[:4]
        views = [make_pair_view(source_schema, target_schema, s, t) for s, t in labeled]
        probe = PairBatch.from_views(
            [
                make_pair_view(source_schema, target_schema, source, target)
                for source in source_schema.attribute_refs()
                for target in target_schema.attribute_refs()
            ]
        )
        columns = []
        for expect_cold in (True, False):
            mlm_stats = TrainStats()
            artifacts = build_artifacts(
                target_schema, config=tiny_artifact_config(), mlm_stats=mlm_stats
            )
            featurizer = self.pretrained(artifacts, target_schema)
            try:
                assert (mlm_stats.steps > 0) == expect_cold
                assert (featurizer.train_stats.steps > 0) == expect_cold
                featurizer.update(views, [1] * len(views))
                columns.append(featurizer.score_pairs(probe))
            finally:
                featurizer.close()
        np.testing.assert_array_equal(columns[1], columns[0])

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


class CountingGenerator:
    """Delegates to a generator and counts the dropout masks drawn from it."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    def random(self, *args, **kwargs):
        self.draws += 1
        return self.inner.random(*args, **kwargs)


def reference_pretrain(featurizer, schema):
    """The pretraining loop that runs the encoder every step: the full
    match-feature forward per training micro-batch, the encoder inside
    ``inference_scope`` (eval mode), then the whole classifier's forward and
    backward with only the scalar path stepped."""
    config = featurizer.config
    rng = featurizer._rng  # noqa: SLF001
    samples = generate_pretraining_samples(schema, rng, config.negatives_per_positive)
    rows = sample_rows(featurizer.tokenizer, samples, config.max_length)
    labels = np.asarray([sample.label for sample in samples], dtype=np.float32)
    weights = np.asarray([sample.weight for sample in samples], dtype=np.float32)
    special_ids = sorted(featurizer.tokenizer.vocab.special_ids())
    classifier = featurizer.classifier
    parameters = classifier.scalar_path.parameters("classifier.scalar_path.")
    optimizer = Adam(parameters, lr=config.lr)
    losses = []
    for _padded, index, batch in reference_steps(
        rows, config.pretrain_epochs, config.batch_size, rng
    ):
        with inference_scope():
            features, _ = compute_match_features(featurizer.model, special_ids, batch)
        logits = classifier.forward(features)
        loss, grad_logits = binary_cross_entropy_with_logits(
            logits, labels[index], weights=weights[index]
        )
        optimizer.zero_grad()
        classifier.backward(grad_logits)
        clip_gradients(parameters, config.max_grad_norm)
        optimizer.step()
        losses.append(loss)
    return losses


class TestPretrainScalarFit:
    """Pretraining fits ``classifier.scalar_path`` on eval-mode cosines
    cached once per sample: no dropout, no other parameter moves, and the
    fit equals the loop that runs the encoder at every step."""

    CONFIG = BertFeaturizerConfig(
        max_length=24, pretrain_epochs=2, update_epochs=1, batch_size=16, seed=0
    )

    def all_parameters(self, featurizer):
        return {
            **{f"model.{k}": v for k, v in state_dict(featurizer.model).items()},
            **{f"classifier.{k}": v for k, v in state_dict(featurizer.classifier).items()},
        }

    def test_cold_pretrain_draws_no_mask_and_trains_only_the_scalar_path(
        self, tiny_artifacts, target_schema
    ):
        featurizer = BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, self.CONFIG)
        dropouts = []
        modules = [featurizer.model]
        while modules:
            module = modules.pop()
            if isinstance(module, Dropout):
                dropouts.append(module)
            modules.extend(module._children.values())  # noqa: SLF001
        assert dropouts and all(layer.rate > 0 for layer in dropouts)
        counter = CountingGenerator(dropouts[0].rng)
        for layer in dropouts:
            layer.rng = counter
        before = self.all_parameters(featurizer)
        try:
            featurizer.pretrain(target_schema)
        finally:
            featurizer.close()
        assert featurizer.train_stats.steps > 0
        assert counter.draws == 0
        after = self.all_parameters(featurizer)
        changed = {name for name, value in before.items() if not np.array_equal(after[name], value)}
        assert changed == {"classifier.scalar_path.weight", "classifier.scalar_path.bias"}

    def test_fit_matches_the_encoder_every_step_reference(self, tiny_artifacts, target_schema):
        fitted = BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, self.CONFIG)
        reference = BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, self.CONFIG)
        try:
            losses = fitted.pretrain(target_schema)
            expected_losses = reference_pretrain(reference, target_schema)
        finally:
            fitted.close()
            reference.close()
        assert len(losses) == len(expected_losses) > self.CONFIG.pretrain_epochs
        np.testing.assert_allclose(losses, expected_losses, rtol=0, atol=1e-6)
        for name in ("weight", "bias"):
            np.testing.assert_allclose(
                getattr(fitted.classifier.scalar_path, name).value,
                getattr(reference.classifier.scalar_path, name).value,
                rtol=0,
                atol=1e-6,
                err_msg=name,
            )

    def test_rejects_a_live_channel_path(self, tiny_artifacts, target_schema):
        featurizer = BertFeaturizer(tiny_artifacts.tokenizer, tiny_artifacts.bert, self.CONFIG)
        activate_channel_path(featurizer.classifier)
        try:
            with pytest.raises(ValueError, match="silent channel path"):
                featurizer.pretrain(target_schema)
        finally:
            featurizer.close()


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
        scores = featurizer.score_pairs(PairBatch.from_views([view]))
        assert scores.shape == (1,)
        assert 0.0 <= scores[0] <= 1.0


class TestIndexOnlyPlan:
    """``_steps`` plans on lengths alone: the same indices, padded lengths
    and generator draws as the stack-and-trim reference over the samples'
    ``encode_pair`` rows."""

    def test_steps_match_the_stacking_plan(self, featurizer, target_schema):
        samples = generate_pretraining_samples(target_schema, np.random.default_rng(4))
        distinct, rows = featurizer._encode_samples(samples)  # noqa: SLF001
        config = featurizer.config
        reference_rng = np.random.default_rng(11)
        featurizer._rng = np.random.default_rng(11)  # noqa: SLF001
        expected = list(
            reference_steps(
                sample_rows(featurizer.tokenizer, samples, config.max_length),
                3,
                config.batch_size,
                reference_rng,
            )
        )
        got = list(featurizer._steps(distinct.take(rows).lengths, 3))  # noqa: SLF001
        assert len(got) == len(expected) > 3
        assert len({padded for padded, _ in got}) >= 2
        for (padded, index), (expected_padded, expected_index, _batch) in zip(got, expected):
            assert padded == expected_padded
            np.testing.assert_array_equal(index, expected_index)
        assert (
            featurizer._rng.bit_generator.state  # noqa: SLF001
            == reference_rng.bit_generator.state
        )

    def test_one_chunk_draws_no_order(self, featurizer):
        featurizer._rng = np.random.default_rng(3)  # noqa: SLF001
        reference_rng = np.random.default_rng(3)
        steps = list(featurizer._steps(np.full(5, 6), 1))  # noqa: SLF001
        order = reference_rng.permutation(5)
        assert len(steps) == 1
        np.testing.assert_array_equal(steps[0][1], order)
        assert (
            featurizer._rng.bit_generator.state  # noqa: SLF001
            == reference_rng.bit_generator.state
        )


class TestBatchedSampleEncoding:
    """Training samples are encoded in one plane call over the distinct
    samples; every sample's row equals ``encode_pair`` and ``assemble_one``."""

    def test_batched_encodings_equal_assemble_one(self, featurizer, target_schema):
        samples = generate_pretraining_samples(target_schema, np.random.default_rng(2))
        samples = samples + samples[:7]  # repeats, as oversampled labels give
        plane = featurizer.encode_plane
        max_length = featurizer.config.max_length
        distinct, rows = featurizer._encode_samples(samples)  # noqa: SLF001
        assert len(rows) == len(samples)
        block = plane.assemble(distinct.take(rows), pad_to=max_length)
        assert block.input_ids.shape == (len(samples), max_length)
        lengths = distinct.take(rows).lengths
        assert len(set(lengths.tolist())) >= 2
        for row, (sample, expected) in enumerate(
            zip(samples, sample_rows(featurizer.tokenizer, samples, max_length))
        ):
            one = plane.assemble_one(plane.halves_for_words(sample.words_a, sample.words_b))
            assert lengths[row] == expected.length == one.length
            for name in ("input_ids", "segment_ids", "attention_mask"):
                got = getattr(block, name)[row]
                np.testing.assert_array_equal(got, getattr(expected, name), err_msg=name)
                np.testing.assert_array_equal(got, getattr(one, name), err_msg=name)

    def test_equal_samples_share_one_encoding(self, featurizer, target_schema):
        samples = generate_pretraining_samples(target_schema, np.random.default_rng(2))[:6]
        distinct, rows = featurizer._encode_samples(samples * 3)  # noqa: SLF001
        first_seen = list(dict.fromkeys(samples))
        assert len(distinct) == len(first_seen)
        np.testing.assert_array_equal(
            rows, np.tile([first_seen.index(sample) for sample in samples], 3)
        )
        stats = featurizer.encode_plane.stats
        misses = stats.token_cache_misses
        again, again_rows = featurizer._encode_samples(samples)  # noqa: SLF001
        assert stats.token_cache_misses == misses  # every word sequence was cached
        np.testing.assert_array_equal(again_rows, rows[: len(samples)])
        assert_batches_equal(
            featurizer.encode_plane.assemble(again),
            featurizer.encode_plane.assemble(distinct),
        )
