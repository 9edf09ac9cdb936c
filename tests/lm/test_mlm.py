"""Tests for masked-LM masking and pre-training."""

import math

import numpy as np
import pytest

from repro.lm import (
    BertConfig,
    IGNORE_INDEX,
    MiniBert,
    WordPieceTokenizer,
    build_vocab,
    mask_tokens,
    mask_tokens_with_redraw,
    pretrain_mlm,
    stack_encoded,
)
from repro.lm.mlm import MlmHead
from repro.nn import TrainStats, state_dict
from repro.nn.losses import softmax_cross_entropy
from tests.training_reference import assert_batches_equal, reference_plan, sentence_rows


@pytest.fixture(scope="module")
def setup():
    corpus = [
        ["order", "identifier", "number"],
        ["product", "name", "text"],
        ["order", "total", "amount"],
        ["discount", "percentage", "value"],
    ] * 6
    vocab = build_vocab(corpus, target_size=120)
    tokenizer = WordPieceTokenizer(vocab)
    config = BertConfig(
        vocab_size=len(vocab),
        hidden_size=16,
        num_layers=1,
        num_heads=2,
        intermediate_size=32,
        max_position=16,
    )
    return corpus, tokenizer, config


class TestMaskTokens:
    def test_specials_never_masked(self, setup, rng):
        corpus, tokenizer, _ = setup
        batch = stack_encoded(
            [tokenizer.encode_single(list(s), max_length=12) for s in corpus[:8]]
        )
        masked, labels = mask_tokens(batch, tokenizer.vocab, rng, mask_probability=1.0)
        specials = tokenizer.vocab.special_ids() - {tokenizer.vocab.mask_id}
        original_special = np.isin(batch.input_ids, sorted(specials))
        assert (labels[original_special] == IGNORE_INDEX).all()

    def test_labels_match_original_ids(self, setup, rng):
        corpus, tokenizer, _ = setup
        batch = stack_encoded(
            [tokenizer.encode_single(list(s), max_length=12) for s in corpus[:8]]
        )
        _, labels = mask_tokens(batch, tokenizer.vocab, rng, mask_probability=0.5)
        selected = labels != IGNORE_INDEX
        assert (labels[selected] == batch.input_ids[selected]).all()

    def test_original_batch_untouched(self, setup, rng):
        corpus, tokenizer, _ = setup
        batch = stack_encoded(
            [tokenizer.encode_single(list(s), max_length=12) for s in corpus[:4]]
        )
        snapshot = batch.input_ids.copy()
        mask_tokens(batch, tokenizer.vocab, rng, mask_probability=1.0)
        assert np.array_equal(batch.input_ids, snapshot)

    def test_majority_masked_become_mask_token(self, setup):
        corpus, tokenizer, _ = setup
        rng = np.random.default_rng(0)
        batch = stack_encoded(
            [tokenizer.encode_single(list(s), max_length=12) for s in corpus]
        )
        masked, labels = mask_tokens(batch, tokenizer.vocab, rng, mask_probability=1.0)
        selected = labels != IGNORE_INDEX
        mask_fraction = (
            masked.input_ids[selected] == tokenizer.vocab.mask_id
        ).mean()
        assert 0.6 < mask_fraction < 0.95


class TestMaskTokensWithRedraw:
    def test_always_masks_when_possible(self, setup):
        """Even at a vanishing mask probability every batch must train."""
        corpus, tokenizer, _ = setup
        rng = np.random.default_rng(0)
        batch = stack_encoded(
            [tokenizer.encode_single(list(s), max_length=12) for s in corpus[:2]]
        )
        for _ in range(50):
            drawn = mask_tokens_with_redraw(
                batch, tokenizer.vocab, rng, mask_probability=0.01
            )
            assert drawn is not None
            _, labels = drawn
            assert (labels != IGNORE_INDEX).any()

    def test_unmaskable_batch_returns_none_and_counts(self, setup):
        _, tokenizer, _ = setup
        rng = np.random.default_rng(0)
        # All-special batch: [CLS] [SEP] plus padding, nothing maskable.
        batch = stack_encoded([tokenizer.encode_single([], max_length=6)])
        stats = TrainStats()
        assert (
            mask_tokens_with_redraw(batch, tokenizer.vocab, rng, 0.15, stats=stats)
            is None
        )
        assert stats.unmaskable_batches == 1

    def test_redraws_are_counted(self, setup):
        corpus, tokenizer, _ = setup
        rng = np.random.default_rng(1)
        batch = stack_encoded(
            [tokenizer.encode_single(list(corpus[0]), max_length=12)]
        )
        stats = TrainStats()
        for _ in range(200):
            mask_tokens_with_redraw(
                batch, tokenizer.vocab, rng, mask_probability=0.02, stats=stats
            )
        assert stats.mask_redraws > 0


class TestPretrainMlm:
    def test_loss_decreases(self, setup):
        corpus, tokenizer, config = setup
        model = MiniBert(config, seed=0)
        result = pretrain_mlm(
            model, tokenizer, corpus, epochs=8, batch_size=8, lr=1e-3, max_length=12
        )
        assert result.steps > 0
        first_quarter = np.mean(result.losses[: max(1, len(result.losses) // 4)])
        last_quarter = np.mean(result.losses[-max(1, len(result.losses) // 4) :])
        assert last_quarter < first_quarter

    def test_model_left_in_eval_mode(self, setup):
        corpus, tokenizer, config = setup
        model = MiniBert(config, seed=0)
        pretrain_mlm(model, tokenizer, corpus, epochs=1, max_length=12)
        assert not model.training

    def test_empty_corpus_rejected(self, setup):
        _, tokenizer, config = setup
        model = MiniBert(config, seed=0)
        with pytest.raises(ValueError):
            pretrain_mlm(model, tokenizer, [], epochs=1)

    def test_no_batch_is_silently_skipped(self, setup):
        """Regression: a mask draw that selects nothing used to drop the
        whole batch.  With redraw every micro-batch now takes a step, so the
        step count is exactly epochs * ceil(n / batch_size)."""
        corpus, tokenizer, config = setup
        tiny = corpus[:3]  # small batches maximise the empty-draw probability
        model = MiniBert(config, seed=0)
        epochs, batch_size = 6, 2
        stats = TrainStats()
        result = pretrain_mlm(
            model,
            tokenizer,
            tiny,
            epochs=epochs,
            batch_size=batch_size,
            max_length=12,
            mask_probability=0.03,
            stats=stats,
        )
        expected = epochs * math.ceil(len(tiny) / batch_size)
        assert result.steps == expected
        assert stats.unmaskable_batches == 0

    def test_stats_are_populated(self, setup):
        corpus, tokenizer, config = setup
        model = MiniBert(config, seed=0)
        stats = TrainStats()
        result = pretrain_mlm(
            model, tokenizer, corpus, epochs=2, batch_size=8, max_length=12, stats=stats
        )
        assert stats.steps == result.steps
        assert stats.epochs == 2
        assert stats.samples >= len(corpus)
        assert stats.buckets >= 2  # the fixture corpus has >= 2 length buckets
        for stage in ("encode", "bucket", "mask", "forward", "backward", "optim"):
            assert stats.stage_seconds.get(stage, 0.0) > 0.0, stage

    def test_params_stay_float32(self, setup):
        corpus, tokenizer, config = setup
        model = MiniBert(config, seed=0)
        pretrain_mlm(model, tokenizer, corpus, epochs=1, batch_size=8, max_length=12)
        for name, value in state_dict(model).items():
            assert value.dtype == np.float32, name


class TestMlmStepBatches:
    @pytest.mark.parametrize("max_length", [12, 5])
    def test_steps_equal_the_stacking_reference(self, setup, monkeypatch, max_length):
        """Every epoch's chunk plan draws what the stack-and-trim reference
        draws, and every step's batch gathered by ``assemble_singles``
        equals the reference's stacked ``encode_single`` rows (``max_length``
        5 truncates sentences)."""
        import repro.engine.batching as batching
        import repro.lm.mlm as mlm

        corpus, tokenizer, config = setup
        corpus = [[], *corpus[:9], ["order", "identifier", "number", "product", "name"] * 2]
        rows = sentence_rows(tokenizer, corpus, max_length)
        expected, got = [], []
        plan = batching.plan_training_chunks
        mask = mlm.mask_tokens_with_redraw

        def planning(lengths, microbatch_size, rng):
            reference_rng = np.random.default_rng()
            reference_rng.bit_generator.state = rng.bit_generator.state
            reference = reference_plan(rows, microbatch_size, reference_rng)
            chunks = plan(lengths, microbatch_size, rng)
            assert chunks == [(padded, chunk) for padded, chunk, _ in reference]
            assert rng.bit_generator.state == reference_rng.bit_generator.state
            expected.extend(batch for _, _, batch in reference)
            return chunks

        def masking(batch, *args, **kwargs):
            got.append(batch)
            return mask(batch, *args, **kwargs)

        monkeypatch.setattr(batching, "plan_training_chunks", planning)
        monkeypatch.setattr(mlm, "mask_tokens_with_redraw", masking)
        model = MiniBert(config, seed=0)
        result = pretrain_mlm(
            model, tokenizer, corpus, epochs=3, batch_size=3, max_length=max_length
        )
        assert len(got) == len(expected) == result.steps > 3
        assert len({batch.input_ids.shape[1] for batch in got}) >= (2 if max_length > 8 else 1)
        for step, (batch, want) in enumerate(zip(got, expected)):
            assert_batches_equal(batch, want, f"step {step}")


class TestBucketedMlmStepGradient:
    def test_mlm_step_gradcheck(self, setup):
        """Central-difference check of one bucketed MLM training step's
        gradient: loss -> MLM head -> encoder, through a trimmed batch."""
        corpus, tokenizer, config = setup
        deterministic = BertConfig(
            **{**config.to_dict(), "dropout": 0.0, "attention_dropout": 0.0}
        )
        model = MiniBert(deterministic, seed=0)
        head = MlmHead(deterministic, np.random.default_rng(1))
        model.train()
        head.train()
        rng = np.random.default_rng(2)
        _padded, _chunk, batch = reference_plan(
            sentence_rows(tokenizer, corpus[:6], max_length=12), 4, rng
        )[0]
        assert batch.input_ids.shape[1] < 12  # actually trimmed
        drawn = mask_tokens_with_redraw(batch, tokenizer.vocab, rng, 0.5)
        assert drawn is not None
        masked, labels = drawn

        def loss() -> float:
            hidden, _ = model.forward(masked)
            value, _ = softmax_cross_entropy(
                head.forward(hidden), labels, ignore_index=IGNORE_INDEX
            )
            return value

        hidden, _ = model.forward(masked)
        _, grad_logits = softmax_cross_entropy(
            head.forward(hidden), labels, ignore_index=IGNORE_INDEX
        )
        model.zero_grad()
        head.zero_grad()
        model.backward(grad_hidden=head.backward(grad_logits))

        def numeric(array, index, eps=1e-2):
            original = float(array[index])
            array[index] = original + eps
            plus = loss()
            array[index] = original - eps
            minus = loss()
            array[index] = original
            return (plus - minus) / (2 * eps)

        checks = [
            (model.blocks[0].attention.qkv.weight, (1, 0)),
            (model.blocks[0].attention.output.weight, (2, 3)),
            (model.blocks[0].intermediate.weight, (0, 1)),
            (model.pooler.bias, (0,)),  # pooled path gets no gradient here
            (head.projection.weight, (3, 7)),
        ]
        for parameter, index in checks:
            expected = numeric(parameter.value, index)
            assert parameter.grad[index] == pytest.approx(
                expected, rel=5e-2, abs=2e-3
            ), parameter.value.shape
