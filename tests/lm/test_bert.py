"""Gradient-checked tests for MiniBERT and its building blocks."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from repro.lm import (
    BertConfig,
    EncodedPair,
    MiniBert,
    MultiHeadSelfAttention,
    TransformerBlock,
    WordPieceTokenizer,
    build_vocab,
    stack_encoded,
)


@pytest.fixture(scope="module")
def config():
    return BertConfig(
        vocab_size=64,
        hidden_size=16,
        num_layers=2,
        num_heads=2,
        intermediate_size=32,
        max_position=16,
        dropout=0.0,
        attention_dropout=0.0,
    )


@pytest.fixture(scope="module")
def tokenizer():
    corpus = [["order", "id"], ["product", "name"], ["tax", "rate"]] * 3
    return WordPieceTokenizer(build_vocab(corpus, target_size=64))


def make_batch(tokenizer, max_length=12):
    return stack_encoded(
        [
            tokenizer.encode_pair(["order"], ["product"], max_length=max_length),
            tokenizer.encode_pair(["tax", "rate"], ["name"], max_length=max_length),
        ]
    )


class TestBertConfig:
    def test_head_dim(self, config):
        assert config.head_dim == 8

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            BertConfig(vocab_size=10, hidden_size=10, num_heads=3)

    def test_dict_round_trip(self, config):
        assert BertConfig.from_dict(config.to_dict()) == config


class TestAttention:
    def test_output_shape_and_grad(self, config, rng):
        attention = MultiHeadSelfAttention(config, rng)
        x = rng.standard_normal((2, 5, 16)).astype(np.float32)
        mask = np.ones((2, 5), dtype=np.float32)
        mask[1, 3:] = 0.0
        out = attention.forward(x, mask)
        assert out.shape == (2, 5, 16)

        def loss():
            return float((attention.forward(x, mask).astype(np.float64) ** 2).sum() / 2)

        out = attention.forward(x, mask)
        attention.zero_grad()
        grad_x = attention.backward(out.copy())

        eps = 1e-2
        original = float(x[0, 1, 2])
        x[0, 1, 2] = original + eps
        plus = loss()
        x[0, 1, 2] = original - eps
        minus = loss()
        x[0, 1, 2] = original
        numeric = (plus - minus) / (2 * eps)
        assert grad_x[0, 1, 2] == pytest.approx(numeric, rel=3e-2, abs=1e-3)

    def test_padding_gets_no_attention(self, config, rng):
        attention = MultiHeadSelfAttention(config, rng)
        x = rng.standard_normal((1, 4, 16)).astype(np.float32)
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        out_masked = attention.forward(x, mask)
        # Changing padded positions must not change unpadded outputs.
        x2 = x.copy()
        x2[0, 2:] = 99.0
        out_changed = attention.forward(x2, mask)
        assert np.allclose(out_masked[0, :2], out_changed[0, :2], atol=1e-4)


class TestTransformerBlock:
    def test_forward_backward_shapes(self, config, rng):
        block = TransformerBlock(config, rng)
        x = rng.standard_normal((2, 6, 16)).astype(np.float32)
        mask = np.ones((2, 6), dtype=np.float32)
        out = block.forward(x, mask)
        assert out.shape == x.shape
        grad = block.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_gradient_check_parameter(self, config, rng):
        block = TransformerBlock(config, rng)
        x = rng.standard_normal((1, 4, 16)).astype(np.float32)
        mask = np.ones((1, 4), dtype=np.float32)

        def loss():
            return float((block.forward(x, mask).astype(np.float64) ** 2).sum() / 2)

        out = block.forward(x, mask)
        block.zero_grad()
        block.backward(out.copy())
        parameter = block.parameters()["intermediate.weight"]
        eps = 1e-2
        original = float(parameter.value[0, 0])
        parameter.value[0, 0] = original + eps
        plus = loss()
        parameter.value[0, 0] = original - eps
        minus = loss()
        parameter.value[0, 0] = original
        numeric = (plus - minus) / (2 * eps)
        assert parameter.grad[0, 0] == pytest.approx(numeric, rel=3e-2, abs=1e-3)


    def test_parameter_grads_do_not_depend_on_the_input_gradient(self, config, rng):
        """A label update skips the top block's input gradient; the block's
        parameter grads are bit for bit those of the full backward, dropout
        masks included."""
        block = TransformerBlock(replace(config, dropout=0.1, attention_dropout=0.1), rng)
        block.train()
        x = rng.standard_normal((3, 7, 16)).astype(np.float32)
        mask = np.ones((3, 7), dtype=np.float32)
        mask[1, 5:] = 0.0
        grad_output = rng.standard_normal((3, 7, 16)).astype(np.float32)
        twin = copy.deepcopy(block)  # same weights and dropout generator state
        block.forward(x, mask)
        full = block.backward(grad_output)
        assert full is not None and full.shape == x.shape
        twin.forward(x, mask)
        assert twin.backward(grad_output, input_grad=False) is None
        twin_parameters = twin.parameters()
        for name, parameter in block.parameters().items():
            assert parameter.grad.any(), name
            np.testing.assert_array_equal(twin_parameters[name].grad, parameter.grad, err_msg=name)


class TestMiniBert:
    def test_top_replica_shares_weights_not_grads(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        replica = model.top_replica()
        top = model.top_parameters()
        replica_top = replica.top_parameters()
        assert top.keys() == replica_top.keys()
        for name, parameter in top.items():
            assert replica_top[name].value is parameter.value, name
            assert replica_top[name].grad is not parameter.grad, name
        # The trunk modules are the model's own.
        assert replica.token_embedding is model.token_embedding
        assert replica.blocks[0] is model.blocks[0]
        assert replica.blocks[-1] is not model.blocks[-1]

        batch = make_batch(tokenizer)
        replica.train_top()
        _hidden, pooled = replica.forward(batch)
        replica.backward_top(grad_pooled=np.ones_like(pooled), input_grad=False)
        assert any(p.grad.any() for p in replica_top.values())
        assert not any(p.grad.any() for p in model.parameters().values())
        # An in-place step on the model moves the replica.
        model.pooler.weight.value += 1.0
        np.testing.assert_array_equal(replica.pooler.weight.value, model.pooler.weight.value)
    def test_forward_shapes(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        model.eval()
        batch = make_batch(tokenizer)
        hidden, pooled = model.forward(batch)
        assert hidden.shape == (2, 12, 16)
        assert pooled.shape == (2, 16)
        trunk = model.forward_trunk(batch)
        assert trunk.shape == hidden.shape
        top_hidden, top_pooled = model.forward_top(trunk, batch.attention_mask)
        np.testing.assert_array_equal(top_hidden, hidden)
        np.testing.assert_array_equal(top_pooled, pooled)

    def test_rejects_overlong_sequence(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        batch = make_batch(tokenizer, max_length=32)
        with pytest.raises(ValueError, match="max_position"):
            model.forward(batch)

    def test_rejects_unbatched_input(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        single = tokenizer.encode_pair(["order"], ["product"], max_length=12)
        # The message must name the shape it got and the fix.
        with pytest.raises(
            ValueError, match=r"got\s+shape \(12,\).*wrap single pairs with stack_encoded"
        ):
            model.forward(single)

    def test_rejects_three_dimensional_input(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        single = tokenizer.encode_pair(["order"], ["product"], max_length=12)
        lifted = EncodedPair(
            input_ids=single.input_ids[None, None, :],
            segment_ids=single.segment_ids[None, None, :],
            attention_mask=single.attention_mask[None, None, :],
        )
        with pytest.raises(ValueError, match="stack_encoded"):
            model.forward(lifted)

    def test_full_gradient_check_pooled(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        model.eval()
        batch = make_batch(tokenizer)

        def loss():
            _, pooled = model.forward(batch)
            return float((pooled.astype(np.float64) ** 2).sum() / 2)

        _, pooled = model.forward(batch)
        model.zero_grad()
        model.backward(grad_pooled=pooled.copy())
        parameters = model.parameters()
        for name in ("token_embedding.table", "block1.attention.qkv.weight", "pooler.bias"):
            parameter = parameters[name]
            # Pick a token id actually present so the embedding grad is nonzero.
            index = (int(batch.input_ids[0, 1]), 0) if "table" in name else (
                (0, 0) if parameter.value.ndim == 2 else (0,)
            )
            eps = 1e-2
            original = float(parameter.value[index])
            parameter.value[index] = original + eps
            plus = loss()
            parameter.value[index] = original - eps
            minus = loss()
            parameter.value[index] = original
            numeric = (plus - minus) / (2 * eps)
            assert parameter.grad[index] == pytest.approx(
                numeric, rel=5e-2, abs=2e-3
            ), name

    def test_backward_requires_a_gradient(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        model.eval()
        model.forward(make_batch(tokenizer))
        with pytest.raises(ValueError):
            model.backward()

    def test_deterministic_forward(self, config, tokenizer):
        model = MiniBert(config, seed=0)
        model.eval()
        batch = make_batch(tokenizer)
        hidden_a, _ = model.forward(batch)
        hidden_b, _ = model.forward(batch)
        assert np.allclose(hidden_a, hidden_b)
