"""Fused-QKV attention: parity with the unfused reference.

The fused layout must be an implementation detail: identical math to the
seed-era three-GEMM attention (forward, input gradients and packed parameter
gradients, all to 1e-6), verified against central differences.
"""

import numpy as np
import pytest

from repro.lm import BertConfig, MultiHeadSelfAttention, UnfusedAttentionReference


CONFIG = BertConfig(
    vocab_size=50,
    hidden_size=16,
    num_layers=1,
    num_heads=2,
    intermediate_size=32,
    max_position=12,
    dropout=0.0,
    attention_dropout=0.0,
)


@pytest.fixture()
def pair():
    """(fused, unfused-reference) attention modules with identical weights."""
    fused = MultiHeadSelfAttention(CONFIG, np.random.default_rng(3))
    fused.eval()
    reference = UnfusedAttentionReference(fused)
    reference.eval()
    return fused, reference


@pytest.fixture()
def inputs(rng):
    x = rng.standard_normal((3, 7, CONFIG.hidden_size)).astype(np.float32)
    mask = np.ones((3, 7), dtype=np.float32)
    mask[0, 5:] = 0.0  # one row with padding, to exercise the mask path
    mask[2, 3:] = 0.0
    return x, mask


class TestFusedParity:
    def test_forward_matches_unfused(self, pair, inputs):
        fused, reference = pair
        x, mask = inputs
        np.testing.assert_allclose(
            fused.forward(x, mask), reference.forward(x, mask), atol=1e-6, rtol=0
        )

    def test_backward_input_grad_matches_unfused(self, pair, inputs, rng):
        fused, reference = pair
        x, mask = inputs
        grad_out = rng.standard_normal(x.shape).astype(np.float32)
        fused.forward(x, mask)
        reference.forward(x, mask)
        fused.zero_grad()
        reference.zero_grad()
        np.testing.assert_allclose(
            fused.backward(grad_out.copy()),
            reference.backward(grad_out.copy()),
            atol=1e-6,
            rtol=0,
        )

    def test_backward_param_grads_match_unfused(self, pair, inputs, rng):
        fused, reference = pair
        x, mask = inputs
        grad_out = rng.standard_normal(x.shape).astype(np.float32)
        fused.forward(x, mask)
        reference.forward(x, mask)
        fused.zero_grad()
        reference.zero_grad()
        fused.backward(grad_out.copy())
        reference.backward(grad_out.copy())

        packed_weight, packed_bias = reference.packed_qkv_grads()
        np.testing.assert_allclose(fused.qkv.weight.grad, packed_weight, atol=1e-6, rtol=0)
        np.testing.assert_allclose(fused.qkv.bias.grad, packed_bias, atol=1e-6, rtol=0)
        np.testing.assert_allclose(
            fused.output.weight.grad, reference.output.weight.grad, atol=1e-6, rtol=0
        )
        np.testing.assert_allclose(
            fused.output.bias.grad, reference.output.bias.grad, atol=1e-6, rtol=0
        )

    def test_initial_weights_match_seed_layout(self, pair):
        """Fusion must not change the initial model: packed blocks equal the
        draws the three separate linears historically made."""
        fused, reference = pair
        hidden = CONFIG.hidden_size
        for index, linear in enumerate((reference.query, reference.key, reference.value)):
            block = fused.qkv.weight.value[:, index * hidden : (index + 1) * hidden]
            np.testing.assert_array_equal(block, linear.weight.value)


class TestNumericalGradient:
    def test_fused_attention_gradcheck(self, pair, inputs):
        fused, _ = pair
        x, mask = inputs

        def loss() -> float:
            return float((fused.forward(x, mask).astype(np.float64) ** 2).sum() / 2)

        out = fused.forward(x, mask)
        fused.zero_grad()
        grad_x = fused.backward(out.copy())

        def numeric(array, index, eps=1e-2):
            original = float(array[index])
            array[index] = original + eps
            plus = loss()
            array[index] = original - eps
            minus = loss()
            array[index] = original
            return (plus - minus) / (2 * eps)

        # Spot-check one entry in each Q/K/V block of the packed weight, the
        # bias, the output projection and the input gradient.
        hidden = CONFIG.hidden_size
        for column in (0, hidden + 1, 2 * hidden + 2):
            index = (1, column)
            assert fused.qkv.weight.grad[index] == pytest.approx(
                numeric(fused.qkv.weight.value, index), rel=5e-2, abs=1e-3
            )
        assert fused.qkv.bias.grad[(hidden,)] == pytest.approx(
            numeric(fused.qkv.bias.value, (hidden,)), rel=5e-2, abs=1e-3
        )
        index = (2, 3)
        assert fused.output.weight.grad[index] == pytest.approx(
            numeric(fused.output.weight.value, index), rel=5e-2, abs=1e-3
        )
        index = (1, 2, 4)
        assert grad_x[index] == pytest.approx(numeric(x, index), rel=5e-2, abs=1e-3)


class TestStateGuards:
    def test_backward_before_forward_raises(self):
        fused = MultiHeadSelfAttention(CONFIG, np.random.default_rng(0))
        with pytest.raises(RuntimeError, match="backward before forward"):
            fused.backward(np.zeros((1, 2, CONFIG.hidden_size), dtype=np.float32))
