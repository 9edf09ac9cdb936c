"""MiniBERT's reduction-light kernels: LayerNorm and the attention softmax.

LayerNorm reduces by GEMV; the softmax works on key-major scores, so its max
and sum over keys are outer-axis passes, not numpy reductions along a short
last axis.  These tests pin the arithmetic, not the speed:

* LayerNorm forward and backward agree with a float64 reference to 1e-6;
* central differences confirm both backward passes;
* padding a pair further leaves the softmax bit for bit unchanged and the
  encoder's outputs within 1e-7;
* the softmax keeps its max shift: a fully masked row and logits near 1e4
  stay finite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lm import BertConfig, MiniBert
from repro.lm.attention import (
    attention_softmax,
    attention_softmax_backward,
    key_major_scores,
)
from repro.lm.tokenizer import EncodedPair
from repro.nn import LayerNorm, inference_scope


def reference_layer_norm(x, gamma, beta, eps):
    """Float64 LayerNorm forward; returns the output and what backward needs."""
    x = x.astype(np.float64)
    mean = x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(((x - mean) ** 2).mean(axis=-1, keepdims=True) + eps)
    normalised = (x - mean) * inv_std
    return normalised * gamma + beta, normalised, inv_std


def reference_layer_norm_backward(grad, normalised, inv_std, gamma):
    grad = grad.astype(np.float64)
    axes = tuple(range(grad.ndim - 1))
    grad_norm = grad * gamma
    grad_input = (
        grad_norm
        - grad_norm.mean(axis=-1, keepdims=True)
        - normalised * (grad_norm * normalised).mean(axis=-1, keepdims=True)
    ) * inv_std
    return grad_input, (grad * normalised).sum(axis=axes), grad.sum(axis=axes)


def make_layer_norm(rng, dim):
    layer = LayerNorm(dim)
    layer.gamma.value[:] = rng.uniform(0.5, 1.5, dim)
    layer.beta.value[:] = rng.standard_normal(dim)
    return layer


def numeric_gradient(loss, array, eps=1e-6):
    grad = np.zeros_like(array)
    for index in np.ndindex(array.shape):
        saved = array[index]
        array[index] = saved + eps
        plus = loss()
        array[index] = saved - eps
        minus = loss()
        array[index] = saved
        grad[index] = (plus - minus) / (2 * eps)
    return grad


class TestLayerNorm:
    @pytest.mark.parametrize("dim", [16, 48, 64])
    def test_forward_matches_float64_reference(self, rng, dim):
        layer = make_layer_norm(rng, dim)
        x = (rng.standard_normal((3, 7, dim)) * 2.0 + 0.5).astype(np.float32)
        expected, _, _ = reference_layer_norm(
            x, layer.gamma.value.astype(np.float64), layer.beta.value, layer.eps
        )
        for scope in (False, True):  # the cached and the in-place path
            if scope:
                with inference_scope():
                    out = layer.forward(x)
            else:
                out = layer.forward(x)
            assert out.dtype == np.float32 and out.shape == x.shape
            np.testing.assert_allclose(out, expected, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("dim", [16, 48, 64])
    def test_backward_matches_float64_reference(self, rng, dim):
        layer = make_layer_norm(rng, dim)
        x = rng.standard_normal((3, 7, dim)).astype(np.float32)
        grad = rng.standard_normal((3, 7, dim)).astype(np.float32)
        gamma = layer.gamma.value.astype(np.float64)
        _, normalised, inv_std = reference_layer_norm(x, gamma, layer.beta.value, layer.eps)
        expected_x, expected_gamma, expected_beta = reference_layer_norm_backward(
            grad, normalised, inv_std, gamma
        )
        layer.forward(x)
        grad_x = layer.backward(grad)
        assert grad_x.dtype == np.float32
        np.testing.assert_allclose(grad_x, expected_x, atol=1e-6, rtol=0)
        # Parameter grads sum 21 rows: same bound relative to their size.
        np.testing.assert_allclose(layer.gamma.grad, expected_gamma, atol=1e-6, rtol=1e-6)
        np.testing.assert_allclose(layer.beta.grad, expected_beta, atol=1e-6, rtol=1e-6)

    def test_finite_difference_gradients(self, rng):
        layer = make_layer_norm(rng, 8)
        x = rng.standard_normal((2, 3, 8))  # float64 end to end
        weights = rng.standard_normal((2, 3, 8))

        def loss():
            return float((layer.forward(x) * weights).sum())

        expected = numeric_gradient(loss, x)
        layer.forward(x)
        np.testing.assert_allclose(layer.backward(weights), expected, atol=1e-6, rtol=0)

    def test_inference_forward_writes_no_cache(self, rng):
        layer = make_layer_norm(rng, 16)
        with inference_scope():
            layer.forward(rng.standard_normal((2, 16)).astype(np.float32))
        with pytest.raises(RuntimeError, match="backward before forward"):
            layer.backward(np.ones((2, 16), dtype=np.float32))


def softmax_inputs(rng, batch=2, heads=2, seq=6):
    """Scores in the usual (B, H, T_query, T_key) layout, plus a key mask."""
    scores = rng.standard_normal((batch, heads, seq, seq)) * 3.0
    mask = np.ones((batch, seq))
    mask[0, 4:] = 0.0
    return scores, mask


def key_major(scores):
    """(B, H, T_query, T_key) -> a fresh key-major (T_key, B, H, T_query) copy."""
    return np.ascontiguousarray(scores.transpose(3, 0, 1, 2))


def softmax(scores, mask, scale):
    """:func:`attention_softmax` in the usual layout, input left untouched."""
    return attention_softmax(key_major(scores), mask, scale).transpose(1, 2, 3, 0)


class TestAttentionSoftmax:
    def test_matches_naive_softmax(self, rng):
        scores, mask = softmax_inputs(rng)
        biased = scores * 0.5 + ((1.0 - mask) * -1e9)[:, None, None, :]
        exp = np.exp(biased - biased.max(axis=-1, keepdims=True))
        expected = exp / exp.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(softmax(scores, mask, 0.5), expected, atol=1e-12, rtol=0)

    def test_key_major_scores_is_the_transposed_product(self, rng):
        keys = rng.standard_normal((2, 3, 5, 4))
        queries = rng.standard_normal((2, 3, 5, 4))
        expected = np.matmul(queries, keys.transpose(0, 1, 3, 2))  # (B, H, Tq, Tk)
        np.testing.assert_allclose(
            key_major_scores(keys, queries), key_major(expected), atol=1e-12, rtol=0
        )

    def test_finite_difference_gradients(self, rng):
        scores, mask = softmax_inputs(rng)
        weights = rng.standard_normal(scores.shape)
        scale = 0.35

        def loss():
            return float((softmax(scores, mask, scale) * weights).sum())

        expected = numeric_gradient(loss, scores)
        probs = attention_softmax(key_major(scores), mask, scale)
        grad = attention_softmax_backward(key_major(weights), probs, scale)
        np.testing.assert_allclose(grad.transpose(1, 2, 3, 0), expected, atol=1e-7, rtol=0)
        assert not grad[4:, 0].any()  # masked keys get no gradient

    def test_fully_masked_row_and_huge_logits_stay_finite(self):
        scores = np.full((2, 1, 3, 3), 1e4, dtype=np.float32)
        scores[0, 0, 0] = [1e4, 1e4 - 2.0, 1e4 - 50.0]
        mask = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]], dtype=np.float32)
        probs = softmax(scores, mask, 1.0)
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        np.testing.assert_allclose(probs[1], 1.0 / 3.0, atol=1e-6)  # uniform
        assert probs[0, 0, 0, 0] > probs[0, 0, 0, 1] > probs[0, 0, 0, 2]

    @pytest.mark.parametrize("real,padded", [(5, 8), (11, 16), (11, 64), (24, 32)])
    def test_padded_keys_leave_probabilities_bit_identical(self, rng, real, padded):
        """The max and the sum over keys see padded keys as -1e9 and exact
        zeros, so padding a row never moves a bit of its real entries."""
        scores = rng.standard_normal((3, 2, real, padded)).astype(np.float32) * 4.0
        mask = np.zeros((3, padded), dtype=np.float32)
        mask[:, :real] = 1.0
        long = softmax(scores, mask, 0.25)
        short = softmax(np.ascontiguousarray(scores[..., :real]), mask[:, :real], 0.25)
        np.testing.assert_array_equal(long[..., :real], short)
        assert not long[..., real:].any()


class TestPaddingInvariance:
    # MiniBERT's default architecture (hidden 64, four heads of 16).  At a
    # head width of 8 OpenBLAS picks length-dependent GEMM kernels, which
    # moves the outputs by ~1e-6 whatever the softmax and LayerNorm do.
    CONFIG = BertConfig(vocab_size=60, max_position=32, dropout=0.0, attention_dropout=0.0)

    @staticmethod
    def padded_pair(length: int, pad_to: int) -> EncodedPair:
        ids = np.zeros((2, pad_to), dtype=np.int64)
        ids[0, :length] = np.arange(5, 5 + length)
        ids[1, :length] = np.arange(40, 40 - length, -1)
        segments = np.zeros_like(ids)
        segments[:, length // 2 : length] = 1
        mask = np.zeros_like(ids)
        mask[:, :length] = 1
        return EncodedPair(input_ids=ids, segment_ids=segments, attention_mask=mask)

    def test_outputs_independent_of_padded_length(self):
        model = MiniBert(self.CONFIG, seed=4)
        model.eval()
        length = 11
        outputs = {}
        for pad_to in (16, 24, 32):
            with inference_scope():
                hidden, pooled = model.forward(self.padded_pair(length, pad_to))
            outputs[pad_to] = (hidden[:, :length], pooled)
        for pad_to in (24, 32):
            np.testing.assert_allclose(outputs[pad_to][0], outputs[16][0], atol=1e-7, rtol=0)
            np.testing.assert_allclose(outputs[pad_to][1], outputs[16][1], atol=1e-7, rtol=0)
