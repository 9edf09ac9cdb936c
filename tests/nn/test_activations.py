"""Tests for activations and their backward passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    gelu,
    gelu_backward,
    log_softmax,
    relu,
    relu_backward,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
    tanh_backward,
)

_small_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def _check_backward(function, backward, x, eps=1e-5, rtol=1e-3, atol=1e-5):
    out, cache = function(x)
    grad = backward(np.ones_like(out), cache)
    for index in np.ndindex(*x.shape):
        original = x[index]
        x[index] = original + eps
        plus = function(x)[0].sum()
        x[index] = original - eps
        minus = function(x)[0].sum()
        x[index] = original
        numeric = (plus - minus) / (2 * eps)
        assert grad[index] == pytest.approx(numeric, rel=rtol, abs=atol)


def _gelu_float64(x: np.ndarray) -> np.ndarray:
    """Reference tanh-approximated GELU evaluated in float64."""
    x = x.astype(np.float64)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


class TestElementwise:
    def test_gelu_known_values(self):
        out, _ = gelu(np.array([0.0]))
        assert out[0] == pytest.approx(0.0)
        out, _ = gelu(np.array([10.0]))
        assert out[0] == pytest.approx(10.0, rel=1e-3)

    def test_gelu_gradient(self, rng):
        _check_backward(gelu, gelu_backward, rng.standard_normal((3, 4)))

    def test_gelu_gradient_float32(self, rng):
        # MiniBERT trains in float32: a wider step keeps the central
        # difference above float32 rounding of the summed outputs.
        x = (2.0 * rng.standard_normal((3, 4))).astype(np.float32)
        _check_backward(gelu, gelu_backward, x, eps=1e-2, rtol=1e-2, atol=1e-3)

    def test_gelu_keeps_float32(self, rng):
        x = rng.standard_normal((2, 3, 5)).astype(np.float32)
        out, cache = gelu(x)
        assert out.dtype == np.float32
        assert gelu_backward(np.ones_like(out), cache).dtype == np.float32

    def test_gelu_float32_within_2ulp_of_float64(self):
        x = np.concatenate(
            [
                np.linspace(-20.0, 20.0, 200_001),
                np.geomspace(1e-30, 1.0, 500),
                -np.geomspace(1e-30, 1.0, 500),
            ]
        ).astype(np.float32)
        error = np.abs(gelu(x)[0].astype(np.float64) - _gelu_float64(x))
        # |gelu(x)| <= |x|, so rounding is measured in ulps at |x|; a
        # relative bound is meaningless on the negative tail, where
        # 1 + tanh cancels in any precision.
        ulp = np.spacing(np.abs(x)).astype(np.float64)
        assert (error <= 2.0 * ulp).all(), float((error / ulp).max())

    def test_relu_gradient(self, rng):
        x = rng.standard_normal((3, 4))
        x[np.abs(x) < 0.1] = 0.5  # avoid the kink
        _check_backward(relu, relu_backward, x)

    def test_tanh_gradient(self, rng):
        _check_backward(tanh, tanh_backward, rng.standard_normal((3, 4)))

    def test_sigmoid_stability(self):
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


class TestSoftmax:
    @settings(max_examples=30, deadline=None)
    @given(_small_arrays)
    def test_property_rows_sum_to_one(self, x):
        out = softmax(x, axis=-1)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_log_softmax_consistency(self, rng):
        x = rng.standard_normal((2, 5))
        assert np.allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-6)

    def test_softmax_backward_gradient(self, rng):
        x = rng.standard_normal((2, 4))
        out = softmax(x)
        weights = rng.standard_normal((2, 4))
        grad = softmax_backward(weights, out)
        eps = 1e-6
        for index in np.ndindex(*x.shape):
            original = x[index]
            x[index] = original + eps
            plus = (softmax(x) * weights).sum()
            x[index] = original - eps
            minus = (softmax(x) * weights).sum()
            x[index] = original
            numeric = (plus - minus) / (2 * eps)
            assert grad[index] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
