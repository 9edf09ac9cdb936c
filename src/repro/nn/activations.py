"""Activation functions with paired backward passes.

Each function comes as ``f(x)`` plus ``f_backward(grad_output, cache)`` where
``cache`` is whatever ``f`` returned alongside its output.  Stateless by
design -- MiniBERT calls them inline inside its blocks.
"""

from __future__ import annotations

import numpy as np

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi).astype(np.float32)


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU with the tanh approximation used by BERT.

    Returns ``(output, x)``; the input is the backward cache.  The cube is
    spelled ``x * x * x``: NumPy sends a float32 ``x**3`` to libm ``powf``,
    tens of times slower than two multiplies, and that one call was about
    two-thirds of a float32 MiniBERT pass.
    """
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x * x * x))
    output = 0.5 * x * (1.0 + np.tanh(inner))
    return output, x


def gelu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GELU."""
    x_squared = x * x
    inner = _SQRT_2_OVER_PI * (x + 0.044715 * (x_squared * x))
    tanh_inner = np.tanh(inner)
    sech2 = 1.0 - tanh_inner**2
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * 0.044715 * x_squared)
    derivative = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
    return grad_output * derivative


def relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU; cache is the boolean positive mask."""
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_output: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_output * mask


def tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh; cache is the output itself."""
    output = np.tanh(x)
    return output, output


def tanh_backward(grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
    return grad_output * (1.0 - output**2)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no cache needed: y' = y(1-y))."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype) if hasattr(x, "dtype") else out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax_backward(grad_output: np.ndarray, output: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its output: y * (g - sum(g*y))."""
    inner = (grad_output * output).sum(axis=axis, keepdims=True)
    return output * (grad_output - inner)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
