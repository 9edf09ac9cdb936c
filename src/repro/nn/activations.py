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

    Returns ``(output, x)``; the input is the backward cache and is never
    written.  The whole pass runs in place on one temporary, in the same
    operation order as ``0.5 * x * (1 + tanh(c * (x + 0.044715 * x**3)))``
    (scaling by 0.5 is exact, so where it happens does not move a bit).
    The cube is two multiplies: NumPy sends a float32 ``x**3`` to libm
    ``powf``, tens of times slower.
    """
    output = x * x
    output *= x
    output *= 0.044715
    output += x
    output *= _SQRT_2_OVER_PI
    np.tanh(output, out=output)
    output += 1.0
    output *= x
    output *= 0.5
    return output, x


def gelu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GELU, in place on three temporaries.

    Same operation order as ``0.5 * (1 + t) + 0.5 * x * (1 - t**2) * c *
    (1 + 3 * 0.044715 * x**2)`` with ``t = tanh(c * (x + 0.044715 * x**3))``.
    """
    d_inner = x * x
    tanh_inner = d_inner * x
    tanh_inner *= 0.044715
    tanh_inner += x
    tanh_inner *= _SQRT_2_OVER_PI
    np.tanh(tanh_inner, out=tanh_inner)
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _SQRT_2_OVER_PI
    slope = np.square(tanh_inner)
    np.subtract(1.0, slope, out=slope)
    slope *= x
    slope *= 0.5
    slope *= d_inner
    tanh_inner += 1.0
    tanh_inner *= 0.5
    tanh_inner += slope
    tanh_inner *= grad_output
    return tanh_inner


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
