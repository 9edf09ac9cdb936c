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


#: Table resolution of the quantized-activation nonlinearities below; 256
#: entries make the gather index an exact uint8 cast.
LUT_LEVELS = 256


def gelu_lut(x: np.ndarray) -> np.ndarray:
    """GELU on symmetrically quantized activations (the int8 rung's GELU).

    The input is quantized per tensor to 255 symmetric levels
    (``step = max|x| / 127``) and the exact tanh-approximated GELU is
    evaluated once per level; the activation itself is then a uint8 gather.
    This *is* the quantized nonlinearity; it saves the float32 ``tanh``
    per element, but with :func:`gelu`'s cube as plain multiplies that no
    longer makes the int8 forward faster than the float32 one
    (``BENCH_engine.json``).  Error is bounded by ``max|gelu'| * step / 2``;
    the ranking-space parity gate (``repro.eval.quant``) governs
    acceptability end to end.
    """
    peak = float(np.abs(x).max()) if x.size else 0.0
    if peak == 0.0 or not np.isfinite(peak):
        return gelu(x)[0]
    step = np.float32(peak / 127.0)
    grid = (np.arange(LUT_LEVELS, dtype=np.float32) - 127.0) * step
    table = gelu(grid)[0]
    index = (x * np.float32(1.0 / step) + np.float32(127.5)).astype(np.uint8)
    return table[index]


def masked_softmax_lut(scores: np.ndarray, key_mask: np.ndarray) -> np.ndarray:
    """Attention softmax over quantized scores with the mask as a multiply.

    Mathematically, softmax over ``scores + (1 - mask) * MASK_BIAS`` equals
    ``exp(scores) * mask / sum(exp(scores) * mask)`` -- masked keys
    contribute exactly zero either way -- so the additive bias pass of the
    float path is replaced by one broadcast multiply.  ``exp`` is evaluated
    on a 256-level grid spanning the batch's score range (shifted by the
    maximum for stability) and gathered per element.

    ``scores`` has shape (B, H, Tq, Tk); ``key_mask`` broadcasts against it
    with 1.0 for real keys and 0.0 for padding.
    """
    high = float(scores.max()) if scores.size else 0.0
    low = float(scores.min()) if scores.size else 0.0
    if not (np.isfinite(high) and np.isfinite(low)):
        exp = np.exp(scores - high) * key_mask
        return exp / np.maximum(exp.sum(axis=-1, keepdims=True), 1e-30)
    step = np.float32(max(high - low, 1e-6) / (LUT_LEVELS - 1))
    grid = np.arange(LUT_LEVELS, dtype=np.float32) * step + np.float32(low - high)
    table = np.exp(grid)
    index = (
        (scores - np.float32(low)) * np.float32(1.0 / step) + np.float32(0.5)
    ).astype(np.uint8)
    exp = table[index] * key_mask
    denominator = exp.sum(axis=-1, keepdims=True)
    np.maximum(denominator, 1e-30, out=denominator)
    exp *= 1.0 / denominator
    return exp


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
