"""Multi-head self-attention with explicit backward pass.

The projection onto queries/keys/values is **fused**: one packed
``(hidden, 3 * hidden)`` GEMM replaces the three separate per-projection
GEMMs of the original layout, in forward and backward.  Attention scores
are laid out key-major so the softmax reduces over keys without a
short-axis numpy reduction (:func:`attention_softmax`).
:class:`UnfusedAttentionReference` preserves the pre-fusion arithmetic,
numpy-reduction softmax included, as the parity oracle for tests and the
training benchmark.
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import softmax, softmax_backward
from ..nn.layers import Dropout, Linear, Module, inference_active, xavier_uniform
from .config import BertConfig

#: Additive bias applied to masked (padding) key positions before softmax.
MASK_BIAS = -1e9

#: Order of the packed projections inside the fused ``qkv`` parameter; also
#: the per-projection child names of :class:`UnfusedAttentionReference`.
_QKV_NAMES = ("query", "key", "value")


def key_major_scores(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left @ right^T`` per (batch, head), laid out key-major.

    ``left`` is ``(B, H, T, dh)`` and indexes keys, ``right`` the same shape
    and indexes queries; the result is ``(T_key, B, H, T_query)``, written by
    the GEMM straight into that layout.  Every reduction over keys is then a
    reduction over the outer axis: a sequence of contiguous elementwise
    passes over all ``B * H * T`` (batch, head, query) rows at once, instead
    of a numpy reduction along a last axis of 16-64 entries, which costs
    several times the elementwise pass.
    """
    batch, heads, seq, _ = left.shape
    product = np.empty(
        (seq, batch, heads, right.shape[2]), dtype=np.result_type(left, right)
    )
    np.matmul(left, right.transpose(0, 1, 3, 2), out=product.transpose(1, 2, 0, 3))
    return product


def attention_softmax(
    scores: np.ndarray, attention_mask: np.ndarray, scale: float
) -> np.ndarray:
    """Masked, scaled softmax over the keys of key-major ``scores``, in place.

    ``scores`` is a fresh ``(T_key, B, H, T_query)`` product (see
    :func:`key_major_scores`) that nothing else holds.  It is scaled,
    biased at padding keys, shifted by its max over keys, exponentiated and
    normalised without a temporary.  The max is exact (a max does not depend
    on order).  The sum runs over keys in order, so padded keys, exact zeros
    after the shift, leave it bit for bit unchanged: a pair scores the same
    at every padded length.
    """
    scores *= scale
    scores += ((1.0 - attention_mask) * MASK_BIAS).T[:, :, None, None]
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0)
    return scores


def attention_softmax_backward(
    grad_probs: np.ndarray, probs: np.ndarray, scale: float
) -> np.ndarray:
    """Gradient of :func:`attention_softmax` w.r.t. the unscaled scores.

    ``probs * (g - sum(g * probs)) * scale``, both key-major, with the sum
    over keys on the outer axis, written into ``grad_probs`` (a fresh
    backward product).  The mask bias is constant w.r.t. inputs; it adds
    no term.
    """
    grad_probs -= (grad_probs * probs).sum(axis=0)
    grad_probs *= probs
    grad_probs *= scale
    return grad_probs


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention over ``num_heads`` heads.

    Input/output shape ``(batch, seq, hidden)``.  The attention mask has
    shape ``(batch, seq)`` with 1 for real tokens and 0 for padding; padding
    keys receive a large negative score bias so they get ~zero weight.
    """

    def __init__(self, config: BertConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.config = config
        hidden = config.hidden_size
        # One packed GEMM for Q/K/V.  The three blocks are initialised with
        # the exact rng draws (order and Xavier fan-in/fan-out) the separate
        # linears historically used, so fusing changes the arithmetic
        # layout, not the initial model.
        packed = np.concatenate(
            [xavier_uniform(rng, hidden, hidden) for _ in _QKV_NAMES], axis=1
        )
        self.qkv = self.add_child("qkv", Linear(hidden, 3 * hidden, weight=packed))
        self.output = self.add_child("output", Linear(hidden, hidden, rng))
        self.attention_dropout = self.add_child(
            "attention_dropout", Dropout(config.attention_dropout, rng)
        )
        self._cache: dict[str, np.ndarray] | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, T, D) -> (B, H, T, dh)."""
        batch, seq, _ = x.shape
        return x.reshape(batch, seq, self.config.num_heads, self.config.head_dim).transpose(
            0, 2, 1, 3
        )

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, H, T, dh) -> (B, T, D)."""
        batch, heads, seq, head_dim = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)

    def forward(self, x: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
        # float(): np.sqrt returns a float64 *numpy* scalar, which under
        # NumPy-2 promotion would silently lift the whole attention pass
        # to float64; a python float stays weakly typed.
        scale = 1.0 / float(np.sqrt(self.config.head_dim))
        packed = self.qkv.forward(x)  # (B, T, 3D) in one GEMM
        projected_q, projected_k, projected_v = np.split(packed, 3, axis=-1)
        queries = self._split_heads(projected_q)
        keys = self._split_heads(projected_k)
        values = self._split_heads(projected_v)

        # Key-major (T_key, B, H, T_query); ``probs.transpose(1, 2, 3, 0)``
        # is the usual (B, H, T_query, T_key) view the GEMMs take as is.
        probs = attention_softmax(key_major_scores(keys, queries), attention_mask, scale)
        weights = self.attention_dropout.forward(probs.transpose(1, 2, 3, 0))

        context = np.matmul(weights, values)
        merged = self._merge_heads(context)
        if not inference_active():
            self._cache = {
                "queries": queries,
                "keys": keys,
                "values": values,
                "probs": probs,
                "weights": weights,
                "scale": np.float32(scale),
            }
        return self.output.forward(merged)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter grads; return the input's gradient, or
        ``None`` without its GEMM when ``input_grad`` is false."""
        if self._cache is None:
            raise RuntimeError("MultiHeadSelfAttention: backward before forward")
        cache = self._cache
        queries, keys, values = cache["queries"], cache["keys"], cache["values"]
        probs, weights = cache["probs"], cache["weights"]
        scale = float(cache["scale"])

        grad_merged = self.output.backward(grad_output)
        grad_context = self._split_heads(grad_merged)

        grad_weights = key_major_scores(values, grad_context).transpose(1, 2, 3, 0)
        grad_values = np.matmul(weights.transpose(0, 1, 3, 2), grad_context)

        grad_probs = self.attention_dropout.backward(grad_weights)
        grad_scores = attention_softmax_backward(grad_probs.transpose(3, 0, 1, 2), probs, scale)

        grad_queries = np.matmul(grad_scores.transpose(1, 2, 3, 0), keys)
        grad_keys = np.matmul(grad_scores.transpose(1, 2, 0, 3), queries)

        grad_packed = np.concatenate(
            [
                self._merge_heads(grad_queries),
                self._merge_heads(grad_keys),
                self._merge_heads(grad_values),
            ],
            axis=-1,
        )
        grad_input = self.qkv.backward(grad_packed, input_grad)  # one GEMM each for dW and dx
        self._cache = None
        return grad_input


class UnfusedAttentionReference(Module):
    """The pre-fusion attention arithmetic: three separate Q/K/V GEMMs.

    Built from a fused :class:`MultiHeadSelfAttention` by unpacking its
    ``qkv`` parameter into per-projection linears.  Exists as the in-repo
    oracle that (a) the fused layout computes identical values and gradients
    (``tests/lm/test_attention_fused.py``) and (b) the training benchmark
    can measure what fusing is worth (``benchmarks/test_train_throughput.py``).
    """

    def __init__(self, fused: MultiHeadSelfAttention) -> None:
        super().__init__()
        self.config = fused.config
        hidden = fused.config.hidden_size
        for index, name in enumerate(_QKV_NAMES):
            block = slice(index * hidden, (index + 1) * hidden)
            linear = Linear(hidden, hidden, weight=fused.qkv.weight.value[:, block].copy())
            linear.bias.value[...] = fused.qkv.bias.value[block]
            self.add_child(name, linear)
        output = Linear(hidden, hidden, weight=fused.output.weight.value.copy())
        output.bias.value[...] = fused.output.bias.value
        self.output = self.add_child("output", output)
        self.attention_dropout = self.add_child(
            "attention_dropout", Dropout(fused.config.attention_dropout, np.random.default_rng(0))
        )
        self._cache: dict[str, np.ndarray] | None = None

    @property
    def query(self) -> Linear:
        return self._children["query"]  # type: ignore[return-value]

    @property
    def key(self) -> Linear:
        return self._children["key"]  # type: ignore[return-value]

    @property
    def value(self) -> Linear:
        return self._children["value"]  # type: ignore[return-value]

    _split_heads = MultiHeadSelfAttention._split_heads
    _merge_heads = MultiHeadSelfAttention._merge_heads

    def forward(self, x: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
        # float(): np.sqrt returns a float64 *numpy* scalar, which under
        # NumPy-2 promotion would silently lift the whole attention pass
        # to float64; a python float stays weakly typed.
        scale = 1.0 / float(np.sqrt(self.config.head_dim))
        queries = self._split_heads(self.query.forward(x))
        keys = self._split_heads(self.key.forward(x))
        values = self._split_heads(self.value.forward(x))

        scores = np.matmul(queries, keys.transpose(0, 1, 3, 2)) * scale
        key_bias = (1.0 - attention_mask[:, None, None, :]) * MASK_BIAS
        probs = softmax(scores + key_bias, axis=-1)
        weights = self.attention_dropout.forward(probs)

        context = np.matmul(weights, values)
        merged = self._merge_heads(context)
        self._cache = {
            "queries": queries,
            "keys": keys,
            "values": values,
            "probs": probs,
            "weights": weights,
            "scale": np.float32(scale),
        }
        return self.output.forward(merged)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("UnfusedAttentionReference: backward before forward")
        cache = self._cache
        queries, keys, values = cache["queries"], cache["keys"], cache["values"]
        probs, weights = cache["probs"], cache["weights"]
        scale = float(cache["scale"])

        grad_merged = self.output.backward(grad_output)
        grad_context = self._split_heads(grad_merged)

        grad_weights = np.matmul(grad_context, values.transpose(0, 1, 3, 2))
        grad_values = np.matmul(weights.transpose(0, 1, 3, 2), grad_context)

        grad_probs = self.attention_dropout.backward(grad_weights)
        grad_scores = softmax_backward(grad_probs, probs, axis=-1) * scale

        grad_queries = np.matmul(grad_scores, keys)
        grad_keys = np.matmul(grad_scores.transpose(0, 1, 3, 2), queries)

        grad_input = self.query.backward(self._merge_heads(grad_queries))
        grad_input = grad_input + self.key.backward(self._merge_heads(grad_keys))
        grad_input = grad_input + self.value.backward(self._merge_heads(grad_values))
        self._cache = None
        return grad_input

    def packed_qkv_grads(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-projection grads packed into the fused layout (for parity tests)."""
        weight = np.concatenate(
            [self._children[name].weight.grad for name in _QKV_NAMES], axis=1
        )
        bias = np.concatenate(
            [self._children[name].bias.grad for name in _QKV_NAMES], axis=0
        )
        return weight, bias
