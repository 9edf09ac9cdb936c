"""Transformer encoder block (post-norm, as in the original BERT)."""

from __future__ import annotations

import numpy as np

from ..nn.activations import gelu, gelu_backward
from ..nn.layers import Dropout, LayerNorm, Linear, Module, inference_active
from .attention import MultiHeadSelfAttention
from .config import BertConfig


class TransformerBlock(Module):
    """Self-attention + feed-forward, each with residual and post-LayerNorm."""

    def __init__(self, config: BertConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.attention = self.add_child("attention", MultiHeadSelfAttention(config, rng))
        self.attention_norm = self.add_child("attention_norm", LayerNorm(config.hidden_size))
        self.attention_out_dropout = self.add_child(
            "attention_out_dropout", Dropout(config.dropout, rng)
        )
        self.intermediate = self.add_child(
            "intermediate", Linear(config.hidden_size, config.intermediate_size, rng)
        )
        self.ffn_output = self.add_child(
            "ffn_output", Linear(config.intermediate_size, config.hidden_size, rng)
        )
        self.ffn_norm = self.add_child("ffn_norm", LayerNorm(config.hidden_size))
        self.ffn_dropout = self.add_child("ffn_dropout", Dropout(config.dropout, rng))
        self._gelu_cache: np.ndarray | None = None

    def forward(self, x: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
        # Residuals are added into the branch output, a fresh array no cache
        # holds; ``x`` itself is the cached input of the branch's first GEMM.
        attended = self.attention.forward(x, attention_mask)
        attended = self.attention_out_dropout.forward(attended)
        attended += x
        x = self.attention_norm.forward(attended)

        hidden = self.intermediate.forward(x)
        activated, gelu_cache = gelu(hidden)
        if not inference_active():
            self._gelu_cache = gelu_cache
        projected = self.ffn_output.forward(activated)
        projected = self.ffn_dropout.forward(projected)
        projected += x
        return self.ffn_norm.forward(projected)

    def backward(self, grad_output: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate the parameter grads; return the input's gradient, or
        ``None`` when ``input_grad`` is false, which skips the packed-QKV
        input GEMM and the residual add (a frozen trunk below discards them)."""
        if self._gelu_cache is None:
            raise RuntimeError("TransformerBlock: backward before forward")
        grad_residual = self.ffn_norm.backward(grad_output)
        grad_projected = self.ffn_dropout.backward(grad_residual)
        grad_activated = self.ffn_output.backward(grad_projected)
        grad_hidden = gelu_backward(grad_activated, self._gelu_cache)
        self._gelu_cache = None
        grad_x = self.intermediate.backward(grad_hidden) + grad_residual

        grad_residual = self.attention_norm.backward(grad_x)
        grad_attended = self.attention_out_dropout.backward(grad_residual)
        grad_input = self.attention.backward(grad_attended, input_grad)
        return None if grad_input is None else grad_input + grad_residual
