"""MiniBERT: the from-scratch encoder-only language model.

Architecture mirrors BERT (token + position + segment embeddings, LayerNorm
and dropout on the summed embedding, a stack of post-norm transformer blocks,
and a tanh pooler over the [CLS] hidden state), scaled down to run on CPU
with numpy.  Two heads attach to it in this repository:

* an MLM head during domain pre-training (:mod:`repro.lm.mlm`), and
* the paper's ``matching classifier`` for the BERT featurizer
  (:mod:`repro.featurizers.bert`).

The forward splits into a *trunk* (embeddings and every block below the
top) and a *top* (the last block and the pooler).  MLM pre-training runs and
backpropagates through both; a featurizer update runs the trunk
inference-only and trains the top (:meth:`MiniBert.backward_top`).
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import tanh, tanh_backward
from ..nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    inference_active,
)
from .config import BertConfig
from .encoder import TransformerBlock
from .tokenizer import EncodedPair


class MiniBert(Module):
    """Encoder producing per-token hidden states and a pooled [CLS] vector."""

    def __init__(self, config: BertConfig, seed: int = 0) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(seed)
        self.token_embedding = self.add_child(
            "token_embedding", Embedding(config.vocab_size, config.hidden_size, rng)
        )
        self.position_embedding = self.add_child(
            "position_embedding", Embedding(config.max_position, config.hidden_size, rng)
        )
        self.segment_embedding = self.add_child(
            "segment_embedding", Embedding(config.num_segments, config.hidden_size, rng)
        )
        self.embedding_norm = self.add_child("embedding_norm", LayerNorm(config.hidden_size))
        self.embedding_dropout = self.add_child(
            "embedding_dropout", Dropout(config.dropout, rng)
        )
        self.blocks: list[TransformerBlock] = []
        for index in range(config.num_layers):
            block = TransformerBlock(config, rng)
            self.add_child(f"block{index}", block)
            self.blocks.append(block)
        self.pooler = self.add_child(
            "pooler", Linear(config.hidden_size, config.hidden_size, rng)
        )
        self._pooler_cache: np.ndarray | None = None
        self._seq_len: int | None = None

    # -- forward ---------------------------------------------------------------

    def forward(self, batch: EncodedPair) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch; returns ``(hidden_states, pooled_cls)``.

        ``hidden_states`` has shape (batch, seq, hidden); ``pooled_cls`` is
        ``tanh(W * h_[CLS] + b)`` with shape (batch, hidden).  The same
        arithmetic as :meth:`forward_trunk` followed by :meth:`forward_top`.
        """
        return self.forward_top(self.forward_trunk(batch), batch.attention_mask)

    def forward_trunk(self, batch: EncodedPair) -> np.ndarray:
        """The trunk: embeddings, their LayerNorm and dropout, and every
        block below the top.  Returns the top block's input (batch, seq, hidden)."""
        input_ids = batch.input_ids
        if input_ids.ndim != 2:
            raise ValueError(
                f"forward expects a batched EncodedPair with 2-D input_ids, got "
                f"shape {input_ids.shape}; wrap single pairs with stack_encoded"
            )
        batch_size, seq_len = input_ids.shape
        if seq_len > self.config.max_position:
            raise ValueError(
                f"sequence length {seq_len} exceeds max_position {self.config.max_position}"
            )
        positions = np.broadcast_to(np.arange(seq_len), (batch_size, seq_len))

        # The gathers are fresh copies no cache holds: sum them in place.
        embedded = self.token_embedding.forward(input_ids)
        embedded += self.position_embedding.forward(positions)
        embedded += self.segment_embedding.forward(batch.segment_ids)
        hidden = self.embedding_norm.forward(embedded)
        hidden = self.embedding_dropout.forward(hidden)

        mask = batch.attention_mask.astype(hidden.dtype)
        for block in self.blocks[:-1]:
            hidden = block.forward(hidden, mask)
        return hidden

    def forward_top(
        self, trunk_hidden: np.ndarray, attention_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The top block and the pooler over the trunk's output."""
        hidden = self.blocks[-1].forward(
            trunk_hidden, attention_mask.astype(trunk_hidden.dtype)
        )
        pooled_raw = self.pooler.forward(hidden[:, 0, :])
        pooled, pooler_cache = tanh(pooled_raw)
        if not inference_active():
            self._seq_len = hidden.shape[1]
            self._pooler_cache = pooler_cache
        return hidden, pooled

    def top_parameters(self, prefix: str = "") -> dict[str, Parameter]:
        """Parameters of the top block and the pooler, named as in :meth:`parameters`."""
        top = len(self.blocks) - 1
        return {
            **self.blocks[top].parameters(f"{prefix}block{top}."),
            **self.pooler.parameters(f"{prefix}pooler."),
        }

    def train_top(self) -> None:
        """Train mode for the top block and the pooler; the trunk stays in
        eval mode, so its forward draws no dropout."""
        self.eval()
        self.blocks[-1].train()
        self.pooler.train()

    # -- backward ----------------------------------------------------------------

    def backward(
        self,
        grad_hidden: np.ndarray | None = None,
        grad_pooled: np.ndarray | None = None,
    ) -> None:
        """Backpropagate gradients from either or both heads.

        ``grad_hidden`` matches the per-token hidden states (MLM head);
        ``grad_pooled`` matches the pooled [CLS] output (matching classifier).
        """
        grad_hidden = self.backward_top(grad_hidden, grad_pooled)
        for block in reversed(self.blocks[:-1]):
            grad_hidden = block.backward(grad_hidden)

        grad_embedded = self.embedding_dropout.backward(grad_hidden)
        grad_embedded = self.embedding_norm.backward(grad_embedded)
        self.token_embedding.backward(grad_embedded)
        self.position_embedding.backward(grad_embedded)
        self.segment_embedding.backward(grad_embedded)

    def backward_top(
        self,
        grad_hidden: np.ndarray | None = None,
        grad_pooled: np.ndarray | None = None,
    ) -> np.ndarray:
        """Backpropagate through the pooler and the top block only.

        Needs a :meth:`forward_top` outside :func:`repro.nn.inference_scope`;
        returns the gradient at the top block's input, which a frozen trunk
        discards.
        """
        if self._seq_len is None:
            raise RuntimeError("MiniBert: backward before forward")
        if grad_hidden is None and grad_pooled is None:
            raise ValueError("at least one of grad_hidden/grad_pooled is required")

        if grad_pooled is not None:
            if self._pooler_cache is None:
                raise RuntimeError("MiniBert: pooled backward before forward")
            grad_pooled_raw = tanh_backward(grad_pooled, self._pooler_cache)
            grad_cls = self.pooler.backward(grad_pooled_raw)
            if grad_hidden is None:
                batch_size = grad_cls.shape[0]
                grad_hidden = np.zeros(
                    (batch_size, self._seq_len, self.config.hidden_size), dtype=grad_cls.dtype
                )
            else:
                grad_hidden = grad_hidden.copy()
            grad_hidden[:, 0, :] += grad_cls
        self._pooler_cache = None
        self._seq_len = None
        return self.blocks[-1].backward(grad_hidden)
