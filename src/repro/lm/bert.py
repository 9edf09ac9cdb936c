"""MiniBERT: the from-scratch encoder-only language model.

Architecture mirrors BERT (token + position + segment embeddings, LayerNorm
and dropout on the summed embedding, a stack of post-norm transformer blocks,
and a tanh pooler over the [CLS] hidden state), scaled down to run on CPU
with numpy.  Two heads attach to it in this repository:

* an MLM head during domain pre-training (:mod:`repro.lm.mlm`), and
* the paper's ``matching classifier`` for the BERT featurizer
  (:mod:`repro.featurizers.bert`).
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import tanh, tanh_backward
from ..nn.layers import Dropout, Embedding, LayerNorm, Linear, Module
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
        #: Embedding-layer output of the most recent forward pass (after the
        #: embedding LayerNorm, before the transformer blocks).  Exposed for
        #: consumers that want uncontextualised token features; treat it as
        #: detached -- backward() does not accept gradients for it.
        self.last_embedding_output: np.ndarray | None = None

    # -- forward ---------------------------------------------------------------

    def forward(self, batch: EncodedPair) -> tuple[np.ndarray, np.ndarray]:
        """Encode a batch; returns ``(hidden_states, pooled_cls)``.

        ``hidden_states`` has shape (batch, seq, hidden); ``pooled_cls`` is
        ``tanh(W * h_[CLS] + b)`` with shape (batch, hidden).
        """
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
        self._seq_len = seq_len
        positions = np.broadcast_to(np.arange(seq_len), (batch_size, seq_len))

        embedded = (
            self.token_embedding.forward(input_ids)
            + self.position_embedding.forward(positions)
            + self.segment_embedding.forward(batch.segment_ids)
        )
        hidden = self.embedding_norm.forward(embedded)
        hidden = self.embedding_dropout.forward(hidden)
        self.last_embedding_output = hidden

        mask = batch.attention_mask.astype(hidden.dtype)
        for block in self.blocks:
            hidden = block.forward(hidden, mask)

        pooled_raw = self.pooler.forward(hidden[:, 0, :])
        pooled, self._pooler_cache = tanh(pooled_raw)
        return hidden, pooled

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

        for block in reversed(self.blocks):
            grad_hidden = block.backward(grad_hidden)

        grad_embedded = self.embedding_dropout.backward(grad_hidden)
        grad_embedded = self.embedding_norm.backward(grad_embedded)
        self.token_embedding.backward(grad_embedded)
        self.position_embedding.backward(grad_embedded)
        self.segment_embedding.backward(grad_embedded)
        self._seq_len = None
