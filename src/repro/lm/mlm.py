"""Masked-language-model pre-training of MiniBERT on the domain corpus.

Standard BERT MLM recipe: 15 % of non-special tokens are selected; of those,
80 % are replaced by [MASK], 10 % by a random token and 10 % kept unchanged.
The model predicts the original ids at the selected positions only.

Pre-training here plays the role of BERT's Books+Wikipedia pre-training --
it is what endows the encoder with the domain's distributional semantics
before the ISS-specific matching-classifier pre-training (which is handled
by :mod:`repro.featurizers.bert`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..nn.layers import Linear, Module
from ..nn.losses import softmax_cross_entropy
from ..nn.optim import Adam, clip_gradients
from ..nn.stats import TrainStats
from .bert import MiniBert
from .config import BertConfig
from .encode_plane import EncodePlane
from .tokenizer import EncodedPair, WordPieceTokenizer
from .vocab import WordPieceVocab

IGNORE_INDEX = -100

#: How many fresh Bernoulli draws :func:`mask_tokens_with_redraw` attempts
#: before force-masking a single maskable position.
MAX_MASK_REDRAWS = 4


class MlmHead(Module):
    """Linear projection from hidden states to vocabulary logits."""

    def __init__(self, config: BertConfig, rng: np.random.Generator) -> None:
        super().__init__()
        self.projection = self.add_child(
            "projection", Linear(config.hidden_size, config.vocab_size, rng)
        )

    def forward(self, hidden: np.ndarray) -> np.ndarray:
        return self.projection.forward(hidden)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        return self.projection.backward(grad_logits)


def mask_tokens(
    batch: EncodedPair,
    vocab: WordPieceVocab,
    rng: np.random.Generator,
    mask_probability: float = 0.15,
) -> tuple[EncodedPair, np.ndarray]:
    """Apply BERT's 80/10/10 masking; returns (masked batch, labels).

    Labels equal the original ids at masked positions and ``IGNORE_INDEX``
    elsewhere.  Special tokens and padding are never masked.
    """
    input_ids = batch.input_ids.copy()
    labels = np.full_like(input_ids, IGNORE_INDEX)

    special = np.isin(input_ids, sorted(vocab.special_ids()))
    maskable = (~special) & (batch.attention_mask == 1)
    selected = maskable & (rng.random(input_ids.shape) < mask_probability)

    labels[selected] = input_ids[selected]
    action = rng.random(input_ids.shape)
    replace_mask = selected & (action < 0.8)
    replace_random = selected & (action >= 0.8) & (action < 0.9)
    input_ids[replace_mask] = vocab.mask_id
    num_random = int(replace_random.sum())
    if num_random:
        input_ids[replace_random] = rng.integers(
            len(vocab.special_ids()), len(vocab), size=num_random
        )
    return (
        EncodedPair(
            input_ids=input_ids,
            segment_ids=batch.segment_ids,
            attention_mask=batch.attention_mask,
        ),
        labels,
    )


def mask_tokens_with_redraw(
    batch: EncodedPair,
    vocab: WordPieceVocab,
    rng: np.random.Generator,
    mask_probability: float = 0.15,
    stats: TrainStats | None = None,
) -> tuple[EncodedPair, np.ndarray] | None:
    """:func:`mask_tokens`, retried until at least one position is masked.

    With small batches (tiny corpora, the tail chunk of an epoch) the
    Bernoulli draw frequently selects *nothing*, and the old training loop
    silently dropped the batch -- those samples never produced a gradient.
    Here the mask is re-drawn up to :data:`MAX_MASK_REDRAWS` times; if the
    draw still comes up empty, one maskable position is force-masked so the
    batch always trains.  Returns ``None`` only when the batch contains no
    maskable token at all (all-special/padding).
    """
    masked, labels = mask_tokens(batch, vocab, rng, mask_probability)
    redraws = 0
    while not (labels != IGNORE_INDEX).any() and redraws < MAX_MASK_REDRAWS:
        redraws += 1
        masked, labels = mask_tokens(batch, vocab, rng, mask_probability)
    if stats is not None:
        stats.mask_redraws += redraws
    if (labels != IGNORE_INDEX).any():
        return masked, labels

    special = np.isin(batch.input_ids, sorted(vocab.special_ids()))
    maskable = (~special) & (batch.attention_mask == 1)
    positions = np.argwhere(maskable)
    if positions.shape[0] == 0:
        if stats is not None:
            stats.unmaskable_batches += 1
        return None
    row, col = positions[int(rng.integers(positions.shape[0]))]
    input_ids = batch.input_ids.copy()
    labels = np.full_like(input_ids, IGNORE_INDEX)
    labels[row, col] = input_ids[row, col]
    input_ids[row, col] = vocab.mask_id
    return (
        EncodedPair(
            input_ids=input_ids,
            segment_ids=batch.segment_ids,
            attention_mask=batch.attention_mask,
        ),
        labels,
    )


@dataclass
class MlmTrainResult:
    """Diagnostics of a pre-training run."""

    losses: list[float]
    steps: int

    @property
    def final_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def pretrain_mlm(
    model: MiniBert,
    tokenizer: WordPieceTokenizer,
    corpus: Sequence[Sequence[str]],
    epochs: int = 3,
    batch_size: int = 32,
    lr: float = 5e-4,
    max_length: int = 32,
    seed: int = 0,
    max_grad_norm: float = 1.0,
    mask_probability: float = 0.15,
    stats: TrainStats | None = None,
) -> MlmTrainResult:
    """Run MLM pre-training over the corpus; mutates ``model`` in place.

    Each sentence is tokenised once.  Every epoch plans length-bucketed
    chunks with :func:`repro.engine.batching.plan_training_chunks` (the
    label updates' planner), so a corpus of mostly-short attribute names
    does not pad every row to ``max_length``, and the chunk order is
    shuffled.  Each step's ``[CLS] A [SEP]`` batch is gathered from the id
    arrays by :meth:`EncodePlane.assemble_singles`.  ``stats`` accumulates
    per-stage timings and masking counters.
    """
    if stats is None:
        stats = TrainStats()
    rng = np.random.default_rng(seed)
    head_rng = np.random.default_rng(seed + 1)
    head = MlmHead(model.config, head_rng)
    parameters = {**model.parameters("bert."), **head.parameters("head.")}
    optimizer = Adam(parameters, lr=lr)

    plane = EncodePlane(tokenizer, max_length=max_length)
    with stats.timer("encode"):
        id_rows = [tokenizer.ids_array(sentence) for sentence in corpus if sentence]
    if not id_rows:
        raise ValueError("corpus is empty")
    lengths = [min(ids.size, max_length - 2) + 2 for ids in id_rows]

    # Imported here to keep repro.lm free of an engine dependency at import
    # time (engine.batching itself imports from repro.lm.tokenizer).
    from ..engine.batching import plan_training_chunks

    model.train()
    head.train()
    losses: list[float] = []
    steps = 0
    with obs.span(
        "mlm.pretrain", sentences=len(id_rows), epochs=int(epochs)
    ) as span:
        for _ in range(epochs):
            stats.epochs += 1
            with stats.timer("bucket"):
                chunks = plan_training_chunks(lengths, batch_size, rng)
            stats.buckets += len({padded for padded, _chunk in chunks})
            for padded, chunk in chunks:
                with stats.timer("bucket"):
                    batch = plane.assemble_singles([id_rows[i] for i in chunk], pad_to=padded)
                with stats.timer("mask"):
                    drawn = mask_tokens_with_redraw(
                        batch,
                        tokenizer.vocab,
                        rng,
                        mask_probability,
                        stats=stats,
                    )
                if drawn is None:
                    continue
                masked, labels = drawn
                with stats.timer("forward"):
                    hidden, _ = model.forward(masked)
                    logits = head.forward(hidden)
                loss, grad_logits = softmax_cross_entropy(
                    logits, labels, ignore_index=IGNORE_INDEX
                )
                with stats.timer("backward"):
                    optimizer.zero_grad()
                    grad_hidden = head.backward(grad_logits)
                    model.backward(grad_hidden=grad_hidden)
                with stats.timer("optim"):
                    clip_gradients(parameters, max_grad_norm)
                    optimizer.step()
                losses.append(loss)
                steps += 1
                stats.steps += 1
                stats.microbatches += 1
                stats.samples += int(masked.input_ids.shape[0])
        span.set(steps=steps, final_loss=float(losses[-1]) if losses else None)
    model.eval()
    return MlmTrainResult(losses=losses, steps=steps)
