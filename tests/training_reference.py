"""Stack-and-trim reference for the training input path, and the one-batch step.

Training plans index-only chunks (:func:`repro.engine.batching.plan_training_chunks`)
and gathers every step's batch from the encode plane.  These helpers build
the same steps the plain way -- one full-width ``encode_pair`` or
``encode_single`` row per sample, lengths summed from the attention masks,
buckets rounded up by hand, rows stacked and trimmed -- so the training
suites can hold the fast path to them bit for bit.

A label update's step runs its micro-batch as row shards, each on its own
replica of the trained modules, and sums their grads.
:func:`one_batch_step_grads` is the step the plain way, the whole
micro-batch in one forward and backward, for the suites to hold the
sharded step to within float32 rounding.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.featurizers.bert import (
    backward_match_features,
    compute_match_features,
    trained_parameters,
)
from repro.lm.tokenizer import EncodedPair, stack_encoded, trim_encoded
from repro.nn import binary_cross_entropy_with_logits, weight_sharing_copy

GRANULARITY = 8


def sample_rows(tokenizer, samples, max_length: int) -> list[EncodedPair]:
    """One full-width ``[CLS] a [SEP] b [SEP]`` row per training sample."""
    return [
        tokenizer.encode_pair(list(s.words_a), list(s.words_b), max_length=max_length)
        for s in samples
    ]


def sentence_rows(tokenizer, sentences, max_length: int) -> list[EncodedPair]:
    """One full-width ``[CLS] A [SEP]`` row per non-empty MLM sentence."""
    return [
        tokenizer.encode_single(list(s), max_length=max_length) for s in sentences if s
    ]


def reference_plan(
    rows: Sequence[EncodedPair], microbatch_size: int, rng: np.random.Generator
) -> list[tuple[int, list[int], EncodedPair]]:
    """``(padded, chunk, batch)`` per step: bucketed chunks, shortest bucket
    first, run in an order drawn from ``rng`` when there is more than one."""
    buckets: dict[int, list[int]] = {}
    for index, row in enumerate(rows):
        length = int(row.attention_mask.sum())
        padded = -(-length // GRANULARITY) * GRANULARITY
        buckets.setdefault(padded, []).append(index)
    chunks = [
        (padded, buckets[padded][start : start + microbatch_size])
        for padded in sorted(buckets)
        for start in range(0, len(buckets[padded]), microbatch_size)
    ]
    if len(chunks) > 1:
        chunks = [chunks[int(i)] for i in rng.permutation(len(chunks))]
    return [
        (padded, chunk, trim_encoded(stack_encoded([rows[i] for i in chunk]), padded))
        for padded, chunk in chunks
    ]


def reference_steps(
    rows: Sequence[EncodedPair], epochs: int, microbatch_size: int, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray, EncodedPair]]:
    """``(padded, sample indices, batch)`` for every step of ``epochs`` passes,
    each pass over a fresh shuffle drawn from ``rng``."""
    for _ in range(max(1, epochs)):
        order = rng.permutation(len(rows))
        for padded, chunk, batch in reference_plan(
            [rows[int(i)] for i in order], microbatch_size, rng
        ):
            yield padded, order[chunk], batch


def assert_batches_equal(got: EncodedPair, expected: EncodedPair, context: str = "") -> None:
    for name in ("input_ids", "segment_ids", "attention_mask"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, f"{context} {name}"
        np.testing.assert_array_equal(a, b, err_msg=f"{context} {name}")


def one_batch_step_grads(featurizer, batch, trunk_hidden, labels, weights) -> dict[str, np.ndarray]:
    """The grads of one update step run as a single batch, before clipping.

    Runs on a fresh replica of the featurizer's top block, pooler and
    classifier (the live weights, zeroed grads), so the featurizer's own
    state is left as it was; keyed like the update's parameters.
    """
    model = featurizer.model.top_replica()
    classifier = weight_sharing_copy(featurizer.classifier)
    model.train_top()
    classifier.train()
    special_ids = sorted(featurizer.tokenizer.vocab.special_ids())
    features, cache = compute_match_features(model, special_ids, batch, trunk_hidden)
    _loss, grad_logits = binary_cross_entropy_with_logits(
        classifier.forward(features), labels, weights=weights
    )
    backward_match_features(model, classifier.backward(grad_logits), cache)
    fast, channel = trained_parameters(model, classifier)
    return {name: parameter.grad.copy() for name, parameter in {**fast, **channel}.items()}
