"""Length-bucketed micro-batching of encoded candidate pairs.

The monolithic scoring path pads every pair to the tokenizer's
``max_length``, so a batch of short attribute names pays the attention cost
of the longest description in the schema (quadratic in sequence length).
This module plans the batch layout the scoring engine executes instead:

1. group pairs by their *actual* token count, rounded up to a configurable
   ``bucket_granularity`` so near-equal lengths share a batch;
2. within each bucket, stack pairs into micro-batches of at most
   ``microbatch_size`` rows, trimmed to the bucket's padded length.

Because attention masks zero padding out of every softmax and pooling step
(see :func:`repro.lm.tokenizer.trim_encoded`), the plan is numerically
equivalent to the single stacked batch -- the parity suite
(``tests/engine/test_parity.py``) holds this to 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..lm.tokenizer import EncodedPair, encoded_length, stack_encoded, trim_encoded


@dataclass(frozen=True)
class MicroBatch:
    """One unit of scoring work: a stacked batch plus its source positions."""

    #: Positions (into the caller's pair list) of the stacked rows, in order.
    indices: tuple[int, ...]
    #: The stacked, bucket-trimmed model input.
    batch: EncodedPair

    @property
    def padded_length(self) -> int:
        return int(self.batch.input_ids.shape[1])


def bucket_key(length: int, granularity: int) -> int:
    """Padded length of the bucket holding sequences of ``length`` tokens."""
    if length <= 0:
        return granularity
    return ((length + granularity - 1) // granularity) * granularity


def plan_bucket_chunks(
    lengths: Sequence[int],
    microbatch_size: int = 64,
    bucket_granularity: int = 8,
) -> list[tuple[int, list[int]]]:
    """The batch layout on *lengths* alone: ``(padded_length, indices)`` chunks.

    This is the planning half of :func:`plan_microbatches`, decoupled from
    the encoded arrays so the encode plane (:mod:`repro.lm.encode_plane`)
    can plan from its cached half lengths and assemble each chunk directly
    into one block -- no per-pair ``attention_mask.sum()``, no
    ``stack_encoded``.  Shorter buckets come first; within a bucket the
    caller's order is preserved; every index appears in exactly one chunk.
    """
    if microbatch_size < 1:
        raise ValueError(f"microbatch_size must be >= 1, got {microbatch_size}")
    if bucket_granularity < 1:
        raise ValueError(f"bucket_granularity must be >= 1, got {bucket_granularity}")
    buckets: dict[int, list[int]] = {}
    for index, length in enumerate(lengths):
        key = bucket_key(int(length), bucket_granularity)
        buckets.setdefault(key, []).append(index)

    chunks: list[tuple[int, list[int]]] = []
    for padded in sorted(buckets):
        members = buckets[padded]
        for start in range(0, len(members), microbatch_size):
            chunks.append((padded, members[start : start + microbatch_size]))
    return chunks


def plan_microbatches(
    encoded: list[EncodedPair],
    microbatch_size: int = 64,
    bucket_granularity: int = 8,
) -> list[MicroBatch]:
    """Bucket-and-chunk ``encoded`` into an ordered list of micro-batches.

    Shorter buckets come first so progress counters move early; within a
    bucket the caller's order is preserved.  Every input index appears in
    exactly one micro-batch.
    """
    chunks = plan_bucket_chunks(
        [encoded_length(pair) for pair in encoded],
        microbatch_size=microbatch_size,
        bucket_granularity=bucket_granularity,
    )
    plan: list[MicroBatch] = []
    for padded, chunk in chunks:
        stacked = stack_encoded([encoded[i] for i in chunk])
        plan.append(MicroBatch(tuple(chunk), trim_encoded(stacked, padded)))
    return plan


def plan_num_buckets(plan: list[MicroBatch]) -> int:
    """Distinct padded lengths across a plan (for the stats counters)."""
    return len({microbatch.padded_length for microbatch in plan})


def plan_training_microbatches(
    encoded: list[EncodedPair],
    microbatch_size: int = 32,
    bucket_granularity: int = 8,
    rng: np.random.Generator | None = None,
) -> list[MicroBatch]:
    """A micro-batch plan for *training*: bucketed, then order-shuffled.

    The inference planner above emits buckets shortest-first, which would
    feed an optimiser all short sequences before any long ones.  For
    gradient steps we keep the padding savings but shuffle the execution
    order of the micro-batches (SGD-style), so consecutive steps mix
    lengths.  Composition within each micro-batch stays bucketed -- that is
    where the padding win lives.
    """
    plan = plan_microbatches(
        encoded, microbatch_size=microbatch_size, bucket_granularity=bucket_granularity
    )
    if rng is not None and len(plan) > 1:
        plan = [plan[int(i)] for i in rng.permutation(len(plan))]
    return plan
