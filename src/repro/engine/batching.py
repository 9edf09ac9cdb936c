"""Length-bucketed micro-batch planning.

The monolithic scoring path pads every pair to the tokenizer's
``max_length``, so a batch of short attribute names pays the attention cost
of the longest description in the schema (quadratic in sequence length).
This module plans the batch layout instead:

1. group rows by their *actual* token count, rounded up to a multiple of
   ``bucket_granularity`` so near-equal lengths share a batch;
2. within each bucket, cut rows into chunks of at most ``microbatch_size``,
   each padded to the bucket's length.

:data:`MICROBATCH_SIZE` is the default chunk size of every planner and of
:class:`repro.engine.EngineConfig`.  :data:`BUCKET_GRANULARITY` is the
planners' default width, used where chunk composition is behaviour: the
rows that share a training step (:func:`plan_training_chunks`) and the
serving scheduler's batches.  The scoring engine plans at
:data:`EXACT_LENGTH`, so its micro-batches carry no padding at all.

The planners work on lengths alone.  :func:`plan_bucket_chunks` orders the
chunks shortest-first for scoring; :func:`plan_training_chunks` shuffles
their order for gradient steps.  Callers gather each chunk from the encode
plane's id tables (:mod:`repro.lm.encode_plane`).
:func:`plan_microbatches` stacks already-encoded pairs along the same plan
for the serving scheduler.

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

#: Default maximum rows per micro-batch.
MICROBATCH_SIZE = 64
#: Default bucket width: padded lengths are rounded up to a multiple of it.
#: Training chunks and the serving scheduler plan with it.
BUCKET_GRANULARITY = 8
#: The scoring engine's bucket width: each micro-batch holds rows of one
#: token count, padded to exactly that count.  While the classifier's
#: channel path is silent a row's score is the same bits in a plan of any
#: composition; with it live, BLAS's shape-dependent blocking can move a
#: row by a few float32 ulps (``tests/engine/test_parity.py``).
EXACT_LENGTH = 1


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
    microbatch_size: int = MICROBATCH_SIZE,
    bucket_granularity: int = BUCKET_GRANULARITY,
) -> list[tuple[int, list[int]]]:
    """The batch layout on *lengths* alone: ``(padded_length, indices)`` chunks.

    This is the planning half of :func:`plan_microbatches`, decoupled from
    the encoded arrays so the encode plane (:mod:`repro.lm.encode_plane`)
    can plan from its cached half lengths and assemble each chunk directly
    into one block -- no per-pair ``attention_mask.sum()``, no
    ``stack_encoded``.  Shorter buckets come first; within a bucket the
    caller's order is preserved; every index appears in exactly one chunk.
    At ``bucket_granularity=EXACT_LENGTH`` (the scoring engine's plans) a
    chunk's padded length equals each of its rows' lengths.
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
    microbatch_size: int = MICROBATCH_SIZE,
    bucket_granularity: int = BUCKET_GRANULARITY,
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


def plan_training_chunks(
    lengths: Sequence[int],
    microbatch_size: int,
    rng: np.random.Generator,
) -> list[tuple[int, list[int]]]:
    """The chunk plan for *training*: :func:`plan_bucket_chunks`, order-shuffled.

    The inference planner emits buckets shortest-first, which would feed an
    optimiser all short sequences before any long ones.  Gradient steps
    keep the bucketed composition of each chunk -- that is where the
    padding win lives -- but run the chunks in an order drawn from ``rng``
    (SGD-style), so consecutive steps mix lengths.  A single chunk draws
    nothing.  Callers assemble each chunk from the encode plane.
    """
    chunks = plan_bucket_chunks(lengths, microbatch_size=microbatch_size)
    if len(chunks) > 1:
        chunks = [chunks[int(i)] for i in rng.permutation(len(chunks))]
    return chunks
