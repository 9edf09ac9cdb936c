"""Training throughput: fused+bucketed fast path vs the naive seed-era loop.

Mirror of ``test_engine_throughput.py`` for the training half of the latency
budget.  The same skewed-length profile (many short schema sentences, a long
tail of description-bearing pairs) is pushed through one MLM-style training
epoch twice:

* **naive** -- the pre-PR arrangement: three separate Q/K/V GEMMs per
  attention layer (:class:`UnfusedAttentionReference`) and every batch
  padded to ``MAX_LENGTH``;
* **fast** -- the fused packed-QKV attention over length-bucketed
  micro-batches: the chunks of :func:`plan_training_chunks`, each chunk's
  pairs stacked and trimmed to its padded length.

Both paths run the full step (forward, loss, backward, clip, Adam) over the
same samples; the measured speedup lands in ``BENCH_train.json``.
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit_benchmark
from conftest import register_report

from repro.engine.batching import plan_training_chunks
from repro.eval.reporting import render_table
from repro.lm import UnfusedAttentionReference
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.mlm import IGNORE_INDEX, MlmHead
from repro.lm.tokenizer import EncodedPair, stack_encoded, trim_encoded
from repro.nn import Adam, clip_gradients
from repro.nn.losses import softmax_cross_entropy

MAX_LENGTH = 64
VOCAB_SIZE = 100
#: (real token count, number of pairs) -- the shape bucketing exists for.
LENGTH_PROFILE = [(6, 96), (10, 96), (14, 48), (30, 12), (60, 12)]
BATCH_SIZE = 32
REPEATS = 2


def synthetic_pair(length: int, rng: np.random.Generator) -> EncodedPair:
    input_ids = np.zeros(MAX_LENGTH, dtype=np.int64)
    input_ids[:length] = rng.integers(5, 90, size=length)
    attention = np.zeros(MAX_LENGTH, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(MAX_LENGTH, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


def make_model(fused: bool) -> MiniBert:
    model = MiniBert(
        BertConfig(
            vocab_size=VOCAB_SIZE,
            hidden_size=32,
            num_layers=2,
            num_heads=2,
            intermediate_size=64,
            max_position=MAX_LENGTH,
            dropout=0.0,
            attention_dropout=0.0,
        ),
        seed=1,
    )
    if not fused:
        # Reconstruct the seed-era three-GEMM attention from the fused
        # weights; the arithmetic is identical, only the GEMM layout differs.
        for block in model.blocks:
            block.attention = block.add_child(
                "attention", UnfusedAttentionReference(block.attention)
            )
    model.train()
    return model


def mlm_labels(batch: EncodedPair, rng: np.random.Generator) -> np.ndarray:
    """15%-of-real-tokens MLM labels (vocab-free stand-in for mask_tokens)."""
    selected = (batch.attention_mask == 1) & (rng.random(batch.input_ids.shape) < 0.15)
    labels = np.full_like(batch.input_ids, IGNORE_INDEX)
    labels[selected] = batch.input_ids[selected]
    return labels


def train_epoch(model: MiniBert, batches: list[EncodedPair]) -> None:
    head = MlmHead(model.config, np.random.default_rng(7))
    head.train()
    parameters = {**model.parameters("bert."), **head.parameters("head.")}
    optimizer = Adam(parameters, lr=5e-4)
    label_rng = np.random.default_rng(13)
    for batch in batches:
        labels = mlm_labels(batch, label_rng)
        hidden, _ = model.forward(batch)
        logits = head.forward(hidden)
        _, grad_logits = softmax_cross_entropy(logits, labels, ignore_index=IGNORE_INDEX)
        optimizer.zero_grad()
        model.backward(grad_hidden=head.backward(grad_logits))
        clip_gradients(parameters, 1.0)
        optimizer.step()


def test_fused_bucketed_training_beats_naive():
    rng = np.random.default_rng(0)
    encoded = [
        synthetic_pair(length, rng)
        for length, count in LENGTH_PROFILE
        for _ in range(count)
    ]

    # naive: fixed-order full-MAX_LENGTH batches, as the seed training loop
    # stacked them.
    naive_batches = [
        stack_encoded(encoded[start : start + BATCH_SIZE])
        for start in range(0, len(encoded), BATCH_SIZE)
    ]
    # fast: bucket-trimmed micro-batches (shuffle rng fixed for determinism).
    chunks = plan_training_chunks(
        [int(pair.attention_mask.sum()) for pair in encoded],
        BATCH_SIZE,
        np.random.default_rng(1),
    )
    fast_batches = [
        trim_encoded(stack_encoded([encoded[i] for i in chunk]), padded)
        for padded, chunk in chunks
    ]
    assert max(batch.input_ids.shape[1] for batch in fast_batches) <= MAX_LENGTH
    assert min(batch.input_ids.shape[1] for batch in fast_batches) < MAX_LENGTH

    def run_naive() -> None:
        train_epoch(make_model(fused=False), naive_batches)

    def run_fast() -> None:
        train_epoch(make_model(fused=True), fast_batches)

    run_naive()  # warm both paths (BLAS threads, allocator) before timing
    run_fast()

    def best_of(run) -> float:
        timings = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            run()
            timings.append(time.perf_counter() - start)
        return min(timings)

    naive_seconds = best_of(run_naive)
    fast_seconds = best_of(run_fast)
    speedup = naive_seconds / fast_seconds

    register_report(
        render_table(
            ["path", "wall-clock (s)", "speedup"],
            [
                ["naive (unfused, full padding)", f"{naive_seconds:.4f}", "1.00x"],
                ["fused + bucketed", f"{fast_seconds:.4f}", f"{speedup:.2f}x"],
            ],
            title=(
                f"Training throughput -- one MLM epoch over "
                f"{len(encoded)} skewed-length pairs"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_train.json",
        benchmark="train_throughput",
        workload={
            "pairs": len(encoded),
            "max_length": MAX_LENGTH,
            "length_profile": LENGTH_PROFILE,
            "batch_size": BATCH_SIZE,
        },
        baseline_seconds=naive_seconds,
        fast_seconds=fast_seconds,
        gate={"min_speedup": 1.5},
        extra={"baseline": "unfused attention, full padding", "fast": "fused + bucketed"},
    )

    # The acceptance bar is >= 3x on this profile; assert a softer floor so
    # a loaded CI box does not flake, while the JSON records the real margin.
    assert speedup > 1.5, datapoint
