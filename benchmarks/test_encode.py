"""Encode-plane throughput: batch assembly from cached halves beats per-pair encode.

An encode-dominated workload -- the full customer-A source attribute set
against a sample of the 10x-scaled retail ISS (no model forward at all) --
is prepared for scoring two ways:

* **baseline** -- the sequential path: ``encode_attribute_pair`` per pair
  (one Python/``np.asarray`` round-trip each) followed by
  ``plan_microbatches`` over the encoded rows, which re-reads every
  pair's real length.  This baseline already benefits from the trie
  WordPiece and the per-word memo, so the gate below measures assembly,
  not tokenisation.
* **fast** -- the encode plane: per-attribute token arrays served from the
  content-addressed :class:`~repro.lm.AttributeTokenStore`, truncation on
  lengths (``truncate_pair_lengths``), bucket planning on those lengths
  (``plan_bucket_chunks``), and whole micro-batches slice-written into
  one block each (``EncodePlane.assemble``).

Both layouts must agree bit-exactly chunk for chunk (same indices, same
``input_ids``/``segment_ids``/``attention_mask``) -- the parity the engine
relies on when ``score_halves`` shares the fingerprint score cache with
``score_encoded``.  Emits ``BENCH_encode.json`` at the repo root (uploaded
by CI).
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit_benchmark
from conftest import register_report

from repro.datasets import load_dataset, scale_schema
from repro.engine import plan_bucket_chunks, plan_microbatches
from repro.eval.reporting import render_table
from repro.lm import EncodePlane, WordPieceTokenizer, build_vocab
from repro.text.tokenize import name_and_description_tokens

SCALE_FACTOR = 10
MAX_LENGTH = 64
TARGET_SAMPLE = 300
VOCAB_SIZE = 600
REPEATS = 3
#: Acceptance bar: batch assembly from cached halves over per-pair encode.
MIN_SPEEDUP = 3.0


def bench_attributes():
    """Customer-A sources x sampled 10x-ISS targets: the candidate pairs of
    one interactive session, every target attribute shared by ~29 pairs."""
    task = load_dataset("customer_a")
    scaled = scale_schema(task.target, SCALE_FACTOR)
    sources = [attribute for _, attribute in task.source.iter_attributes()]
    targets = [attribute for _, attribute in scaled.iter_attributes()]
    rng = np.random.default_rng(0)
    sampled = [targets[i] for i in rng.choice(len(targets), TARGET_SAMPLE, replace=False)]
    pairs = [(source, target) for source in sources for target in sampled]
    corpus = [
        name_and_description_tokens(attribute.name, attribute.description)
        for attribute in sources + targets
    ]
    return pairs, build_vocab(corpus, target_size=VOCAB_SIZE)


def best_of(run) -> float:
    timings = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_batch_assembly_beats_per_pair_encode():
    pairs, vocab = bench_attributes()
    tokenizer = WordPieceTokenizer(vocab)
    plane = EncodePlane(tokenizer, max_length=MAX_LENGTH)

    def run_baseline():
        encoded = [
            tokenizer.encode_attribute_pair(
                source.name, source.description,
                target.name, target.description,
                max_length=MAX_LENGTH,
            )
            for source, target in pairs
        ]
        return plan_microbatches(encoded, microbatch_size=64, bucket_granularity=8)

    def run_fast():
        halves = [
            plane.halves(source.name, source.description, target.name, target.description)
            for source, target in pairs
        ]
        chunks = plan_bucket_chunks(
            [pair.length for pair in halves], microbatch_size=64, bucket_granularity=8
        )
        return [
            (indices, plane.assemble([halves[i] for i in indices], pad_to=padded))
            for padded, indices in chunks
        ]

    # Warm both paths (tokenise every attribute once, populate the word
    # memo), then prove bit-exact layout parity chunk for chunk.
    baseline_plan = run_baseline()
    fast_batches = run_fast()
    assert len(fast_batches) == len(baseline_plan)
    for microbatch, (indices, batch) in zip(baseline_plan, fast_batches):
        assert microbatch.indices == tuple(indices)
        np.testing.assert_array_equal(batch.input_ids, microbatch.batch.input_ids)
        np.testing.assert_array_equal(batch.segment_ids, microbatch.batch.segment_ids)
        np.testing.assert_array_equal(batch.attention_mask, microbatch.batch.attention_mask)

    baseline_seconds = best_of(run_baseline)
    fast_seconds = best_of(run_fast)
    speedup = baseline_seconds / fast_seconds
    stats = plane.stats_payload()

    register_report(
        render_table(
            ["path", "wall-clock (s)", "speedup"],
            [
                ["per-pair encode + plan_microbatches", f"{baseline_seconds:.4f}", "1.00x"],
                ["cached halves + batch assembly", f"{fast_seconds:.4f}", f"{speedup:.2f}x"],
            ],
            title=(
                f"Encode plane -- {len(pairs)} candidate pairs, "
                f"{len(baseline_plan)} micro-batches, max_length {MAX_LENGTH}"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_encode.json",
        benchmark="encode_plane",
        workload={
            "pairs": len(pairs),
            "target_sample": TARGET_SAMPLE,
            "scale_factor": SCALE_FACTOR,
            "max_length": MAX_LENGTH,
            "vocab_size": VOCAB_SIZE,
            "microbatches": len(baseline_plan),
        },
        baseline_seconds=baseline_seconds,
        fast_seconds=fast_seconds,
        gate={"min_speedup": MIN_SPEEDUP, "bit_exact_chunks": len(baseline_plan)},
        extra={
            "baseline": "encode_attribute_pair per pair + plan_microbatches",
            "fast": "token-store halves + plan_bucket_chunks + assemble",
            "token_cache_entries": stats["token_cache_entries"],
            "batches_assembled": stats["batches_assembled"],
        },
    )

    assert speedup >= MIN_SPEEDUP, datapoint
