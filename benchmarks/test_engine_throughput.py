"""Engine throughput smoke: exact-length micro-batches beat naive.

A skewed-length synthetic schema (many short attribute names, a handful of
long-description pairs) is scored two ways: the monolithic batch padded
to the longest pair and the engine's plan, whose micro-batches each hold
rows of one token count padded to exactly that count.  The engine must
win because attention cost is quadratic in the padded length, and both
paths must agree within 1e-8.  The datapoint is ``BENCH_engine.json``.
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit_benchmark
from conftest import register_report

from repro.engine import EngineConfig, ScoringEngine
from repro.eval.reporting import render_table
from repro.featurizers.bert import (
    MatchingClassifier,
    activate_channel_path,
    score_encoded_batch,
)
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair, stack_encoded

MAX_LENGTH = 64
#: (real token count, number of pairs): mostly short names, a long tail of
#: description-bearing pairs -- the shape bucketing exists for.
LENGTH_PROFILE = [(6, 96), (10, 96), (14, 48), (30, 12), (60, 12)]
REPEATS = 3

WORKLOAD = {
    "pairs": sum(count for _, count in LENGTH_PROFILE),
    "max_length": MAX_LENGTH,
    "length_profile": LENGTH_PROFILE,
    "hidden_size": 32,
    "num_layers": 2,
}


def synthetic_pair(length: int, rng: np.random.Generator) -> EncodedPair:
    input_ids = np.zeros(MAX_LENGTH, dtype=np.int64)
    input_ids[:length] = rng.integers(5, 90, size=length)
    attention = np.zeros(MAX_LENGTH, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(MAX_LENGTH, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


def bench_workload():
    rng = np.random.default_rng(0)
    encoded = [
        synthetic_pair(length, rng)
        for length, count in LENGTH_PROFILE
        for _ in range(count)
    ]
    model = MiniBert(
        BertConfig(vocab_size=100, hidden_size=32, num_layers=2, num_heads=2,
                   intermediate_size=64, max_position=MAX_LENGTH),
        seed=1,
    )
    model.eval()
    classifier = MatchingClassifier(32, 16, np.random.default_rng(2))
    classifier.eval()
    # Non-silent channel path, so the parity check below covers every
    # transformer block, not just the raw-embedding cosine.
    activate_channel_path(classifier, seed=3)
    return encoded, model, classifier, [0, 1, 2, 3, 4]


def best_of(run) -> float:
    timings = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        timings.append(time.perf_counter() - start)
    return min(timings)


def test_bucketed_batching_beats_naive_single_batch():
    encoded, model, classifier, special_ids = bench_workload()
    monolithic = stack_encoded(encoded)  # padded to MAX_LENGTH for every row

    def run_naive() -> np.ndarray:
        return score_encoded_batch(model, classifier, special_ids, monolithic)

    engine = ScoringEngine(model, classifier, special_ids, EngineConfig(microbatch_size=64))

    def run_bucketed() -> np.ndarray:
        engine.clear_cached_scores()
        return engine.score_encoded(encoded)

    try:
        naive_scores = run_naive()  # warm both paths before timing
        bucketed_scores = run_bucketed()
        np.testing.assert_allclose(bucketed_scores, naive_scores, atol=1e-8, rtol=0)
        deviation = float(np.abs(bucketed_scores - naive_scores).max())
        naive_seconds = best_of(run_naive)
        bucketed_seconds = best_of(run_bucketed)
    finally:
        engine.close()

    speedup = naive_seconds / bucketed_seconds
    register_report(
        render_table(
            ["path", "wall-clock (s)", "speedup"],
            [
                ["naive single batch", f"{naive_seconds:.4f}", "1.00x"],
                ["exact-length micro-batches", f"{bucketed_seconds:.4f}", f"{speedup:.2f}x"],
            ],
            title=f"Engine throughput -- {len(encoded)} skewed-length pairs",
        )
    )

    datapoint = emit_benchmark(
        "BENCH_engine.json",
        benchmark="engine_bucketing",
        workload=WORKLOAD,
        baseline_seconds=naive_seconds,
        fast_seconds=bucketed_seconds,
        gate={"max_score_deviation": deviation, "atol": 1e-8},
        extra={
            "baseline": "monolithic batch padded to max_length",
            "fast": "exact-length micro-batches (in-process float32)",
        },
    )

    # The whole point of length planning: short pairs stop paying MAX_LENGTH
    # padding.  Demand a real margin, not a tie.
    assert bucketed_seconds < naive_seconds, datapoint
