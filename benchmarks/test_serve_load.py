"""Serving-service load replay: coalescing must beat sequential scoring.

Interactive schema matching is many small score requests from concurrent
user sessions (Section V-C traffic, not the offline batch of Table III).
This benchmark replays one deterministic load script -- hundreds of
interleaved requests across mixed-tenant sessions with mid-run hot-swaps --
two ways:

* **sequential**: each request planned and scored alone, in submission
  order (what per-session engines would do);
* **coalesced**: through the full async :class:`~repro.serve.ServeService`,
  whose scheduler drains requests from different sessions into shared
  length-bucketed micro-batches.

It emits ``BENCH_serve.json`` and gates on the service contract: identical
scores to 1e-8, >= 2x throughput from cross-session batching, and a bounded
p99 submit-to-result latency with queue-depth and coalesce-ratio metrics
recorded.
"""

from __future__ import annotations

import time

import numpy as np
from _emit import emit_benchmark
from conftest import register_report

from repro.eval.reporting import render_table
from repro.serve import ServeConfig, make_script, replay_coalesced, replay_sequential

N_SESSIONS = 16
N_TENANTS = 2
N_REQUESTS = 240
TRIALS = 3

PARITY_ATOL = 1e-8
MIN_SPEEDUP = 2.0
MAX_P99_MS = 500.0

#: The locked load script: 240 requests over 16 sessions of 2 tenants, a
#: hot-swap every 60 submissions.  Thin per-request payloads (1-2 pairs)
#: are the worst case for sequential scoring and the whole point of
#: coalescing.
SCRIPT = dict(
    seed=7,
    n_tenants=N_TENANTS,
    n_sessions=N_SESSIONS,
    n_requests=N_REQUESTS,
    min_pairs=1,
    max_pairs=2,
    max_length=22,
    swap_every=60,
)

#: Deterministic-composition serving config: the submission burst outruns
#: every flush trigger, so each model version drains as one full-pool FIFO
#: batch on the end-of-stream flush -- reproducible batch composition,
#: reproducible percentiles.
CONFIG = ServeConfig(
    max_sessions=64,
    max_inflight_per_session=32,
    max_wait_s=0.05,
    target_batch_pairs=100_000,
    max_batch_pairs=100_000,
)


def worst_deviation(coalesced, sequential) -> float:
    return max(
        float(np.max(np.abs(coalesced.scores[key] - sequential.scores[key])))
        for key in sequential.scores
    )


def test_coalesced_replay_beats_sequential():
    script = make_script(**SCRIPT)

    # Warm both paths on a miniature script: first-touch allocation and
    # import costs must not land inside either timed replay.
    warm = make_script(**{**SCRIPT, "n_sessions": 4, "n_requests": 16})
    replay_sequential(warm)
    replay_coalesced(warm, config=CONFIG)

    sequential_runs = [replay_sequential(script) for _ in range(TRIALS)]
    coalesced_runs = [replay_coalesced(script, config=CONFIG) for _ in range(TRIALS)]

    sequential = min(sequential_runs, key=lambda run: run.seconds)
    coalesced = min(coalesced_runs, key=lambda run: run.seconds)
    speedup = sequential.seconds / coalesced.seconds
    deviation = max(
        worst_deviation(run, sequential_runs[0]) for run in coalesced_runs
    )
    metrics = coalesced.metrics

    register_report(
        render_table(
            ["replay", "wall (s)", "req/s", "p99 (ms)", "speedup"],
            [
                [
                    "sequential per-request",
                    f"{sequential.seconds:.3f}",
                    f"{N_REQUESTS / sequential.seconds:.0f}",
                    "-",
                    "1.00x",
                ],
                [
                    "coalesced (ServeService)",
                    f"{coalesced.seconds:.3f}",
                    f"{N_REQUESTS / coalesced.seconds:.0f}",
                    f"{metrics['serve.latency_p99_ms']:.1f}",
                    f"{speedup:.2f}x",
                ],
            ],
            title=(
                f"Serving load replay -- {N_REQUESTS} requests, "
                f"{N_SESSIONS} sessions, {N_TENANTS} tenants, "
                f"{script.n_swaps} hot-swaps, parity {deviation:.1e}"
            ),
        )
    )

    datapoint = emit_benchmark(
        "BENCH_serve.json",
        benchmark="serve_load",
        workload={
            "requests": N_REQUESTS,
            "sessions": N_SESSIONS,
            "tenants": N_TENANTS,
            "hot_swaps": script.n_swaps,
            "pairs_scored": metrics["serve.pairs_scored"],
        },
        baseline_seconds=sequential.seconds,
        fast_seconds=coalesced.seconds,
        gate={
            "min_speedup": MIN_SPEEDUP,
            "parity_atol": PARITY_ATOL,
            "parity_max_abs_deviation": float(deviation),
            "max_p99_ms": MAX_P99_MS,
            "latency_p99_ms": metrics["serve.latency_p99_ms"],
        },
        extra={
            "baseline": "sequential per-request replay",
            "fast": "coalesced (ServeService)",
            "baseline_all_seconds": [round(r.seconds, 6) for r in sequential_runs],
            "fast_all_seconds": [round(r.seconds, 6) for r in coalesced_runs],
            "latency_p50_ms": metrics["serve.latency_p50_ms"],
            "queue_wait_p99_ms": metrics["serve.queue_wait_p99_ms"],
            "queue_depth_peak": metrics["serve.queue_depth_peak"],
            "pending_pairs_peak": metrics["serve.pending_pairs_peak"],
            "batches": metrics["serve.batches"],
            "cross_session_batches": metrics["serve.cross_session_batches"],
            "coalesce_ratio": metrics["serve.coalesce_ratio"],
            "forced_flushes": metrics["serve.forced_flushes"],
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
    )

    # -- gates (the acceptance criteria of the serving service) ---------------
    assert metrics["serve.requests_completed"] == N_REQUESTS, datapoint
    assert metrics["serve.requests_failed"] == 0, datapoint
    assert metrics["serve.cross_session_batches"] >= 1, datapoint
    assert deviation <= PARITY_ATOL, datapoint
    assert speedup >= MIN_SPEEDUP, datapoint
    assert 0 < metrics["serve.latency_p99_ms"] <= MAX_P99_MS, datapoint
    assert metrics["serve.queue_depth_peak"] >= 1, datapoint
