"""Cross-session coalescing parity: coalesced scores == sequential scores.

The whole point of the coalescing scheduler is that it changes *when and
with whom* a request's pairs are scored, never *what* they score to.  These
tests replay the same deterministic load script twice -- once per-request
sequentially, once through the full async service -- and require the scores
to agree to 1e-8 across mixed tenants, interleaved sessions and mid-run
hot-swaps.
"""

from __future__ import annotations

import numpy as np

from repro.serve import (
    ServeConfig,
    make_script,
    replay_coalesced,
    replay_sequential,
)

ATOL = 1e-8

#: Deterministic-composition config: every request is submitted before any
#: flush trigger fires, so each model version drains as one full-pool FIFO
#: batch and the comparison is reproducible run to run.
PARITY_CONFIG = ServeConfig(
    max_sessions=64,
    max_inflight_per_session=32,
    max_wait_s=5.0,
    target_batch_pairs=100_000,
    max_batch_pairs=100_000,
)


def assert_parity(script, coalesced, sequential):
    assert coalesced.scores.keys() == sequential.scores.keys()
    assert len(coalesced.scores) == script.n_requests
    worst = max(
        float(np.max(np.abs(coalesced.scores[key] - sequential.scores[key])))
        for key in sequential.scores
    )
    assert worst <= ATOL, f"coalesced-vs-sequential deviation {worst:.3e}"


class TestInProcessParity:
    def test_mixed_tenants_with_hot_swaps(self):
        script = make_script(
            seed=7,
            n_tenants=2,
            n_sessions=8,
            n_requests=64,
            min_pairs=1,
            max_pairs=2,
            max_length=22,
            swap_every=16,
        )
        assert script.n_swaps == 4
        sequential = replay_sequential(script)
        coalesced = replay_coalesced(script, config=PARITY_CONFIG)
        assert_parity(script, coalesced, sequential)
        # The replay must actually have coalesced across sessions.
        assert coalesced.metrics["serve.cross_session_batches"] >= 1
        assert coalesced.metrics["serve.coalesce_ratio"] > 1.0

    def test_single_tenant_no_swaps(self):
        script = make_script(
            seed=3,
            n_tenants=1,
            n_sessions=4,
            n_requests=32,
            min_pairs=1,
            max_pairs=3,
            max_length=22,
        )
        sequential = replay_sequential(script)
        coalesced = replay_coalesced(script, config=PARITY_CONFIG)
        assert_parity(script, coalesced, sequential)

    def test_parity_with_small_batches_and_deadline_flushes(self):
        # Tight triggers: many small batches, formed by live timing.  The
        # composition varies run to run; the scores must not.
        script = make_script(
            seed=11,
            n_tenants=2,
            n_sessions=6,
            n_requests=48,
            min_pairs=1,
            max_pairs=2,
            max_length=22,
            swap_every=12,
        )
        config = ServeConfig(
            max_sessions=64,
            max_inflight_per_session=16,
            max_wait_s=0.001,
            target_batch_pairs=8,
            max_batch_pairs=32,
        )
        sequential = replay_sequential(script)
        coalesced = replay_coalesced(script, config=config)
        assert_parity(script, coalesced, sequential)

    def test_no_shm_fallback_parity(self):
        script = make_script(
            seed=7,
            n_tenants=2,
            n_sessions=8,
            n_requests=64,
            min_pairs=1,
            max_pairs=2,
            max_length=22,
            swap_every=16,
        )
        config = ServeConfig(
            max_sessions=64,
            max_inflight_per_session=32,
            max_wait_s=5.0,
            target_batch_pairs=100_000,
            max_batch_pairs=100_000,
        )
        sequential = replay_sequential(script)
        coalesced = replay_coalesced(script, config=config)
        assert_parity(script, coalesced, sequential)

