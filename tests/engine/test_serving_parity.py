"""Serving-plane parity: hot-swapped scoring == sequential, across updates.

The shm plane must be a pure optimisation even while weights churn: after
each of several consecutive weight updates the persistent pool's scores
must match the identical plan executed in-process within 1e-8, with the
updates absorbed by arena hot-swaps (``respawns_avoided``) rather than
pool respawns, and with no shared-memory segments left behind after close.
(The bucketed-vs-sequential golden parity lives in ``test_parity.py``;
here the reference engine isolates exactly the serving-plane delta.)

A fresh classifier's channel path is silent until the first update adds
noise to it, so the live-channel variant activates it up front: every
update is then checked with the transformer blocks driving the scores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ScoringEngine,
    live_segment_names,
    shared_memory_available,
)
from repro.featurizers.bert import (
    MatchingClassifier,
    activate_channel_path,
    score_encoded_batch,
)
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair, stack_encoded

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="shared memory disabled or unavailable"
)

MAX_LENGTH = 32
NUM_UPDATES = 3


def synthetic_pair(length: int, rng: np.random.Generator) -> EncodedPair:
    input_ids = np.zeros(MAX_LENGTH, dtype=np.int64)
    input_ids[:length] = rng.integers(5, 45, size=length)
    attention = np.zeros(MAX_LENGTH, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(MAX_LENGTH, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


@pytest.fixture
def stack():
    """Fresh per test: the update tests mutate the weights in place."""
    rng = np.random.default_rng(0)
    model = MiniBert(
        BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                   intermediate_size=32, max_position=MAX_LENGTH),
        seed=1,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(2))
    classifier.eval()
    encoded = [synthetic_pair(4 + int(rng.integers(0, 24)), rng) for _ in range(96)]
    return model, classifier, [0, 1, 2, 3, 4], encoded


@pytest.fixture
def live_stack(stack):
    """The same stack with the classifier's channel path live."""
    model, classifier, special_ids, encoded = stack
    activate_channel_path(classifier, seed=3)
    return model, classifier, special_ids, encoded


def mutate_weights(model, classifier, seed: int) -> None:
    """An in-place weight update, as fine-tuning would produce."""
    rng = np.random.default_rng(seed)
    for module in (model, classifier):
        for parameter in module.parameters().values():
            noise = 0.01 * rng.standard_normal(parameter.value.shape)
            parameter.value += noise.astype(parameter.value.dtype)


def run_updates(stack, config: EngineConfig) -> ScoringEngine:
    """Score, update weights NUM_UPDATES times, re-check parity each time.

    The reference is an identical engine pinned in-process: same bucket
    plan, same trimmed arrays, so any deviation is introduced by shared
    memory (publish, views, scratch transport), not by batching numerics.
    """
    model, classifier, special_ids, encoded = stack
    reference_config = EngineConfig(
        n_workers=0,
        microbatch_size=config.microbatch_size,
        bucket_granularity=config.bucket_granularity,
        persist_scores=False,
    )
    engine = ScoringEngine(model, classifier, special_ids, config)
    reference_engine = ScoringEngine(model, classifier, special_ids, reference_config)
    try:
        for update in range(NUM_UPDATES + 1):
            if update:
                mutate_weights(model, classifier, seed=10 + update)
                engine.invalidate_model()
                reference_engine.invalidate_model()
            reference = reference_engine.score_encoded(encoded)
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores, reference, atol=1e-8, rtol=0,
                err_msg=f"update={update} n_workers={config.n_workers}",
            )
    except BaseException:
        engine.close()
        raise
    finally:
        reference_engine.close()
    return engine


@pytest.mark.parametrize("n_workers", (1, 4))
def test_hot_swap_parity_across_updates(stack, n_workers):
    config = EngineConfig(
        n_workers=n_workers,
        min_pairs_for_workers=1,
        microbatch_size=8,
        persist_scores=False,
    )
    engine = run_updates(stack, config)
    try:
        stats = engine.stats
        assert stats.shm_batches > 0
        assert stats.worker_fallbacks == 0 and stats.shm_fallbacks == 0
        # Every update was absorbed by a live pool, not a respawn.
        assert stats.respawns_avoided == NUM_UPDATES
        assert stats.hot_swaps >= NUM_UPDATES  # each worker swaps per version
        assert stats.publishes == NUM_UPDATES + 1
    finally:
        engine.close()
    assert not live_segment_names()


@pytest.mark.parametrize("n_workers", (1, 4))
def test_hot_swap_parity_live_channel(live_stack, n_workers):
    """Same plan on both sides, so the 1e-8 bound holds with live blocks too."""
    config = EngineConfig(
        n_workers=n_workers,
        min_pairs_for_workers=1,
        microbatch_size=8,
        persist_scores=False,
    )
    engine = run_updates(live_stack, config)
    try:
        assert engine.stats.shm_batches > 0
        assert engine.stats.worker_fallbacks == 0 and engine.stats.shm_fallbacks == 0
    finally:
        engine.close()
    assert not live_segment_names()


def test_parity_through_shared_memory_scratch(stack):
    """Forcing all inputs through the scratch region preserves parity too."""
    config = EngineConfig(
        n_workers=2,
        min_pairs_for_workers=1,
        microbatch_size=8,
        persist_scores=False,
        shm_scratch_min_bytes=0,
    )
    engine = run_updates(stack, config)
    try:
        stats = engine.stats
        assert stats.shm_batches > 0
        assert stats.worker_fallbacks == 0 and stats.shm_fallbacks == 0
        assert stats.stage_calls.get("scratch", 0) > 0
    finally:
        engine.close()
    assert not live_segment_names()


def test_zero_workers_never_touches_shared_memory(stack):
    model, classifier, special_ids, encoded = stack
    engine = ScoringEngine(
        model, classifier, special_ids,
        EngineConfig(n_workers=0, persist_scores=False),
    )
    try:
        reference = score_encoded_batch(
            model, classifier, special_ids, stack_encoded(encoded)
        )
        # Bucketed-vs-monolithic numerics (not shm) dominate the tolerance
        # here; the strict 1e-8 golden parity lives in test_parity.py.
        np.testing.assert_allclose(
            engine.score_encoded(encoded), reference, atol=1e-7, rtol=0
        )
        assert engine._plane is None
        assert engine.stats.shm_batches == 0
    finally:
        engine.close()
    assert not live_segment_names()
