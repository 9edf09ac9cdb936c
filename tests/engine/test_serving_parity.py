"""Threaded scoring == in-process scoring, across in-place weight updates.

The engine's threads read the one live model, so an in-place weight update
followed by ``invalidate_model`` must reach them with nothing republished:
after each of several consecutive updates the threaded scores must equal
the identical plan executed in-process bit for bit, which proves no thread
scores with stale weights.  (The bucketed-vs-sequential golden parity lives
in ``test_parity.py``; here the reference engine isolates exactly the
threading delta.)

A fresh classifier's channel path is silent until the first update adds
noise to it, so the live-channel variant activates it up front: every
update is then checked with the transformer blocks driving the scores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import EngineConfig, ScoringEngine
from repro.featurizers.bert import MatchingClassifier, activate_channel_path
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair

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
    plan, same trimmed arrays, so any deviation is introduced by the
    threads, not by batching numerics.
    """
    model, classifier, special_ids, encoded = stack
    reference_config = EngineConfig(
        n_workers=1,
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
            np.testing.assert_array_equal(
                scores, reference,
                err_msg=f"update={update} n_workers={config.n_workers}",
            )
    except BaseException:
        engine.close()
        raise
    finally:
        reference_engine.close()
    return engine


@pytest.mark.parametrize("n_workers", (1, 2, 4))
def test_hot_swap_parity_across_updates(stack, n_workers):
    config = EngineConfig(n_workers=n_workers, microbatch_size=8, persist_scores=False)
    engine = run_updates(stack, config)
    try:
        stats = engine.stats
        assert stats.invalidations == NUM_UPDATES
        if n_workers > 1:
            assert stats.threaded_batches > 0
    finally:
        engine.close()


@pytest.mark.parametrize("n_workers", (1, 2, 4))
def test_hot_swap_parity_live_channel(live_stack, n_workers):
    """With live blocks, every update moves the scores the threads return."""
    config = EngineConfig(n_workers=n_workers, microbatch_size=8, persist_scores=False)
    engine = run_updates(live_stack, config)
    try:
        assert (engine.stats.threaded_batches > 0) == (n_workers > 1)
    finally:
        engine.close()
