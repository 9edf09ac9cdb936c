"""The inference forward is reentrant: it writes no layer cache.

``score_encoded_batch`` runs inside :func:`repro.nn.inference_scope`, so

* a scoring call between a training forward and its backward leaves the
  caches that backward reads untouched: the gradients equal those of an
  uninterleaved forward/backward;
* threads scoring concurrently on one shared model return exactly what
  sequential scoring returns, and the engine's threads score every
  micro-batch of a plan exactly once, even when preempted constantly.
"""

from __future__ import annotations

import copy
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, ScoringEngine
from repro.featurizers.bert import (
    MatchingClassifier,
    activate_channel_path,
    compute_match_features,
    score_encoded_batch,
)
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair
from repro.nn import inference_active, inference_scope

SPECIAL_IDS = [0, 1, 2, 3, 4]
HIDDEN = 16
MAX_LENGTH = 24


def make_stack(dropout: float = 0.1):
    model = MiniBert(
        BertConfig(vocab_size=60, hidden_size=HIDDEN, num_layers=2, num_heads=2,
                   intermediate_size=32, max_position=MAX_LENGTH, dropout=dropout,
                   attention_dropout=dropout),
        seed=0,
    )
    classifier = MatchingClassifier(HIDDEN, 8, np.random.default_rng(1))
    activate_channel_path(classifier, seed=2)
    return model, classifier


def random_batch(rng: np.random.Generator, rows: int, width: int) -> EncodedPair:
    lengths = rng.integers(3, width + 1, size=rows)
    lengths[0] = width  # no all-padding column: the batch is trimmed
    columns = np.arange(width)[None, :]
    mask = (columns < lengths[:, None]).astype(np.int64)
    ids = rng.integers(5, 60, size=(rows, width)) * mask
    segment = ((columns >= lengths[:, None] // 2) & (mask == 1)).astype(np.int64)
    return EncodedPair(input_ids=ids, segment_ids=segment, attention_mask=mask)


def train_step_grads(model, classifier, batch, interleave=None) -> dict[str, np.ndarray]:
    """Forward ``batch`` in train mode, run ``interleave``, then backward."""
    model.train()
    classifier.train()
    model.zero_grad()
    classifier.zero_grad()
    features, _cache = compute_match_features(model, SPECIAL_IDS, batch)
    logits = classifier.forward(features)
    if interleave is not None:
        interleave()
    grad_features = classifier.backward(np.ones_like(logits) / logits.size)
    pooled = slice(MatchingClassifier.NUM_SCALARS, MatchingClassifier.NUM_SCALARS + HIDDEN)
    model.backward(grad_pooled=np.ascontiguousarray(grad_features[:, pooled]))
    return {
        **{f"model.{k}": p.grad.copy() for k, p in model.parameters().items()},
        **{f"classifier.{k}": p.grad.copy() for k, p in classifier.parameters().items()},
    }


def test_scoring_between_forward_and_backward_keeps_gradients():
    rng = np.random.default_rng(0)
    batch_a = random_batch(rng, rows=5, width=12)
    batch_b = random_batch(rng, rows=5, width=12)
    model, classifier = make_stack()
    twin_model, twin_classifier = copy.deepcopy(model), copy.deepcopy(classifier)

    expected = train_step_grads(twin_model, twin_classifier, batch_a)
    got = train_step_grads(
        model,
        classifier,
        batch_a,
        interleave=lambda: score_encoded_batch(model, classifier, SPECIAL_IDS, batch_b),
    )
    assert expected.keys() == got.keys()
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name], err_msg=name)


def test_scope_is_per_thread_and_nests():
    assert not inference_active()
    with inference_scope():
        with inference_scope():
            assert inference_active()
        assert inference_active()
        with ThreadPoolExecutor(1) as pool:
            assert not pool.submit(inference_active).result()
    assert not inference_active()


@settings(max_examples=12, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.integers(1, 9), st.integers(3, MAX_LENGTH)), min_size=4, max_size=12
    ),
    seed=st.integers(0, 2**16),
)
def test_threads_on_one_model_equal_sequential(shapes, seed):
    model, classifier = make_stack()
    model.eval()
    classifier.eval()
    rng = np.random.default_rng(seed)
    batches = [random_batch(rng, rows, width) for rows, width in shapes]

    def score(batch: EncodedPair) -> np.ndarray:
        return score_encoded_batch(model, classifier, SPECIAL_IDS, batch)

    sequential = [score(batch) for batch in batches]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(score, batches))
    finally:
        sys.setswitchinterval(interval)
    for got, expected in zip(threaded, sequential):
        np.testing.assert_array_equal(got, expected)


def test_engine_threads_score_every_microbatch_under_preemption():
    """More threads than cores and a tiny switch interval: no lost batch."""
    model, classifier = make_stack()
    rng = np.random.default_rng(7)
    batches = [random_batch(rng, rows=1, width=int(w)) for w in rng.integers(3, 25, 60)]
    encoded = [
        EncodedPair(
            input_ids=b.input_ids[0], segment_ids=b.segment_ids[0],
            attention_mask=b.attention_mask[0],
        )
        for b in batches
    ]

    def score(n_workers: int) -> tuple[ScoringEngine, np.ndarray]:
        config = EngineConfig(n_workers=n_workers, microbatch_size=1, persist_scores=False)
        engine = ScoringEngine(model, classifier, SPECIAL_IDS, config)
        try:
            return engine, engine.score_encoded(encoded)
        finally:
            engine.close()

    _, expected = score(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        engine, got = score(6)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(got, expected)
    assert engine.stats.threaded_batches == engine.stats.microbatches == len(encoded)
