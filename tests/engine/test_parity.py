"""Golden parity suite: engine scoring == sequential scoring, bit-for-bit-ish.

The batched/bucketed/threaded scoring engine must be a pure optimisation:
for every public dataset pairing, its scores match the sequential one-pair-
at-a-time reference across worker counts {0, 1, 2, 4} and odd micro-batch
sizes (1, a prime, larger than the pair count).  Threads only change who
runs each micro-batch, so across worker counts the scores are bit-equal.

Two classifiers are checked.  A fresh :class:`MatchingClassifier` starts
with a silent channel path, so its scores read only the raw embeddings and
match within 1e-8.  With :func:`activate_channel_path` every transformer
block reaches the logit; those scores match within :data:`LIVE_ATOL`, and a
guard test proves they really move with a block weight.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.datasets import PUBLIC_NAMES, load_dataset
from repro.engine import EngineConfig, ScoringEngine, plan_microbatches
from repro.featurizers.bert import (
    MatchingClassifier,
    activate_channel_path,
    score_encoded_batch,
)
from repro.featurizers.base import make_pair_view
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import WordPieceTokenizer, stack_encoded
from repro.lm.vocab import build_vocab
from repro.text.corpus import build_corpus

#: Cap on pairs per dataset: a deterministic stride keeps every dataset and
#: a length-diverse cross-section of its Cartesian product in scope while
#: the suite stays fast.
MAX_PAIRS = 600
MAX_LENGTH = 32

WORKER_COUNTS = (0, 1, 2, 4)

#: Engine-vs-sequential tolerance once the channel path is live.  BLAS
#: picks its summation order by GEMM shape, so float32 values differ by a
#: few ulps between a pair scored alone and in a batch.  Through the live channel path those
#: reach the probability: deviations measured 1.4-1.8e-7, i.e. 2-3 float32
#: ulps (6e-8) at p = 0.5.  1e-6 is ~16 ulps at p = 1, far below the 1e-3
#: a block-weight change moves the scores by (the guard test below).
LIVE_ATOL = 1e-6


def _batch_sizes(num_pairs: int) -> tuple[int, ...]:
    return (1, 7, num_pairs + 5)


def _build_stack(dataset: str, live_channel: bool):
    """(model, classifier, special_ids, encoded pairs, sequential scores)."""
    task = load_dataset(dataset)
    corpus = build_corpus(schemata=[task.target], seed=0)
    vocab = build_vocab(corpus, target_size=300)
    tokenizer = WordPieceTokenizer(vocab)
    # Parity is a property of the numerics, not of model quality: a
    # deterministic untrained encoder/classifier exercises the same code.
    model = MiniBert(
        BertConfig(
            vocab_size=len(vocab),
            hidden_size=32,
            num_layers=1,
            num_heads=2,
            intermediate_size=64,
            max_position=MAX_LENGTH,
        ),
        seed=1,
    )
    model.eval()
    classifier = MatchingClassifier(32, 16, np.random.default_rng(2))
    if live_channel:
        activate_channel_path(classifier, seed=3)
    classifier.eval()
    special_ids = sorted(vocab.special_ids())

    views = [
        make_pair_view(task.source, task.target, source_ref, target_ref)
        for source_ref in task.source.attribute_refs()
        for target_ref in task.target.attribute_refs()
    ]
    stride = max(1, len(views) // MAX_PAIRS)
    views = views[::stride][:MAX_PAIRS]
    encoded = [
        tokenizer.encode_attribute_pair(
            view.source_name,
            view.source_description,
            view.target_name,
            view.target_description,
            max_length=MAX_LENGTH,
        )
        for view in views
    ]
    sequential = np.array(
        [
            score_encoded_batch(model, classifier, special_ids, stack_encoded([pair]))[0]
            for pair in encoded
        ]
    )
    return model, classifier, special_ids, encoded, sequential


@pytest.fixture(scope="module", params=PUBLIC_NAMES)
def scoring_stack(request):
    """The stack with a fresh classifier: its channel path is silent."""
    return _build_stack(request.param, live_channel=False)


@pytest.fixture(scope="module", params=PUBLIC_NAMES)
def live_scoring_stack(request):
    """The stack with a live channel path: scores read every block."""
    return _build_stack(request.param, live_channel=True)


def test_lengths_are_skewed(scoring_stack):
    """The datasets genuinely exercise bucketing: multiple distinct lengths."""
    _, _, _, encoded, _ = scoring_stack
    lengths = {int(pair.attention_mask.sum()) for pair in encoded}
    assert len(lengths) > 1


def test_monolithic_batch_matches_sequential(scoring_stack):
    """The naive all-in-one stacked batch equals the per-pair loop."""
    model, classifier, special_ids, encoded, sequential = scoring_stack
    batched = score_encoded_batch(model, classifier, special_ids, stack_encoded(encoded))
    np.testing.assert_allclose(batched, sequential, atol=1e-8, rtol=0)


def _assert_engine_matches_sequential(stack, n_workers: int, atol: float) -> None:
    model, classifier, special_ids, encoded, sequential = stack
    config = EngineConfig(n_workers=n_workers)
    engine = ScoringEngine(model, classifier, special_ids, config)
    try:
        for batch_size in _batch_sizes(len(encoded)):
            engine.config.microbatch_size = batch_size
            engine.clear_cached_scores()
            scores = engine.score_encoded(encoded)
            np.testing.assert_allclose(
                scores,
                sequential,
                atol=atol,
                rtol=0,
                err_msg=f"n_workers={n_workers} batch_size={batch_size}",
            )
        if n_workers > 1:
            # The threads really ran.
            assert engine.stats.threaded_batches > 0
        else:
            assert engine.stats.threaded_batches == 0
    finally:
        engine.close()


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_engine_matches_sequential(scoring_stack, n_workers):
    """Bucketed (and parallel) engine scores equal the sequential reference."""
    _assert_engine_matches_sequential(scoring_stack, n_workers, atol=1e-8)


@pytest.mark.parametrize("n_workers", WORKER_COUNTS)
def test_engine_matches_sequential_live_channel(live_scoring_stack, n_workers):
    """The same parity with every transformer block driving the scores."""
    _assert_engine_matches_sequential(live_scoring_stack, n_workers, atol=LIVE_ATOL)


def _engine_scores(stack, n_workers: int) -> list[np.ndarray]:
    model, classifier, special_ids, encoded, _ = stack
    config = EngineConfig(n_workers=n_workers)
    engine = ScoringEngine(model, classifier, special_ids, config)
    try:
        scores = []
        for batch_size in _batch_sizes(len(encoded)):
            engine.config.microbatch_size = batch_size
            engine.clear_cached_scores()
            scores.append(engine.score_encoded(encoded))
        return scores
    finally:
        engine.close()


@pytest.mark.parametrize("n_workers", (2, 4))
def test_worker_counts_score_bit_identically(live_scoring_stack, n_workers):
    """Threaded scores equal in-process scores bit for bit, not within atol."""
    for got, expected in zip(
        _engine_scores(live_scoring_stack, n_workers),
        _engine_scores(live_scoring_stack, 1),
    ):
        np.testing.assert_array_equal(got, expected)


def test_block_weight_moves_live_scores(live_scoring_stack):
    """Guard: the live suite depends on the encoder blocks, so a kernel bug
    in a block cannot pass it vacuously."""
    model, classifier, special_ids, encoded, sequential = live_scoring_stack
    perturbed = copy.deepcopy(model)
    perturbed.blocks[0].ffn_output.weight.value *= 3.0
    moved = score_encoded_batch(
        perturbed, classifier, special_ids, stack_encoded(encoded)
    )
    assert np.abs(moved - sequential).max() > 1e-3


def test_engine_scores_are_order_independent(scoring_stack):
    """Permuting the input permutes the output, nothing else."""
    model, classifier, special_ids, encoded, sequential = scoring_stack
    engine = ScoringEngine(
        model,
        classifier,
        special_ids,
        EngineConfig(microbatch_size=13),
    )
    try:
        permutation = np.random.default_rng(0).permutation(len(encoded))
        engine.clear_cached_scores()
        shuffled = engine.score_encoded([encoded[i] for i in permutation])
        np.testing.assert_allclose(shuffled, sequential[permutation], atol=1e-8, rtol=0)
    finally:
        engine.close()


def test_plan_covers_every_pair_once(scoring_stack):
    """The micro-batch plan is a partition of the input indices."""
    _, _, _, encoded, _ = scoring_stack
    plan = plan_microbatches(encoded, microbatch_size=7, bucket_granularity=4)
    seen = [index for microbatch in plan for index in microbatch.indices]
    assert sorted(seen) == list(range(len(encoded)))
    for microbatch in plan:
        assert len(microbatch.indices) <= 7
        lengths = microbatch.batch.attention_mask.sum(axis=1)
        assert int(lengths.max()) <= microbatch.padded_length


def _recorded_plans(engine: ScoringEngine) -> list:
    """Wrap ``engine._score_plan`` to log every plan it scores."""
    plans: list = []
    score_plan = engine._score_plan

    def recorded(plan, trunk_jobs=None):
        plans.append(plan)
        return score_plan(plan, trunk_jobs)

    engine._score_plan = recorded
    return plans


def test_engine_plans_at_exact_length(scoring_stack):
    """Every micro-batch the engine plans is padded to exactly the token
    count of each of its rows: no pad column is ever scored."""
    model, classifier, special_ids, encoded, _ = scoring_stack
    engine = ScoringEngine(model, classifier, special_ids, EngineConfig(microbatch_size=7))
    try:
        plans = _recorded_plans(engine)
        engine.score_encoded(encoded)
    finally:
        engine.close()
    (plan,) = plans
    assert len({microbatch.padded_length for microbatch in plan}) > 1
    for microbatch in plan:
        lengths = microbatch.batch.attention_mask.sum(axis=1)
        assert (lengths == microbatch.padded_length).all()


def _scores_by_composition(stack) -> list[np.ndarray]:
    """Each row's score from plans of different composition: micro-batch
    sizes 1, 7 and 64, a permuted row order, one to four threads."""
    model, classifier, special_ids, encoded, _ = stack
    results = []
    for microbatch_size, n_workers in ((64, 1), (7, 2), (1, 1), (13, 4)):
        engine = ScoringEngine(
            model,
            classifier,
            special_ids,
            EngineConfig(microbatch_size=microbatch_size, n_workers=n_workers),
        )
        try:
            order = np.random.default_rng(microbatch_size).permutation(len(encoded))
            scores = np.empty(len(encoded))
            scores[order] = engine.score_encoded([encoded[i] for i in order])
        finally:
            engine.close()
        results.append(scores)
    return results


def test_row_score_is_independent_of_plan_composition(scoring_stack):
    """With the channel path silent -- every model before its first label
    update, since pretraining fits the scalar path alone -- a row's score
    is the same bits in every plan, and equals the one-pair reference."""
    _, _, _, _, sequential = scoring_stack
    for scores in _scores_by_composition(scoring_stack):
        np.testing.assert_array_equal(scores, sequential)


def test_live_row_score_moves_within_tolerance_across_plans(live_scoring_stack):
    """With the channel path live a row's bits can move with its plan's
    composition: BLAS picks its blocking by GEMM shape, so the number of
    rows sharing a micro-batch can change a row's float32 rounding by a few ulps.  The scores stay within
    :data:`LIVE_ATOL` of each other."""
    first, *others = _scores_by_composition(live_scoring_stack)
    for scores in others:
        np.testing.assert_allclose(scores, first, atol=LIVE_ATOL, rtol=0)
