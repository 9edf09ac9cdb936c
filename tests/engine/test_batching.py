"""Unit tests: bucket planning, padding trim and when plans stay in-process."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ScoringEngine,
    bucket_key,
    fingerprint_encoded,
    plan_microbatches,
)
from repro.engine.batching import plan_training_chunks
from repro.featurizers.bert import MatchingClassifier, score_encoded_batch
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import (
    EncodedPair,
    encoded_length,
    stack_encoded,
    trim_encoded,
)
from tests.training_reference import assert_batches_equal, reference_plan


def encoded_of_length(length: int, width: int = 32, fill: int = 7) -> EncodedPair:
    """A synthetic unbatched encoded pair with ``length`` real tokens."""
    input_ids = np.zeros(width, dtype=np.int64)
    input_ids[:length] = fill
    attention = np.zeros(width, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(width, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


class TestBucketKey:
    def test_rounds_up_to_granularity(self):
        assert bucket_key(1, 8) == 8
        assert bucket_key(8, 8) == 8
        assert bucket_key(9, 8) == 16
        assert bucket_key(5, 1) == 5

    def test_non_positive_lengths_land_in_first_bucket(self):
        assert bucket_key(0, 8) == 8


class TestTrimEncoded:
    def test_trims_to_longest_row(self):
        batch = stack_encoded([encoded_of_length(5), encoded_of_length(9)])
        trimmed = trim_encoded(batch)
        assert trimmed.input_ids.shape == (2, 9)

    def test_refuses_to_drop_real_tokens(self):
        batch = stack_encoded([encoded_of_length(9)])
        with pytest.raises(ValueError, match="drops real tokens"):
            trim_encoded(batch, 8)

    def test_length_capped_at_stored_width(self):
        batch = stack_encoded([encoded_of_length(5, width=16)])
        assert trim_encoded(batch, 64).input_ids.shape == (1, 16)

    def test_rejects_unbatched(self):
        with pytest.raises(ValueError, match="stack_encoded"):
            trim_encoded(encoded_of_length(5))

    def test_encoded_length_rejects_batched(self):
        batch = stack_encoded([encoded_of_length(5)])
        with pytest.raises(ValueError, match="unbatched"):
            encoded_length(batch)


class TestPlanMicrobatches:
    def test_partitions_indices_exactly_once(self):
        encoded = [encoded_of_length(length) for length in (3, 30, 4, 17, 5, 30, 8)]
        plan = plan_microbatches(encoded, microbatch_size=2, bucket_granularity=8)
        seen = sorted(i for mb in plan for i in mb.indices)
        assert seen == list(range(len(encoded)))

    def test_groups_by_bucketed_length(self):
        encoded = [encoded_of_length(length) for length in (3, 30, 4)]
        plan = plan_microbatches(encoded, microbatch_size=8, bucket_granularity=8)
        assert [mb.padded_length for mb in plan] == [8, 32]
        assert plan[0].indices == (0, 2)
        assert plan[1].indices == (1,)

    def test_respects_microbatch_size(self):
        encoded = [encoded_of_length(4) for _ in range(10)]
        plan = plan_microbatches(encoded, microbatch_size=3, bucket_granularity=8)
        assert [len(mb.indices) for mb in plan] == [3, 3, 3, 1]

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="microbatch_size"):
            plan_microbatches([], microbatch_size=0)
        with pytest.raises(ValueError, match="bucket_granularity"):
            plan_microbatches([], bucket_granularity=0)


class TestPlanTrainingChunks:
    """The training planner works on lengths alone: the indices, padded
    lengths and generator draws of the stack-and-trim reference."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_stacking_reference(self, seed):
        lengths = np.random.default_rng(seed).integers(2, 33, size=40)
        encoded = [encoded_of_length(int(length)) for length in lengths]
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chunks = plan_training_chunks(lengths.tolist(), 5, rng)
        expected = reference_plan(encoded, 5, reference_rng)
        assert len(chunks) == len(expected) > 1
        for (padded, chunk), (want_padded, want_chunk, want_batch) in zip(chunks, expected):
            assert (padded, chunk) == (want_padded, want_chunk)
            assert_batches_equal(
                trim_encoded(stack_encoded([encoded[i] for i in chunk]), padded), want_batch
            )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_one_chunk_draws_no_order(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert plan_training_chunks([5, 6, 7], 8, rng) == [(8, [0, 1, 2])]
        assert rng.bit_generator.state == state


class TestFingerprint:
    def test_sensitive_to_ids_and_segments(self):
        base = encoded_of_length(6)
        same = encoded_of_length(6)
        other_ids = encoded_of_length(6, fill=8)
        assert fingerprint_encoded(base) == fingerprint_encoded(same)
        assert fingerprint_encoded(base) != fingerprint_encoded(other_ids)
        flipped = EncodedPair(
            input_ids=base.input_ids,
            segment_ids=1 - base.segment_ids,
            attention_mask=base.attention_mask,
        )
        assert fingerprint_encoded(base) != fingerprint_encoded(flipped)


@pytest.fixture(scope="module")
def tiny_stack():
    model = MiniBert(BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                                intermediate_size=32, max_position=32), seed=0)
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    classifier.eval()
    return model, classifier, [0, 1, 2, 3, 4]


class TestExecutorFallback:
    def test_zero_workers_is_unavailable(self, tiny_stack):
        """n_workers=0 scores a many-batch plan in-process, with no threads."""
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(n_workers=0, microbatch_size=2)
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            encoded = [encoded_of_length(length, fill=5) for length in (4, 9, 14, 20)]
            scores = engine.score_encoded(encoded)
            expected = score_encoded_batch(
                model, classifier, special_ids, stack_encoded(encoded)
            )
            np.testing.assert_allclose(scores, expected, atol=1e-8, rtol=0)
            assert engine.stats.microbatches > 1
            assert engine.stats.inprocess_batches == engine.stats.microbatches
            assert engine.stats.threaded_batches == 0
            assert engine._pool is None
        finally:
            engine.close()

    def test_small_batches_stay_in_process(self, tiny_stack):
        """A one-batch plan never leaves the calling thread."""
        model, classifier, special_ids = tiny_stack
        config = EngineConfig(n_workers=4)
        engine = ScoringEngine(model, classifier, special_ids, config)
        try:
            engine.score_encoded([encoded_of_length(4, fill=5)])
            assert engine.stats.threaded_batches == 0
            assert engine.stats.inprocess_batches == 1
            assert engine._pool is None
        finally:
            engine.close()
