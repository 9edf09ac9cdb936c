"""Fault injection for the serving ladder: the shm pool degrades, never errors.

Covers the :class:`RetryGate` policy, lazy weight publishing, pool recovery
after transient creation failures, gate exhaustion, worker death mid-map,
tasks that report errors, segment-creation failure and shared memory being
unavailable -- each case asserting bit-identical scores, the disjoint
fallback counters (``shm_fallbacks``: the pool was attempted and failed;
``worker_fallbacks``: no usable pool existed) and no leaked ``/dev/shm``
segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    RetryGate,
    ScoringEngine,
    live_segment_names,
)
from repro.engine import shm as shm_module
from repro.featurizers.bert import MatchingClassifier, score_encoded_batch
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair, stack_encoded


def encoded_of_length(length: int, width: int = 32, fill: int = 7) -> EncodedPair:
    input_ids = np.zeros(width, dtype=np.int64)
    input_ids[:length] = fill
    attention = np.zeros(width, dtype=np.int64)
    attention[:length] = 1
    segment = np.zeros(width, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=input_ids, segment_ids=segment, attention_mask=attention)


@pytest.fixture(scope="module")
def tiny_stack():
    model = MiniBert(
        BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                   intermediate_size=32, max_position=32),
        seed=0,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    classifier.eval()
    return model, classifier, [0, 1, 2, 3, 4]


@pytest.fixture
def encoded():
    return [encoded_of_length(length, fill=5) for length in (4, 9, 14, 20, 6, 11)]


class TestRetryGate:
    def test_cooldown_then_retry(self):
        gate = RetryGate(cooldown=2, max_failures=3)
        assert gate.may_attempt()
        gate.record_failure()
        # Two eligible calls are skipped, the third is let through.
        assert not gate.may_attempt()
        assert not gate.may_attempt()
        assert gate.may_attempt()

    def test_exhaustion_is_permanent(self):
        gate = RetryGate(cooldown=0, max_failures=2)
        gate.record_failure()
        gate.record_failure()
        assert gate.exhausted
        assert not gate.may_attempt()

    def test_success_resets_failures(self):
        gate = RetryGate(cooldown=0, max_failures=2)
        gate.record_failure()
        gate.record_success()
        gate.record_failure()
        assert not gate.exhausted

    def test_validates_knobs(self):
        with pytest.raises(ValueError, match="cooldown"):
            RetryGate(cooldown=-1)
        with pytest.raises(ValueError, match="max_failures"):
            RetryGate(max_failures=0)


class _Ready:
    def __init__(self, value) -> None:
        self.value = value

    def get(self, timeout=None):
        return self.value


class _InlinePool:
    """A pool that runs the real worker initializer and tasks in this process."""

    def __init__(self, initializer, initargs) -> None:
        initializer(*initargs)
        self.map_calls = 0

    def map_async(self, fn, tasks):
        return _Ready([fn(task) for task in tasks])

    def map(self, fn, tasks, chunksize=1):
        self.map_calls += 1
        return [fn(task) for task in tasks]

    def terminate(self):
        client = shm_module._WORKER_CLIENT
        if client is not None:
            client.close()
            shm_module._WORKER_CLIENT = None

    def join(self):
        pass


class _ErrorPool(_InlinePool):
    """Spawns healthy, but every task reports a worker-side error."""

    def map(self, fn, tasks, chunksize=1):
        self.map_calls += 1
        return [("error", "RuntimeError: synthetic fault", False, 0.0) for _ in tasks]


class _ExplodingPool(_InlinePool):
    """A pool whose map dies mid-flight (worker death / lost connection)."""

    def map(self, fn, tasks, chunksize=1):
        self.map_calls += 1
        raise BrokenPipeError("worker died mid-map")


class _Context:
    """A multiprocessing context whose Pool() fails the first ``failures`` calls."""

    def __init__(self, failures: int = 0, pool_type=_InlinePool) -> None:
        self.remaining_failures = failures
        self.pool_type = pool_type
        self.pools: list[_InlinePool] = []
        self.attempts = 0

    def Pool(self, processes, initializer, initargs):
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise OSError("synthetic resource blip")
        pool = self.pool_type(initializer, initargs)
        self.pools.append(pool)
        return pool

    @property
    def map_calls(self) -> int:
        return sum(pool.map_calls for pool in self.pools)


@pytest.fixture
def pool_context(monkeypatch):
    """Install a fake multiprocessing context; restores the worker globals."""
    import multiprocessing

    monkeypatch.setattr(shm_module, "_WORKER_CLIENT", None)
    monkeypatch.setattr(shm_module, "_WORKER_SPECIAL_IDS", [])

    def install(context: _Context) -> _Context:
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
        return context

    return install


def make_engine(tiny_stack, **overrides) -> ScoringEngine:
    model, classifier, special_ids = tiny_stack
    settings = dict(
        n_workers=2, min_pairs_for_workers=1, microbatch_size=2, persist_scores=False
    )
    settings.update(overrides)
    return ScoringEngine(model, classifier, special_ids, EngineConfig(**settings))


def reference_scores(tiny_stack, encoded) -> np.ndarray:
    model, classifier, special_ids = tiny_stack
    return score_encoded_batch(model, classifier, special_ids, stack_encoded(encoded))


def score_exactly(engine, tiny_stack, encoded, calls: int) -> None:
    """Score ``calls`` cold passes; every one must equal the reference."""
    expected = reference_scores(tiny_stack, encoded)
    for _ in range(calls):
        engine.clear_cached_scores()
        np.testing.assert_allclose(
            engine.score_encoded(encoded), expected, atol=1e-8, rtol=0
        )


def fallbacks(engine) -> tuple[int, int]:
    return engine.stats.shm_fallbacks, engine.stats.worker_fallbacks


class TestExecutorRetry:
    def test_payload_factory_only_called_on_rebuild(
        self, tiny_stack, encoded, pool_context
    ):
        """Weights are published once per model version, not per call."""
        context = pool_context(_Context())
        engine = make_engine(tiny_stack)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=3)
            assert engine.stats.publishes == 1
            assert engine.stats.shm_batches > 0
            # A version bump with a live pool publishes once, eagerly.
            engine.invalidate_model()
            assert engine.stats.publishes == 2
            assert engine.stats.respawns_avoided == 1
            score_exactly(engine, tiny_stack, encoded, calls=2)
            assert engine.stats.publishes == 2
            assert len(context.pools) == 1
            assert fallbacks(engine) == (0, 0)
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_transient_creation_failure_recovers_after_cooldown(
        self, tiny_stack, encoded, pool_context
    ):
        context = pool_context(_Context(failures=1))
        engine = make_engine(tiny_stack, pool_retry_cooldown=2, pool_max_failures=3)
        try:
            # The first call's spawn fails; two calls ride out the cooldown
            # with no usable pool; the fourth spawns and serves the plan.
            score_exactly(engine, tiny_stack, encoded, calls=4)
            assert context.attempts == 2
            assert len(context.pools) == 1
            assert fallbacks(engine) == (1, 2)
            assert engine.stats.shm_batches > 0
            assert engine._plane.usable
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_repeated_failures_exhaust_the_gate(self, tiny_stack, encoded, pool_context):
        context = pool_context(_Context(failures=99))
        engine = make_engine(tiny_stack, pool_retry_cooldown=0, pool_max_failures=2)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=4)
            assert context.attempts == 2
            assert not engine._plane.usable
            assert fallbacks(engine) == (2, 2)
            assert engine.stats.shm_batches == 0
        finally:
            engine.close()
        assert live_segment_names() == []


class TestLadderFaults:
    """End-to-end: induced faults fall to in-process scoring, scores stay exact."""

    def test_worker_death_mid_map_falls_back_with_parity(
        self, tiny_stack, encoded, pool_context
    ):
        context = pool_context(_Context(pool_type=_ExplodingPool))
        engine = make_engine(tiny_stack, pool_retry_cooldown=8)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=1)
            assert context.map_calls == 1
            assert fallbacks(engine) == (1, 0)
            assert engine.stats.inprocess_batches > 0
            # The dead pool was torn down, not left to poison later calls.
            assert not engine._plane.pool_active
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_failed_tasks_close_the_pool_and_exhaust_the_gate(
        self, tiny_stack, encoded, pool_context
    ):
        """A worker-side fault on every task costs a bounded number of maps."""
        context = pool_context(_Context(pool_type=_ErrorPool))
        engine = make_engine(tiny_stack, pool_retry_cooldown=0, pool_max_failures=3)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=6)
            assert context.map_calls == 3
            assert not engine._plane.pool_active
            assert not engine._plane.usable
            assert fallbacks(engine) == (3, 3)
            assert engine.stats.shm_batches == 0
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_shm_segment_failure_falls_back_in_process(
        self, tiny_stack, encoded, monkeypatch
    ):
        def refuse(name, size):
            raise OSError("no shared memory for you")

        monkeypatch.setattr(shm_module, "_new_segment", refuse)
        engine = make_engine(tiny_stack)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=2)
            # The failed publish disables the plane: one attempt failed, the
            # next eligible plan found no usable pool.
            assert fallbacks(engine) == (1, 1)
            assert engine.stats.shm_batches == 0
            assert engine.stats.inprocess_batches > 0
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_disabled_shm_serves_identically_via_fallback_ladder(
        self, tiny_stack, encoded, monkeypatch
    ):
        monkeypatch.setattr(shm_module, "shared_memory_available", lambda: False)
        engine = make_engine(tiny_stack)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=2)
            assert fallbacks(engine) == (0, 2)
            assert engine.stats.shm_batches == 0
            assert engine.stats.publishes == 0
            info = engine.serving_info()
            assert info["serving.shm_available"] is False
            assert info["serving.pool.active"] is False
        finally:
            engine.close()
        assert live_segment_names() == []

    def test_stale_orphan_from_crashed_run_does_not_block_startup(
        self, tiny_stack, encoded, monkeypatch
    ):
        """A leftover segment colliding with the arena's name is reclaimed."""
        from multiprocessing import shared_memory

        monkeypatch.setattr(
            shm_module.uuid, "uuid4", lambda: type("U", (), {"hex": "feedfeed" * 4})()
        )
        import os as _os

        orphan_name = f"repro-{_os.getpid()}-feedfeed-ctrl"
        orphan = shared_memory.SharedMemory(name=orphan_name, create=True, size=64)
        orphan.buf[:8] = b"\xff" * 8  # garbage stamp from the "crashed" run
        engine = make_engine(tiny_stack)
        try:
            score_exactly(engine, tiny_stack, encoded, calls=1)
            assert engine.stats.shm_batches > 0
            assert fallbacks(engine) == (0, 0)
        finally:
            engine.close()
            try:
                orphan.close()
            except BufferError:
                pass
        assert live_segment_names() == []
