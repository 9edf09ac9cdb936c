"""Fault and lifecycle coverage of the engine's threaded scoring path.

A multi-batch plan runs on ``n_workers - 1`` helper threads plus the
calling thread.  These tests pin down what that path promises beyond
parity: a forward that raises on a helper thread surfaces from
``score_halves`` as the same exception, without a hang and only once no
forward still runs; the engine scores exactly afterwards; ``close()`` joins
the helpers and is idempotent; and ``n_workers=1`` never creates an
executor.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.engine import EngineConfig, ScoringEngine
from repro.engine import engine as engine_module
from repro.featurizers import bert as bert_module
from repro.featurizers.bert import MatchingClassifier, activate_channel_path
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.encode_plane import BatchHalves, EncodePlane
from repro.lm.tokenizer import WordPieceTokenizer
from repro.lm.vocab import build_vocab

#: Seconds a scoring call may take before the test calls it a hang.
WATCHDOG_S = 60.0

WORDS = [
    "product", "item", "price", "amount", "discount", "quantity", "transaction",
    "date", "identifier", "brand", "name", "status", "european", "article",
    "number", "customer", "order", "line",
]


class SyntheticFault(RuntimeError):
    """Raised by an injected forward on a helper thread."""


@pytest.fixture(scope="module")
def stack():
    tokenizer = WordPieceTokenizer(build_vocab([WORDS], target_size=120))
    model = MiniBert(
        BertConfig(vocab_size=len(tokenizer.vocab), hidden_size=16, num_layers=1,
                   num_heads=2, intermediate_size=32, max_position=32),
        seed=0,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    activate_channel_path(classifier, seed=2)
    classifier.eval()
    plane = EncodePlane(tokenizer, max_length=32)
    rng = np.random.default_rng(3)

    def text(count: int) -> str:
        return " ".join(rng.choice(WORDS, size=count))

    halves = BatchHalves.of_pairs(
        [
            plane.halves(text(1 + i % 3), text(i % 5), text(1 + i % 2), text(i % 7))
            for i in range(40)
        ]
    )
    return model, classifier, sorted(tokenizer.vocab.special_ids()), plane, halves


def make_engine(stack, n_workers: int) -> ScoringEngine:
    model, classifier, special_ids, _, _ = stack
    config = EngineConfig(n_workers=n_workers, microbatch_size=4)
    return ScoringEngine(model, classifier, special_ids, config)


def score(engine: ScoringEngine, stack) -> np.ndarray:
    _, _, _, plane, halves = stack
    engine.clear_cached_scores()
    return engine.score_halves(halves, plane)


def engine_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-engine")]


def run_with_watchdog(fn):
    """``fn()``'s result or exception, failing the test if it hangs."""
    outcome: dict = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=target)
    thread.start()
    thread.join(WATCHDOG_S)
    assert not thread.is_alive(), "scoring call hung"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


@pytest.fixture
def reference(stack) -> np.ndarray:
    engine = make_engine(stack, n_workers=1)
    try:
        return score(engine, stack)
    finally:
        engine.close()


def test_helper_fault_surfaces_with_its_type_then_scores_exactly(
    stack, reference, monkeypatch
):
    forward = bert_module.score_encoded_batch
    failures, active = [], []

    def faulty(*args, **kwargs):
        name = threading.current_thread().name
        if name.startswith("repro-engine") and not failures:
            failures.append(name)
            raise SyntheticFault("forward failed on a helper thread")
        active.append(name)
        try:
            return forward(*args, **kwargs)
        finally:
            active.remove(name)

    engine = make_engine(stack, n_workers=4)
    try:
        monkeypatch.setattr(bert_module, "score_encoded_batch", faulty)
        with pytest.raises(SyntheticFault):
            run_with_watchdog(lambda: score(engine, stack))
        assert failures, "the fault never ran on a helper thread"
        # The fault surfaced only after every other forward had finished.
        assert not active
        monkeypatch.setattr(bert_module, "score_encoded_batch", forward)
        np.testing.assert_array_equal(
            run_with_watchdog(lambda: score(engine, stack)), reference
        )
        assert engine.stats.threaded_batches > 0
    finally:
        engine.close()


def test_caller_fault_waits_for_helpers(stack, reference, monkeypatch):
    """A fault on the calling thread returns only once every helper is idle."""
    forward = bert_module.score_encoded_batch
    caller = threading.current_thread()
    active = []

    def faulty(*args, **kwargs):
        if threading.current_thread() is caller:
            raise SyntheticFault("forward failed on the calling thread")
        active.append(1)
        try:
            return forward(*args, **kwargs)
        finally:
            active.pop()

    engine = make_engine(stack, n_workers=2)
    try:
        monkeypatch.setattr(bert_module, "score_encoded_batch", faulty)
        with pytest.raises(SyntheticFault):
            score(engine, stack)
        assert not active
        monkeypatch.setattr(bert_module, "score_encoded_batch", forward)
        np.testing.assert_array_equal(score(engine, stack), reference)
    finally:
        engine.close()


def test_close_joins_threads_and_is_idempotent(stack, reference):
    engine = make_engine(stack, n_workers=3)
    before = set(engine_threads())
    np.testing.assert_array_equal(score(engine, stack), reference)
    assert set(engine_threads()) - before
    engine.close()
    assert set(engine_threads()) <= before
    engine.close()
    # A closed engine starts fresh threads for its next plan.
    np.testing.assert_array_equal(score(engine, stack), reference)
    engine.close()
    assert set(engine_threads()) <= before


def test_one_worker_never_creates_an_executor(stack, reference, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n_workers=1 created an executor")

    monkeypatch.setattr(engine_module, "ThreadPoolExecutor", refuse)
    engine = make_engine(stack, n_workers=1)
    try:
        np.testing.assert_array_equal(score(engine, stack), reference)
        assert engine.stats.microbatches > 1
        assert engine.stats.threaded_batches == 0
        assert engine._pool is None
    finally:
        engine.close()
