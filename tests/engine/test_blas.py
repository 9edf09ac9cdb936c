"""The OpenBLAS pin held while engine threads score a plan.

:func:`repro.engine.blas.single_threaded` must put every thread count back
after the scope, after an exception, and only when the last of several
nested or concurrent scopes exits.  With no OpenBLAS to pin it emits one
event with a reason, and the threaded path still scores exactly.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import EngineConfig, ScoringEngine, blas
from repro.featurizers.bert import MatchingClassifier, activate_channel_path
from repro.lm.bert import MiniBert
from repro.lm.config import BertConfig
from repro.lm.tokenizer import EncodedPair


class FakeOpenBlas:
    """One library's thread count behind a (get, set) control pair."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.history: list[int] = []

    def get(self) -> int:
        return self.threads

    def set(self, threads: int) -> None:
        self.history.append(threads)
        self.threads = threads


@pytest.fixture
def fakes(monkeypatch):
    libraries = [FakeOpenBlas(4), FakeOpenBlas(2)]
    monkeypatch.setattr(
        blas, "openblas_controls", lambda: [(lib.get, lib.set) for lib in libraries]
    )
    return libraries


def counts(libraries) -> list[int]:
    return [lib.threads for lib in libraries]


def test_scope_pins_then_restores(fakes):
    with blas.single_threaded() as pinned:
        assert pinned
        assert counts(fakes) == [1, 1]
    assert counts(fakes) == [4, 2]


def test_exception_restores(fakes):
    with pytest.raises(KeyError):
        with blas.single_threaded():
            raise KeyError("boom")
    assert counts(fakes) == [4, 2]
    with blas.single_threaded():  # the depth count recovered too
        assert counts(fakes) == [1, 1]
    assert counts(fakes) == [4, 2]


def test_nested_scopes_restore_once(fakes):
    with blas.single_threaded():
        with blas.single_threaded():
            assert counts(fakes) == [1, 1]
        assert counts(fakes) == [1, 1]
    assert counts(fakes) == [4, 2]
    assert [lib.history for lib in fakes] == [[1, 4], [1, 2]]


def test_concurrent_scopes_restore_when_the_last_exits(fakes):
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen: dict[str, list[int]] = {}

    def first():
        with blas.single_threaded():
            first_in.set()
            second_in.wait(10)
        first_out.set()

    def second():
        first_in.wait(10)
        with blas.single_threaded():
            second_in.set()
            first_out.wait(10)
            seen["after first exit"] = counts(fakes)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    assert seen["after first exit"] == [1, 1]
    assert counts(fakes) == [4, 2]


def test_real_openblas_is_pinned_and_restored():
    controls = blas.openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [get() for get, _set in controls]
    with blas.single_threaded() as pinned:
        assert pinned
        assert [get() for get, _set in controls] == [1] * len(controls)
    assert [get() for get, _set in controls] == before


def encoded_of_length(length: int, width: int = 24) -> EncodedPair:
    ids = np.zeros(width, dtype=np.int64)
    ids[:length] = np.arange(length) % 40 + 5
    mask = (ids != 0).astype(np.int64)
    segment = np.zeros(width, dtype=np.int64)
    segment[length // 2 : length] = 1
    return EncodedPair(input_ids=ids, segment_ids=segment, attention_mask=mask)


def test_unpinned_plan_emits_one_event_and_scores_exactly(monkeypatch):
    monkeypatch.setattr(blas, "openblas_controls", lambda: [])
    model = MiniBert(
        BertConfig(vocab_size=50, hidden_size=16, num_layers=1, num_heads=2,
                   intermediate_size=32, max_position=24),
        seed=0,
    )
    model.eval()
    classifier = MatchingClassifier(16, 8, np.random.default_rng(1))
    activate_channel_path(classifier, seed=2)
    classifier.eval()
    encoded = [encoded_of_length(length) for length in range(4, 24)]

    def score(n_workers: int) -> tuple[ScoringEngine, np.ndarray]:
        config = EngineConfig(n_workers=n_workers, microbatch_size=3)
        engine = ScoringEngine(model, classifier, [0, 1, 2, 3, 4], config)
        try:
            return engine, engine.score_encoded(encoded)
        finally:
            engine.close()

    _, expected = score(1)
    tracer = obs.Tracer()
    with obs.activated(tracer):
        engine, scores = score(2)
    np.testing.assert_array_equal(scores, expected)
    assert engine.stats.threaded_batches > 0
    assert engine.serving_info()["serving.blas_pinned"] is False
    events = [
        record
        for record in tracer.records
        if record["kind"] == "event" and record["name"] == "engine.blas_unpinned"
    ]
    assert len(events) == 1
    assert events[0]["attrs"]["reason"]
