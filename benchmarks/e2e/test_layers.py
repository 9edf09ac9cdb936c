"""Span recording and self-time attribution (``layers.py``)."""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict

import pytest

from .layers import SpanRecorder, covered, layer_self_seconds, self_times


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert covered(5.0, 6.0, [(0.0, 1.0)]) == 0.0


def test_self_time_with_nested_and_sibling_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    leaf = recorder.wrap("leaf", "leaf", lambda: clock.advance(2.0))

    with recorder.recording():
        with recorder.span("outer", "outer"):  # 0 .. 10
            clock.advance(1.0)
            with recorder.span("mid", "a"):  # 1 .. 6, nested leaf 2 .. 4
                clock.advance(1.0)
                leaf()
                clock.advance(2.0)
            with recorder.span("mid", "b"):  # 6 .. 9, sibling of a
                clock.advance(3.0)
            clock.advance(1.0)

    by_name = {span.name: span for span in recorder.spans}
    own = self_times(recorder.spans)
    assert own[by_name["outer"].span_id] == 2.0
    assert own[by_name["a"].span_id] == 3.0
    assert own[by_name["b"].span_id] == 3.0
    assert own[by_name["leaf"].span_id] == 2.0
    assert by_name["leaf"].parent_id == by_name["a"].span_id
    assert by_name["b"].parent_id == by_name["outer"].span_id
    # Self times partition the outermost span: nothing counted twice.
    assert layer_self_seconds(recorder.spans) == {"outer": 2.0, "mid": 6.0, "leaf": 2.0}


def test_nothing_is_recorded_while_disabled():
    recorder = SpanRecorder()
    wrapped = recorder.wrap("layer", "f", lambda x: x + 1)
    assert wrapped(1) == 2
    with recorder.span("layer", "block"):
        pass
    assert recorder.spans == []


class _Base:
    def inherited(self):
        return "base"


class _Child(_Base):
    def own(self):
        return self.inherited()


def test_patch_records_and_unpatch_restores():
    module = types.ModuleType("fake_module")
    module.helper = lambda: 42
    own, helper = _Child.own, module.helper
    recorder = SpanRecorder()
    points = [(_Child, "own", "child"), (_Child, "inherited", "base"), (module, "helper", "mod")]
    with recorder.installed(points), recorder.recording():
        assert _Child().own() == "base"
        assert module.helper() == 42
    spans = {span.layer: span for span in recorder.spans}
    assert spans["base"].parent_id == spans["child"].span_id
    assert spans["mod"].parent_id is None
    assert _Child.own is own and module.helper is helper
    assert "inherited" not in vars(_Child)


def test_threads_keep_separate_span_stacks():
    recorder = SpanRecorder()
    inner = recorder.wrap("inner", "inner", lambda: sum(range(50)))

    def outer():
        inner()
        inner()

    outer = recorder.wrap("outer", "outer", outer)
    threads_n, calls = 8, 200

    def work():
        for _ in range(calls):
            outer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with recorder.recording():
            threads = [threading.Thread(target=work) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    spans = {span.span_id: span for span in recorder.spans}
    assert len(spans) == threads_n * calls * 3
    for span in spans.values():
        if span.layer == "inner":
            parent = spans[span.parent_id]
            assert parent.layer == "outer" and parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
        else:
            assert span.parent_id is None
    # Children of one span run one after another on its thread, so their
    # summed durations are exactly what the span's self time excludes.
    child_seconds: dict[int, float] = defaultdict(float)
    for span in spans.values():
        if span.parent_id is not None:
            child_seconds[span.parent_id] += span.duration
    own = self_times(spans.values())
    for span in spans.values():
        assert own[span.span_id] == pytest.approx(
            span.duration - child_seconds[span.span_id], abs=1e-9
        )
