"""In-memory span recorder and per-layer self-time attribution.

The traced benchmark run wraps each layer's public entry points (see
:func:`entry_points`) so that every call records one span: its layer, start,
end, thread and the span that was open on the same thread when it began
(its parent).  Nothing inside ``src/`` changes; the wrappers are installed
on the classes for the traced run only and removed afterwards, so untraced
runs execute the library's own functions.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Summed over the spans of one thread, self times
partition the time that thread spent inside any wrapped call, so the
difference between a workload's timed wall and that sum is time no layer
claims (``unattributed_s``).

The recorder is thread-safe: the serving service scores on executor threads
while the event loop thread submits, so each thread keeps its own span stack
and appends to the shared span list under a lock.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One recorded call of a wrapped entry point."""

    span_id: int
    parent_id: int | None
    layer: str
    name: str
    thread: int
    start: float
    end: float
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: ``annotate(args, result) -> attrs`` hook run after a wrapped call returns.
Annotate = Callable[[tuple, Any], dict[str, Any]]


class SpanRecorder:
    """Collects spans from wrapped callables; records only while enabled."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: (owner, attribute, owned before patching, original value)
        self._patches: list[tuple[Any, str, bool, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[dict[str, Any]]:
        """Record the enclosed block as one span; yields its attribute dict."""
        attrs: dict[str, Any] = {}
        if not self.enabled:
            yield attrs
            return
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield attrs
        finally:
            end = self.clock()
            stack.pop()
            span = Span(
                span_id,
                parent_id,
                layer,
                name,
                threading.get_ident(),
                start,
                end,
                attrs or None,
            )
            with self._lock:
                self.spans.append(span)

    def call(
        self,
        layer: str,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        annotate: Annotate | None = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(layer, name) as attrs:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs.update(annotate(args, result))
            return result

    def wrap(
        self, layer: str, name: str, fn: Callable, annotate: Annotate | None = None
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(layer, name, fn, args, kwargs, annotate)

        return wrapper

    def patch(
        self, owner: Any, attribute: str, layer: str, annotate: Annotate | None = None
    ) -> None:
        """Replace ``owner.attribute`` by a recording wrapper until :meth:`unpatch`."""
        owned = attribute in vars(owner)
        original = vars(owner)[attribute] if owned else getattr(owner, attribute)
        label = f"{getattr(owner, '__name__', type(owner).__name__)}.{attribute}"
        setattr(owner, attribute, self.wrap(layer, label, original, annotate))
        self._patches.append((owner, attribute, owned, original))

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, owned, original = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    @contextmanager
    def installed(self, points: Iterable[tuple]) -> Iterator["SpanRecorder"]:
        """Patch ``(owner, attribute, layer[, annotate])`` entry points."""
        try:
            for point in points:
                self.patch(*point)
            yield self
        finally:
            self.unpatch()

    @contextmanager
    def recording(self) -> Iterator["SpanRecorder"]:
        """Record spans for the duration of the block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False


def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the time its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: max(
            0.0,
            span.duration - covered(span.start, span.end, children.get(span.span_id, ())),
        )
        for span in spans
    }


def layer_self_seconds(
    spans: Iterable[Span], thread: int | None = None
) -> dict[str, float]:
    """Summed self seconds per layer, optionally for one thread only."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if thread is None or span.thread == thread:
            totals[span.layer] += own[span.span_id]
    return dict(totals)


def layer_calls(spans: Iterable[Span]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span.layer] += 1
    return dict(counts)


# -- the layer table -------------------------------------------------------------

#: Layer key -> the per-layer metric its summed self time is reported as.
#: Keys are named after the ``repro`` module that owns the wrapped calls.
LAYER_METRICS: dict[str, str] = {
    "engine": "engine.self_s",
    "featurizers.bert.update": "train.self_s",
    "featurizers.bert": "bert.glue_self_s",
    "lm.encode_plane": "encode.self_s",
    "featurizers.lexical": "featurizers.lexical_self_s",
    "featurizers.embedding": "featurizers.embedding_self_s",
    "retrieval": "retrieval.self_s",
    "core.scoring": "adjust.self_s",
    "core.meta": "meta.self_s",
    "core.selection": "selection.self_s",
    "core.matcher": "matcher.self_s",
    "core.drift": "drift.self_s",
    "core.candidates": "candidates.self_s",
    "core.oracle": "oracle.self_s",
    "store": "store.self_s",
    "serve.scheduler": "scheduler.self_s",
    "serve.service": "serve.service_self_s",
    "serve.residency.publish": "residency.publish_s",
    "serve.residency": "residency.pin_s",
    "serve.backend": "serve.backend_self_s",
    "loadgen": "loadgen.self_s",
}


def _batch_ids(_args: tuple, batches: Any) -> dict[str, Any]:
    return {"batches": [[r.request_id for r in batch.requests] for batch in batches or ()]}


def _request_id(_args: tuple, request: Any) -> dict[str, Any]:
    return {"request_id": request.request_id, "session": request.session_id}


def _scattered_ids(_args: tuple, routed: Any) -> dict[str, Any]:
    return {"requests": sorted(routed or ())}


def _backend_batch(args: tuple, _result: Any) -> dict[str, Any]:
    resident, plan = args[1], args[2]
    return {"model": resident.key, "pairs": sum(len(mb.indices) for mb in plan)}


def entry_points() -> list[tuple]:
    """``(owner, attribute, layer[, annotate])`` for every wrapped public call.

    Serve spans carry request ids: a submit span names its request, a
    batch-forming span lists the request ids of each coalesced batch, and a
    scatter span the ids whose scores it delivered -- so a slow request can
    be traced to the batch that carried it.
    """
    from repro.core import matcher as matcher_module
    from repro.core.candidates import CandidateStore
    from repro.core.matcher import LearnedSchemaMatcher
    from repro.core.meta import SelfTrainingClassifier
    from repro.core.oracle import GroundTruthOracle
    from repro.core.scoring import ScoreAdjuster
    from repro.core.selection import LeastConfidentAnchorSelection, RandomSelection
    from repro.engine import ScoringEngine
    from repro.featurizers.bert import BertFeaturizer
    from repro.featurizers.embedding import EmbeddingFeaturizer
    from repro.featurizers.lexical import LexicalFeaturizer
    from repro.lm.encode_plane import EncodePlane
    from repro.retrieval import FusedCandidateGenerator
    from repro.serve.residency import ModelResidency
    from repro.serve.scheduler import CoalescedBatch, CoalescingScheduler
    from repro.serve.service import InProcessBackend, ServeService
    from repro.store import ArtifactStore

    points: list[tuple] = [
        (ScoringEngine, "score_halves", "engine"),
        (ScoringEngine, "score_encoded", "engine"),
        (ScoringEngine, "score_plan", "engine"),
        (BertFeaturizer, "update", "featurizers.bert.update"),
        (BertFeaturizer, "score_pairs", "featurizers.bert"),
        (BertFeaturizer, "pretrain", "featurizers.bert"),
        (LexicalFeaturizer, "score_pairs", "featurizers.lexical"),
        (EmbeddingFeaturizer, "score_pairs", "featurizers.embedding"),
        (FusedCandidateGenerator, "generate", "retrieval"),
        (FusedCandidateGenerator, "generate_for_sources", "retrieval"),
        (FusedCandidateGenerator, "refresh", "retrieval"),
        (FusedCandidateGenerator, "replace_source_docs", "retrieval"),
        # The matcher looks the factory up in its own module namespace.
        (matcher_module, "build_generator", "retrieval"),
        (ScoreAdjuster, "adjust", "core.scoring"),
        (SelfTrainingClassifier, "fit", "core.meta"),
        (SelfTrainingClassifier, "predict", "core.meta"),
        (LeastConfidentAnchorSelection, "select", "core.selection"),
        (RandomSelection, "select", "core.selection"),
        (LearnedSchemaMatcher, "__init__", "core.matcher"),
        (LearnedSchemaMatcher, "predict", "core.matcher"),
        (LearnedSchemaMatcher, "apply_delta", "core.drift"),
        (CandidateStore, "apply_delta", "core.drift"),
        (CandidateStore, "__init__", "core.candidates"),
        (CandidateStore, "views", "core.candidates"),
        (CandidateStore, "set_positive", "core.candidates"),
        (CandidateStore, "set_negatives", "core.candidates"),
        (CandidateStore, "apply_candidate_sets", "core.candidates"),
        (CandidateStore, "apply_candidate_sets_for_sources", "core.candidates"),
        (GroundTruthOracle, "review", "core.oracle"),
        (GroundTruthOracle, "label", "core.oracle"),
        (GroundTruthOracle, "is_correct", "core.oracle"),
        (ArtifactStore, "load_arrays", "store"),
        (ArtifactStore, "save_arrays", "store"),
        (ArtifactStore, "load_json", "store"),
        (ArtifactStore, "save_json", "store"),
        (CoalescingScheduler, "submit", "serve.scheduler", _request_id),
        (CoalescingScheduler, "ready_batches", "serve.scheduler", _batch_ids),
        (CoalescingScheduler, "flush_pending", "serve.scheduler", _batch_ids),
        (CoalescedBatch, "scatter", "serve.scheduler", _scattered_ids),
        (ServeService, "submit_nowait", "serve.service"),
        (ModelResidency, "publish", "serve.residency.publish"),
        (ModelResidency, "acquire", "serve.residency"),
        (ModelResidency, "release", "serve.residency"),
        (InProcessBackend, "score", "serve.backend", _backend_batch),
    ]
    for name in ("halves", "halves_for_words", "assemble", "assemble_one", "assemble_singles"):
        points.append((EncodePlane, name, "lm.encode_plane"))
    return points
