"""Interactive matching session: the user workflow of Section V-C.

Each iteration simulates the paper's loop:

1. LSM retrains and produces top-k suggestions for every unmatched source
   attribute (``matcher.predict``).
2. The user *reviews* the suggestions, marking a suggestion as the match
   when the correct target appears among the top-k (review costs no label);
   unhelpful suggestion lists produce negative labels.
3. LSM *selects* N attributes (least-confident-anchor or random) and the
   user maps each directly to the ISS -- this is what the human labeling
   cost counts.
4. Repeat until the full source schema is matched.

The session records, per iteration, the cumulative number of direct labels,
how many attributes are matched, and how many of those matches are correct
against the *true* ground truth (they can differ under a noisy oracle),
plus the wall-clock response time of the retrain-and-predict step.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field

from .. import obs
from ..schema.model import MatchResult
from .matcher import LearnedSchemaMatcher
from .oracle import GroundTruthOracle


@dataclass
class IterationRecord:
    """State snapshot after one interaction iteration."""

    iteration: int
    labels_provided: int
    matched_total: int
    matched_correct: int
    reviewed: int
    response_seconds: float


@dataclass
class SessionResult:
    """Full trace of an interactive session."""

    records: list[IterationRecord]
    num_source_attributes: int
    result: MatchResult
    completed: bool

    @property
    def total_labels(self) -> int:
        return self.records[-1].labels_provided if self.records else 0

    @property
    def label_fraction_used(self) -> float:
        """Human labeling cost as a fraction of the source schema size."""
        if self.num_source_attributes == 0:
            return 0.0
        return self.total_labels / self.num_source_attributes

    def curve(self) -> tuple[list[float], list[float]]:
        """(percent labels provided, percent correctly matched) per iteration.

        This is exactly the pair of axes of Figures 5-8.
        """
        xs = [
            100.0 * record.labels_provided / self.num_source_attributes
            for record in self.records
        ]
        ys = [
            100.0 * record.matched_correct / self.num_source_attributes
            for record in self.records
        ]
        return xs, ys

    def labels_to_reach(self, correct_fraction: float) -> float | None:
        """Percent of labels needed to reach a correct-matched fraction.

        Returns None when the session never reaches the threshold.
        """
        target = correct_fraction * self.num_source_attributes
        for record in self.records:
            if record.matched_correct >= target:
                return 100.0 * record.labels_provided / self.num_source_attributes
        return None


class MatchingSession:
    """Drives a matcher against an oracle until the schema is fully matched.

    The scoring engine's threads persist across iterations and read the
    live weights, so a weight update between iterations costs no copy and
    the per-iteration response time measured here reflects steady-state
    serving latency.  Use the session as a context manager (or call
    :meth:`close`) to join those threads deterministically.

    Sessions are safe to share across threads: a session-level re-entrant
    lock serialises :meth:`predict`, the label mutators and the iteration
    body of :meth:`run`, so a serving front end can drive the session from
    one task while another closes it.  :meth:`close` is idempotent; a close
    that lands mid-:meth:`run` stops the loop at the next iteration boundary
    instead of tearing resources out from under a live scoring pass.
    """

    def __init__(
        self,
        matcher: LearnedSchemaMatcher,
        oracle: GroundTruthOracle,
        max_iterations: int | None = None,
    ) -> None:
        self.matcher = matcher
        self.oracle = oracle
        num_sources = matcher.store.num_sources
        if max_iterations is None:
            # Each iteration directly labels >= 1 attribute, so this terminates.
            max_iterations = num_sources + 5
        elif max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        # An explicit 0 means "run zero iterations", not "use the default".
        self.max_iterations = max_iterations
        #: Serialises predict/label mutation and the run loop; re-entrant so
        #: guarded methods may call each other.
        self._lock = threading.RLock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("MatchingSession is closed")

    def close(self) -> None:
        """Release the matcher's resources (scoring threads, trace).

        Idempotent: the first call tears the matcher down, every later call
        is a no-op -- a serving front end and a ``with`` block may both
        close the same session without double-releasing its resources.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.matcher.close()

    # -- thread-safe matcher proxies ------------------------------------------
    #
    # Serving front ends share one session between a scoring task and the
    # user's feedback stream; these proxies make the predict/label surface
    # atomic with respect to each other and to close().

    def predict(self):
        """Run one train-and-predict pass under the session lock."""
        with self._lock:
            self._ensure_open()
            return self.matcher.predict()

    def record_match(self, source, target) -> None:
        """Record a confirmed match under the session lock."""
        with self._lock:
            self._ensure_open()
            self.matcher.record_match(source, target)

    def record_rejected(self, source, rejected_targets) -> None:
        """Record rejected suggestions under the session lock."""
        with self._lock:
            self._ensure_open()
            self.matcher.record_rejected(source, rejected_targets)

    def apply_delta(self, delta):
        """Apply a schema delta to the live session, atomically.

        Runs under the session lock, so drift serialises against predict,
        label mutation and the run loop's iteration body: an in-flight
        iteration finishes against the pre-drift schema, the next one sees
        the evolved one.  The oracle's ground truth follows the delta
        (renames keep their targets, drops lose them).
        """
        with self._lock:
            self._ensure_open()
            report = self.matcher.apply_delta(delta)
            apply_drift = getattr(self.oracle, "apply_drift", None)
            if callable(apply_drift):
                apply_drift(report.effect)
            return report

    def __enter__(self) -> "MatchingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _count_correct(self) -> int:
        correct = 0
        for source in self.matcher.store.matched_sources():
            target = self.matcher.store.matched_target_of(source)
            if target is not None and self.oracle.is_correct(source, target):
                correct += 1
        return correct

    def run(self) -> SessionResult:
        """Run the loop to completion (or ``max_iterations``)."""
        with self._lock:
            self._ensure_open()
        store = self.matcher.store
        records: list[IterationRecord] = []
        labels_provided = 0
        tracer = getattr(self.matcher, "tracer", obs.NULL_TRACER)

        with obs.activated(tracer), obs.span(
            "session.run",
            num_sources=store.num_sources,
            max_iterations=self.max_iterations,
        ) as run_span:
            for iteration in range(1, self.max_iterations + 1):
                # A close() that lands between iterations wins: stop cleanly
                # rather than scoring against a torn-down matcher.
                if self._closed:
                    break
                with self._lock, obs.span(
                    "session.iteration", iteration=iteration
                ) as it_span:
                    if self._closed:
                        break
                    started = time.perf_counter()
                    predictions = self.matcher.predict()
                    response_seconds = time.perf_counter() - started

                    # --- reviewing phase (free of labeling cost) ---------
                    reviewed = 0
                    with obs.span("session.review"):
                        for source, ranked in predictions.suggestions.items():
                            shown = [target for target, _ in ranked]
                            if not shown:
                                continue
                            reviewed += 1
                            choice = self.oracle.review(source, shown)
                            if choice is not None:
                                self.matcher.record_match(source, choice)
                            else:
                                self.matcher.record_rejected(source, shown)

                    # --- labeling phase (costs N labels) ------------------
                    with obs.span("session.label"):
                        to_label = self.matcher.select_attributes_to_label()
                        for source in to_label:
                            # Drift-added columns have no ground truth; the
                            # simulated user cannot map them directly.
                            if not self.oracle.has_truth(source):
                                continue
                            self.matcher.record_match(source, self.oracle.label(source))
                            labels_provided += 1

                    record = IterationRecord(
                        iteration=iteration,
                        labels_provided=labels_provided,
                        matched_total=len(store.matched_sources()),
                        matched_correct=self._count_correct(),
                        reviewed=reviewed,
                        response_seconds=response_seconds,
                    )
                    records.append(record)
                    # The span mirrors the IterationRecord field for field,
                    # so a trace reproduces the session numbers exactly.
                    it_span.set(**asdict(record))
                if not store.unmatched_sources():
                    break

            completed = not store.unmatched_sources()
            run_span.set(
                completed=completed,
                iterations=len(records),
                total_labels=labels_provided,
            )
        tracer.flush()
        return SessionResult(
            records=records,
            num_source_attributes=store.num_sources,
            result=self.matcher.result(),
            completed=completed,
        )


def manual_labeling_curve(num_attributes: int) -> tuple[list[float], list[float]]:
    """The y = x reference line of Figures 5-8: one label matches one attribute."""
    xs = [100.0 * i / num_attributes for i in range(num_attributes + 1)]
    return xs, list(xs)
