"""Serving-service counters: admission, coalescing, latency tails.

One :class:`ServeStats` instance covers one :class:`~repro.serve.service.ServeService`
lifetime.  It is a :class:`~repro.obs.Counters` dataclass (``as_dict()`` +
:func:`repro.obs.registry.merge_metrics` compatibility) so it registers
directly on a :class:`~repro.obs.MetricsRegistry` next to the engine,
training and store counters.

Latency is tracked with two :class:`~repro.obs.LatencyReservoir`s:

* ``latency`` -- submit-to-result per request (what a user feels);
* ``queue_wait`` -- submit-to-drain per request (the price of batch
  formation; bounded by the scheduler's ``max_wait_s`` plus execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import Counters, LatencyReservoir


@dataclass
class ServeStats(Counters):
    """Counters for the multi-tenant serving front end."""

    DERIVED = ("coalesce_ratio",)

    # -- admission -------------------------------------------------------------
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_rejected: int = 0
    requests_submitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    requests_rejected: int = 0
    #: Schema deltas applied to live sessions through ``apply_drift``.
    drifts_applied: int = 0

    # -- coalescing ------------------------------------------------------------
    pairs_submitted: int = 0
    pairs_scored: int = 0
    batches: int = 0
    #: Batches whose requests came from more than one session.
    cross_session_batches: int = 0
    #: Sum over batches of the number of requests drained into each; the
    #: coalesce ratio is this divided by ``batches``.
    coalesced_requests: int = 0
    microbatches: int = 0
    #: Batches flushed because the oldest request hit its deadline (the rest
    #: flushed because the pending pool reached the target size).
    deadline_flushes: int = 0
    #: Batches drained by an explicit end-of-stream/shutdown ``flush()``.
    forced_flushes: int = 0

    # -- queues ----------------------------------------------------------------
    queue_depth_peak: int = 0
    pending_pairs_peak: int = 0

    # -- latency ---------------------------------------------------------------
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    queue_wait: LatencyReservoir = field(default_factory=LatencyReservoir)

    def observe_queue_depth(self, depth: int, pending_pairs: int) -> None:
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth
        if pending_pairs > self.pending_pairs_peak:
            self.pending_pairs_peak = pending_pairs

    def coalesce_ratio(self) -> float:
        """Mean requests folded into one executed batch (1.0 = no coalescing)."""
        if not self.batches:
            return 0.0
        return self.coalesced_requests / self.batches
