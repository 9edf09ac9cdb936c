"""Cross-session micro-batch coalescing: the scheduler core.

Interactive schema-matching traffic is many *small* score requests -- a
handful of candidate pairs per source attribute per session.  Scoring each
request alone wastes the batch efficiency the bucketed planner
(:mod:`repro.engine.batching`) exists to exploit.  The scheduler fixes that
by draining pending requests **across sessions** into shared
length-bucketed micro-batch plans, with two triggers per model version:

* **size** -- pending pairs reached ``target_batch_pairs`` (flush now, the
  batch is worth executing);
* **deadline** -- the *oldest* pending request is ``max_wait_s`` old (flush
  whatever is there: a lone session never stalls behind batch formation).

Requests for different model versions never share a batch (they need
different weights), but drain order is still global FIFO by submission:
pools drain oldest-head-first, and a drain never takes a request whose
session has an older request pending in *another* pool (it stops, and the
older pool is flushed first -- early, if need be).  Per-session FIFO
completion order is therefore structural even when one session's requests
span model versions, as they do across a mid-stream hot-swap.

This module is deliberately synchronous and clock-injected -- the asyncio
front end (:mod:`repro.serve.service`) owns time and wake-ups; the
hypothesis property suite (``tests/serve/test_scheduler_properties.py``)
drives this core with a simulated clock and checks starvation-freedom,
FIFO-per-session and queue bounds exhaustively.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..engine.batching import MicroBatch, plan_microbatches
from ..lm.tokenizer import EncodedPair


class QueueFullError(RuntimeError):
    """A session exceeded its bounded request queue."""


@dataclass
class ScoreRequest:
    """One session's score request: a list of encoded pairs to score."""

    request_id: int
    session_id: str
    #: Resident model version that must score these pairs (pinned by the
    #: service for the request's lifetime).
    model_key: str
    pairs: list[EncodedPair]
    enqueued_at: float
    deadline: float
    #: Set by the service: an asyncio future resolved with the scores.
    future: object | None = field(default=None, repr=False)


@dataclass
class CoalescedBatch:
    """A drained set of requests sharing one model version, planned to score."""

    model_key: str
    requests: tuple[ScoreRequest, ...]
    #: Bucketed plan over the concatenation of all requests' pairs, in
    #: request order; ``MicroBatch.indices`` point into that concatenation.
    plan: list[MicroBatch]
    formed_at: float
    #: True when the flush trigger was the oldest request's deadline.
    deadline_flush: bool

    @property
    def total_pairs(self) -> int:
        return sum(len(request.pairs) for request in self.requests)

    @property
    def session_ids(self) -> set[str]:
        return {request.session_id for request in self.requests}

    def scatter(self, results: Sequence[np.ndarray]) -> dict[int, np.ndarray]:
        """Route per-micro-batch score arrays back to per-request arrays."""
        flat = np.empty(self.total_pairs, dtype=np.float64)
        for microbatch, scores in zip(self.plan, results):
            for position, score in zip(microbatch.indices, np.asarray(scores)):
                flat[position] = float(score)
        routed: dict[int, np.ndarray] = {}
        offset = 0
        for request in self.requests:
            routed[request.request_id] = flat[offset : offset + len(request.pairs)]
            offset += len(request.pairs)
        return routed


class CoalescingScheduler:
    """FIFO, deadline-bounded, cross-session batch former (sync core)."""

    def __init__(
        self,
        max_wait_s: float = 0.002,
        target_batch_pairs: int = 128,
        max_batch_pairs: int = 1024,
        max_queue_per_session: int = 32,
        microbatch_size: int = 64,
        bucket_granularity: int = 8,
    ) -> None:
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if target_batch_pairs < 1 or max_batch_pairs < target_batch_pairs:
            raise ValueError("need 1 <= target_batch_pairs <= max_batch_pairs")
        if max_queue_per_session < 1:
            raise ValueError("max_queue_per_session must be >= 1")
        # Checked here, not at the first drain: a bad value would otherwise
        # raise inside the service's scheduler task and strand every future.
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if bucket_granularity < 1:
            raise ValueError("bucket_granularity must be >= 1")
        self.max_wait_s = max_wait_s
        self.target_batch_pairs = target_batch_pairs
        self.max_batch_pairs = max_batch_pairs
        self.max_queue_per_session = max_queue_per_session
        self.microbatch_size = microbatch_size
        self.bucket_granularity = bucket_granularity
        self._next_request_id = 1
        #: Pending requests per model key, in submission (FIFO) order.
        self._pending: dict[str, deque[ScoreRequest]] = {}
        #: Pending (request_id, model_key) per session, in submission (FIFO)
        #: order; the head is the request that must complete next for that
        #: session, and its model_key locates the pool holding it.
        self._session_pending: dict[str, deque[tuple[int, str]]] = {}

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        session_id: str,
        model_key: str,
        pairs: list[EncodedPair],
        now: float,
        future: object | None = None,
    ) -> ScoreRequest:
        """Enqueue a request; raises :class:`QueueFullError` past the bound."""
        if not pairs:
            raise ValueError("a score request must carry at least one pair")
        depth = len(self._session_pending.get(session_id, ()))
        if depth >= self.max_queue_per_session:
            raise QueueFullError(
                f"session {session_id!r} has {depth} queued requests "
                f"(bound {self.max_queue_per_session})"
            )
        request = ScoreRequest(
            request_id=self._next_request_id,
            session_id=session_id,
            model_key=model_key,
            pairs=list(pairs),
            enqueued_at=now,
            deadline=now + self.max_wait_s,
            future=future,
        )
        self._next_request_id += 1
        self._pending.setdefault(model_key, deque()).append(request)
        self._session_pending.setdefault(session_id, deque()).append(
            (request.request_id, model_key)
        )
        return request

    # -- introspection ---------------------------------------------------------

    def pending_requests(self) -> int:
        return sum(len(queue) for queue in self._pending.values())

    def pending_pairs(self) -> int:
        return sum(
            len(request.pairs)
            for queue in self._pending.values()
            for request in queue
        )

    def session_depth(self, session_id: str) -> int:
        return len(self._session_pending.get(session_id, ()))

    def next_deadline(self) -> float | None:
        """Earliest pending deadline (the service sleeps until it), or None."""
        deadlines = [queue[0].deadline for queue in self._pending.values() if queue]
        return min(deadlines) if deadlines else None

    # -- batch formation -------------------------------------------------------

    def _oldest_head_key(self) -> str:
        """The pool whose head is the globally oldest pending request.

        That head is never ordering-blocked (any older same-session request
        would itself be globally older), so draining this pool always makes
        progress.
        """
        return min(self._pending, key=lambda key: self._pending[key][0].request_id)

    def _due_keys(self, now: float) -> list[str]:
        return [
            key
            for key, queue in self._pending.items()
            if queue[0].deadline <= now
            or sum(len(request.pairs) for request in queue)
            >= self.target_batch_pairs
        ]

    def _unblock(self, model_key: str) -> str:
        """Resolve ``model_key`` to a pool whose head is not ordering-blocked.

        If the pool's head request has an older same-session request pending
        in another pool, that pool must drain first; follow the chain (each
        hop reaches a strictly older head, so it terminates).
        """
        while True:
            head = self._pending[model_key][0]
            first_id, first_key = self._session_pending[head.session_id][0]
            if first_id == head.request_id:
                return model_key
            model_key = first_key

    def ready_batches(self, now: float) -> list[CoalescedBatch]:
        """Drain, oldest due pool first, until no flush trigger is live.

        Loops until quiescent: after this returns, every still-pending
        request has ``deadline > now`` **and** its pool is below the size
        target -- the starvation-freedom invariant the property suite pins.
        A due pool whose head is blocked by an older same-session request in
        another pool flushes that older pool early (a smaller batch):
        per-session completion order is worth more than batch-formation
        efficiency.
        """
        batches: list[CoalescedBatch] = []
        while True:
            due = self._due_keys(now)
            if not due:
                return batches
            oldest_due = min(due, key=lambda key: self._pending[key][0].request_id)
            model_key = self._unblock(oldest_due)
            deadline_due = self._pending[model_key][0].deadline <= now
            batches.append(self._drain(model_key, now, deadline_due))

    def flush_pending(self, now: float) -> list[CoalescedBatch]:
        """Drain every pending request immediately, ignoring flush triggers.

        End-of-stream drain: a load replay that knows no more requests are
        coming (or a service shutting down) should not idle out the deadline
        of the last partial batch.  Pools drain oldest-head-first with the
        same batch composition a deadline flush would have produced.
        """
        batches: list[CoalescedBatch] = []
        while self._pending:
            batches.append(
                self._drain(self._oldest_head_key(), now, deadline_flush=False)
            )
        return batches

    def _drain(
        self, model_key: str, now: float, deadline_flush: bool
    ) -> CoalescedBatch:
        """Take requests in FIFO order up to ``max_batch_pairs`` and plan them.

        Always takes at least one request (callers select a pool with an
        unblocked head), so a single oversized request still executes (as
        its own batch) instead of starving.  The take stops early at a
        request whose session has an older request pending in another pool:
        taking it would complete that session's requests out of order.
        """
        queue = self._pending[model_key]
        taken: list[ScoreRequest] = []
        pairs = 0
        while queue:
            request = queue[0]
            if taken and pairs + len(request.pairs) > self.max_batch_pairs:
                break
            session_queue = self._session_pending[request.session_id]
            # Pop session bookkeeping as each request is taken, so a later
            # same-pool request of the same session sees *this* request as
            # already completed and is not spuriously treated as blocked.
            if session_queue[0][0] != request.request_id:
                break
            queue.popleft()
            session_queue.popleft()
            if not session_queue:
                del self._session_pending[request.session_id]
            taken.append(request)
            pairs += len(request.pairs)
        if not queue:
            del self._pending[model_key]
        concatenated = [pair for request in taken for pair in request.pairs]
        plan = plan_microbatches(
            concatenated,
            microbatch_size=self.microbatch_size,
            bucket_granularity=self.bucket_granularity,
        )
        return CoalescedBatch(
            model_key=model_key,
            requests=tuple(taken),
            plan=plan,
            formed_at=now,
            deadline_flush=deadline_flush,
        )
