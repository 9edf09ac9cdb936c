"""The multi-tenant async serving front end (``ServeService``).

One long-lived service multiplexes many concurrent matching sessions over
the resident model plane:

* **tenants** register (or hot-swap) model versions through
  :class:`~repro.serve.residency.ModelResidency`; a request always binds the
  tenant's latest version *at submit time* and pins it until its scores are
  delivered, so a mid-flight hot-swap never changes what an already
  submitted request is scored with;
* **admission control** (:class:`AdmissionController`) bounds concurrently
  open sessions and in-flight requests per session -- overload is refused
  loudly at the front door instead of growing unbounded queues;
* a **scheduler loop** drains the coalescing core
  (:class:`~repro.serve.scheduler.CoalescingScheduler`) whenever a size or
  deadline trigger fires, executes each coalesced batch on a worker thread
  (numpy releases the GIL inside the GEMMs), and scatters scores back to
  per-request asyncio futures;
* **metrics** (p50/p99 latency, queue depth, coalesce ratio, evictions)
  flow through :class:`~repro.serve.stats.ServeStats` and the residency
  counters, both registered on a :class:`~repro.obs.MetricsRegistry`
  (surfaced by ``repro serve stats``).

Scoring runs through :class:`InProcessBackend`, which calls the shared
forward function directly against the resident weights.  Coalesced
batches already run on executor threads and average a handful of pairs,
so the service does not use the engine's scoring threads; the ``backend``
argument exists so tests can inject fakes.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..engine.batching import MicroBatch
from ..lm.tokenizer import EncodedPair
from ..obs import MetricsRegistry
from .residency import ModelResidency, ResidentModel
from .scheduler import CoalescedBatch, CoalescingScheduler, QueueFullError
from .stats import ServeStats


class AdmissionError(RuntimeError):
    """The service refused a session or request at the front door."""


class AdmissionController:
    """Bounded session registry + per-session in-flight request counting.

    Synchronous and self-contained so the property suite can drive it with
    arbitrary open/close/begin/end sequences; the service calls it from the
    event loop only.
    """

    def __init__(self, max_sessions: int, max_inflight_per_session: int) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if max_inflight_per_session < 1:
            raise ValueError("max_inflight_per_session must be >= 1")
        self.max_sessions = max_sessions
        self.max_inflight_per_session = max_inflight_per_session
        self._active: set[str] = set()
        self._inflight: dict[str, int] = {}

    @property
    def active_sessions(self) -> int:
        return len(self._active)

    def inflight(self, session_id: str) -> int:
        return self._inflight.get(session_id, 0)

    def is_active(self, session_id: str) -> bool:
        return session_id in self._active

    def open_session(self, session_id: str) -> None:
        if session_id in self._active:
            raise AdmissionError(f"session {session_id!r} is already open")
        if self._inflight.get(session_id, 0):
            # A closed session's in-flight requests are still draining; a
            # reopened incarnation must not inherit their counts (it would
            # start at a phantom depth and reject its own first requests).
            raise AdmissionError(
                f"session {session_id!r} still has "
                f"{self._inflight[session_id]} requests draining"
            )
        if len(self._active) >= self.max_sessions:
            raise AdmissionError(
                f"session limit reached ({self.max_sessions} in flight)"
            )
        self._active.add(session_id)

    def close_session(self, session_id: str) -> None:
        # In-flight requests of a closing session still complete; only the
        # session slot is returned.
        self._active.discard(session_id)

    def begin_request(self, session_id: str) -> None:
        if session_id not in self._active:
            raise AdmissionError(f"session {session_id!r} is not open")
        depth = self._inflight.get(session_id, 0)
        if depth >= self.max_inflight_per_session:
            raise AdmissionError(
                f"session {session_id!r} has {depth} requests in flight "
                f"(bound {self.max_inflight_per_session})"
            )
        self._inflight[session_id] = depth + 1

    def end_request(self, session_id: str) -> None:
        depth = self._inflight.get(session_id, 0)
        if depth <= 0:
            raise AdmissionError(f"end_request without begin for {session_id!r}")
        if depth == 1:
            del self._inflight[session_id]
        else:
            self._inflight[session_id] = depth - 1


# -- scoring backend ---------------------------------------------------------------


class InProcessBackend:
    """Score plans directly against the resident weights (no pools)."""

    def score(
        self, resident: ResidentModel, plan: Sequence[MicroBatch]
    ) -> list[np.ndarray]:
        from ..featurizers.bert import score_encoded_batch

        return [
            score_encoded_batch(
                resident.model, resident.classifier, resident.special_ids, mb.batch
            )
            for mb in plan
        ]

    def close(self) -> None:
        pass


# -- the service -------------------------------------------------------------------


@dataclass
class ServeConfig:
    """Knobs of the serving front end."""

    #: Admission: maximum concurrently open sessions across all tenants.
    max_sessions: int = 64
    #: Admission: maximum in-flight requests per session.
    max_inflight_per_session: int = 8
    #: Coalescing: flush a model version's pool when its oldest request is
    #: this old, even if the batch is small -- the lone-session bound.
    max_wait_s: float = 0.002
    #: Coalescing: flush as soon as this many pairs are pending.
    target_batch_pairs: int = 128
    #: Hard cap of pairs drained into one coalesced batch.
    max_batch_pairs: int = 1024
    microbatch_size: int = 64
    bucket_granularity: int = 8
    #: Resident (tenant, version) snapshots kept side-by-side (soft bound:
    #: pinned and latest versions are never evicted).
    residency_capacity: int = 4

    def __post_init__(self) -> None:
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")


@dataclass(frozen=True)
class SessionHandle:
    """Opaque ticket for one open serving session."""

    session_id: str
    tenant: str


class ServeService:
    """Long-lived asyncio service multiplexing sessions over resident models."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        backend: InProcessBackend | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServeConfig()
        self.clock = clock
        self.backend = backend or InProcessBackend()
        self.stats = ServeStats()
        self.residency = ModelResidency(capacity=self.config.residency_capacity)
        self.scheduler = CoalescingScheduler(
            max_wait_s=self.config.max_wait_s,
            target_batch_pairs=self.config.target_batch_pairs,
            max_batch_pairs=self.config.max_batch_pairs,
            max_queue_per_session=self.config.max_inflight_per_session,
            microbatch_size=self.config.microbatch_size,
            bucket_granularity=self.config.bucket_granularity,
        )
        self.admission = AdmissionController(
            self.config.max_sessions, self.config.max_inflight_per_session
        )
        self.metrics = MetricsRegistry()
        self.metrics.register("serve", self.stats)
        self.metrics.register("residency", self.residency)
        self._session_seq = itertools.count(1)
        self._running = False
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- tenant / model lifecycle ----------------------------------------------

    def register_tenant(
        self, tenant: str, model, classifier, special_ids: Sequence[int]
    ) -> str:
        """Publish a tenant's first (or next) resident model version."""
        return self.residency.publish(tenant, model, classifier, special_ids)

    #: A hot-swap is just the next publish; requests submitted afterwards
    #: bind the new version, in-flight ones keep their pinned old version.
    publish = register_tenant

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        """Drain pending work, stop the loop, release every resource."""
        if self._task is not None:
            self._running = False
            assert self._wake is not None
            self._wake.set()
            await self._task
            self._task = None
            self._wake = None
            self._loop = None
        self.backend.close()
        self.residency.close()

    async def __aenter__(self) -> "ServeService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- sessions ---------------------------------------------------------------

    def open_session(self, tenant: str, session_id: str | None = None) -> SessionHandle:
        """Admit one session for ``tenant`` (raises :class:`AdmissionError`)."""
        # Fail on unknown tenants before consuming a session slot.
        self.residency.latest_key(tenant)
        if session_id is None:
            session_id = f"{tenant}/s{next(self._session_seq)}"
        try:
            self.admission.open_session(session_id)
        except AdmissionError:
            self.stats.sessions_rejected += 1
            raise
        self.stats.sessions_opened += 1
        return SessionHandle(session_id=session_id, tenant=tenant)

    def close_session(self, handle: SessionHandle) -> None:
        if self.admission.is_active(handle.session_id):
            self.admission.close_session(handle.session_id)
            self.stats.sessions_closed += 1

    def apply_drift(self, handle: SessionHandle, session, delta):
        """Apply a schema delta to a live session's matcher.

        ``session`` is the caller's :class:`~repro.core.session.MatchingSession`
        backing this handle (the service holds only opaque tickets).  The
        delta runs under the session's own lock, so it serialises against the
        session's predict/label traffic; requests already submitted to the
        serving plane are untouched -- they carry their own encoded pairs and
        pinned model version, so in-flight scoring completes against the
        pre-drift pair set regardless.
        """
        if not self.admission.is_active(handle.session_id):
            raise AdmissionError(f"session {handle.session_id!r} is not open")
        report = session.apply_delta(delta)
        self.stats.drifts_applied += 1
        return report

    # -- request path -----------------------------------------------------------

    def submit_nowait(
        self, handle: SessionHandle, pairs: list[EncodedPair]
    ) -> asyncio.Future:
        """Enqueue a request synchronously; the returned future carries scores.

        The tenant's *current* model version is captured and pinned here, at
        submit time -- a hot-swap published one statement later does not
        change what this request is scored with.  Must be called from the
        event loop thread (it is synchronous precisely so callers control
        submission order deterministically).
        """
        if not self._running or self._loop is None:
            raise RuntimeError("ServeService is not running (call start())")
        try:
            self.admission.begin_request(handle.session_id)
        except AdmissionError:
            self.stats.requests_rejected += 1
            raise
        model_key = self.residency.latest_key(handle.tenant)
        self.residency.acquire(model_key)  # request-lifetime pin
        future: asyncio.Future = self._loop.create_future()
        try:
            self.scheduler.submit(
                handle.session_id, model_key, pairs, self.clock(), future=future
            )
        except Exception as exc:
            self.residency.release(model_key)
            self.admission.end_request(handle.session_id)
            if isinstance(exc, QueueFullError):
                self.stats.requests_rejected += 1
                raise AdmissionError(str(exc)) from exc
            raise

        def _finalize(_fut: asyncio.Future) -> None:
            self.residency.release(model_key)
            self.admission.end_request(handle.session_id)

        future.add_done_callback(_finalize)
        self.stats.requests_submitted += 1
        self.stats.pairs_submitted += len(pairs)
        self.stats.observe_queue_depth(
            self.scheduler.pending_requests(), self.scheduler.pending_pairs()
        )
        assert self._wake is not None
        self._wake.set()
        return future

    async def submit(
        self, handle: SessionHandle, pairs: list[EncodedPair]
    ) -> np.ndarray:
        """Score ``pairs`` for this session; returns one score per pair.

        The request joins the coalescing pool and resolves when its batch
        executes -- at most ``max_wait_s`` of batch-formation delay plus
        execution time.
        """
        return await self.submit_nowait(handle, pairs)

    async def flush(self) -> None:
        """Drain every pending request now, without waiting out deadlines.

        End-of-stream hook for batch replays: after the last submit, one
        ``flush()`` scores everything still queued with the same full-pool
        FIFO batch composition a deadline flush would have formed.
        """
        if self._loop is None:
            return
        while self.scheduler.pending_requests():
            for batch in self.scheduler.flush_pending(self.clock()):
                self.stats.forced_flushes += 1
                await self._execute(batch, self._loop)

    # -- scheduler loop ---------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        assert self._wake is not None
        while True:
            if self._running:
                batches = self.scheduler.ready_batches(self.clock())
            else:
                # Shutting down: drain whatever is left immediately instead
                # of idling out the last partial batch's deadline.
                batches = self.scheduler.flush_pending(self.clock())
            for batch in batches:
                await self._execute(batch, loop)
            if not self._running and not self.scheduler.pending_requests():
                return
            deadline = self.scheduler.next_deadline()
            if deadline is None:
                await self._wake.wait()
                self._wake.clear()
                continue
            timeout = max(0.0, deadline - self.clock())
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
                self._wake.clear()
            except asyncio.TimeoutError:
                pass

    async def _execute(self, batch: CoalescedBatch, loop: asyncio.AbstractEventLoop) -> None:
        """Score one coalesced batch on a worker thread and scatter results.

        Never raises: *any* failure -- a version evicted before execution
        (every pin released by cancelled futures), a backend error, a
        scatter bug -- fails this batch's futures instead of propagating
        into the scheduler task and silently killing the service.
        """
        try:
            resident = self.residency.acquire(batch.model_key)
            try:
                results = await loop.run_in_executor(
                    None, self.backend.score, resident, batch.plan
                )
            finally:
                self.residency.release(batch.model_key)
            routed = batch.scatter(results)
        except Exception as exc:
            for request in batch.requests:
                self.stats.requests_failed += 1
                if request.future is not None and not request.future.done():
                    request.future.set_exception(
                        RuntimeError(f"batch execution failed: {exc}")
                    )
            return
        now = self.clock()
        self.stats.batches += 1
        self.stats.microbatches += len(batch.plan)
        self.stats.pairs_scored += batch.total_pairs
        self.stats.coalesced_requests += len(batch.requests)
        self.stats.deadline_flushes += int(batch.deadline_flush)
        if len(batch.session_ids) > 1:
            self.stats.cross_session_batches += 1
        for request in batch.requests:
            self.stats.requests_completed += 1
            self.stats.latency.observe(now - request.enqueued_at)
            self.stats.queue_wait.observe(batch.formed_at - request.enqueued_at)
            if request.future is not None and not request.future.done():
                request.future.set_result(routed[request.request_id])

    # -- observability ----------------------------------------------------------

    def metrics_snapshot(self) -> dict[str, object]:
        """Flat dotted snapshot (``serve.*`` + ``residency.*``)."""
        return self.metrics.as_dict()
