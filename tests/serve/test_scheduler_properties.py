"""Property tests: scheduler fairness, admission bounds, pinned eviction.

The scheduler core is synchronous and clock-injected precisely so these
properties can be checked exhaustively with a simulated clock:

* **starvation-freedom** -- after ``ready_batches(now)`` returns, no pending
  request's deadline has passed and no pool is at its size target;
* **FIFO per session** -- a session's requests complete in submission order;
* **bounded queues** -- per-session depth never exceeds the configured bound
  and every over-bound submit raises;
* **admission invariants** -- open sessions and per-session in-flight counts
  never exceed their limits under arbitrary operation sequences;
* **pinned residency** -- LRU eviction never removes a pinned version or a
  tenant's latest version, no matter the publish/acquire/release order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lm.tokenizer import EncodedPair
from repro.serve import (
    AdmissionController,
    AdmissionError,
    CoalescingScheduler,
    ModelResidency,
    QueueFullError,
)

# One shared template pair: the scheduler only reads pair *lengths* (for
# bucketing), so reusing a single EncodedPair keeps example generation cheap.
_TEMPLATE = EncodedPair(
    input_ids=np.arange(16, dtype=np.int64),
    segment_ids=np.zeros(16, dtype=np.int64),
    attention_mask=np.ones(16, dtype=np.int64),
)


def _pairs(count: int) -> list[EncodedPair]:
    return [_TEMPLATE] * count


# A scripted scheduler interaction: submits interleaved with clock advances.
submit_op = st.tuples(
    st.just("submit"),
    st.integers(min_value=0, max_value=4),  # session index
    st.integers(min_value=0, max_value=2),  # model-key index
    st.integers(min_value=1, max_value=6),  # pairs in the request
)
advance_op = st.tuples(
    st.just("advance"),
    st.integers(min_value=0, max_value=20),  # clock ticks (1 tick = 1ms)
    st.just(0),
    st.just(0),
)
ops_strategy = st.lists(st.one_of(submit_op, advance_op), min_size=1, max_size=60)


class TestSchedulerProperties:
    @given(ops=ops_strategy)
    @settings(max_examples=80, deadline=None)
    def test_no_request_starves_and_queues_stay_bounded(self, ops):
        scheduler = CoalescingScheduler(
            max_wait_s=0.005,  # 5 ticks
            target_batch_pairs=10,
            max_batch_pairs=20,
            max_queue_per_session=4,
        )
        now = 0.0
        for op, a, b, c in ops:
            if op == "advance":
                now += a / 1000.0
            else:
                session = f"s{a}"
                try:
                    scheduler.submit(session, f"m{b}", _pairs(c), now)
                except QueueFullError:
                    # Only permitted exactly at the bound.
                    assert scheduler.session_depth(session) == 4
            scheduler.ready_batches(now)
            # Starvation-freedom: nothing pending is past its deadline, and
            # no pool has reached the flush-worthy size.
            deadline = scheduler.next_deadline()
            assert deadline is None or deadline > now
            for queue in scheduler._pending.values():
                assert sum(len(r.pairs) for r in queue) < 10
            # Bounded queues.
            for session_id, queue in scheduler._session_pending.items():
                assert 1 <= len(queue) <= 4

    @given(ops=ops_strategy)
    # Regression: one session's requests alternating model keys drained as
    # 1, 3, 2 when pools flushed whole-pool-at-a-time in dict order.
    @example(ops=[("submit", 0, 0, 1), ("submit", 0, 1, 1), ("submit", 0, 0, 1)])
    @settings(max_examples=80, deadline=None)
    def test_fifo_per_session_completion_order(self, ops):
        scheduler = CoalescingScheduler(
            max_wait_s=0.003,
            target_batch_pairs=8,
            max_batch_pairs=12,
            max_queue_per_session=8,
        )
        now = 0.0
        submitted: dict[str, list[int]] = {}
        drained: dict[str, list[int]] = {}

        def drain(at: float) -> None:
            for batch in scheduler.ready_batches(at):
                for request in batch.requests:
                    drained.setdefault(request.session_id, []).append(
                        request.request_id
                    )

        for op, a, b, c in ops:
            if op == "advance":
                now += a / 1000.0
            else:
                session = f"s{a}"
                try:
                    request = scheduler.submit(session, f"m{b}", _pairs(c), now)
                    submitted.setdefault(session, []).append(request.request_id)
                except QueueFullError:
                    pass
            drain(now)
        # Flush the tail so every submitted request completes.
        for batch in scheduler.flush_pending(now):
            for request in batch.requests:
                drained.setdefault(request.session_id, []).append(request.request_id)

        assert scheduler.pending_requests() == 0
        for session, ids in submitted.items():
            # Every request completed, in exactly the order it was submitted.
            assert drained.get(session, []) == ids

    def test_hot_swap_size_trigger_flushes_older_pool_first(self):
        # A session's pre-swap request (old version's pool) must complete
        # before its post-swap requests, even when only the *new* pool's
        # size trigger fires: the blocked drain forces the older pool to
        # flush early instead of reordering the session.
        scheduler = CoalescingScheduler(
            max_wait_s=60.0,
            target_batch_pairs=4,
            max_batch_pairs=8,
            max_queue_per_session=8,
        )
        scheduler.submit("s0", "m0", _pairs(1), 0.0)  # r1, before hot-swap
        scheduler.submit("s0", "m1", _pairs(2), 0.0)  # r2, after hot-swap
        scheduler.submit("s1", "m1", _pairs(2), 0.0)  # r3 fills m1 to target
        batches = scheduler.ready_batches(0.0)
        assert [batch.model_key for batch in batches] == ["m0", "m1"]
        assert [
            request.request_id for batch in batches for request in batch.requests
        ] == [1, 2, 3]

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_batches_never_mix_model_keys_or_exceed_caps(self, ops):
        scheduler = CoalescingScheduler(
            max_wait_s=0.002,
            target_batch_pairs=6,
            max_batch_pairs=9,
            max_queue_per_session=8,
        )
        now = 0.0
        for op, a, b, c in ops:
            if op == "advance":
                now += a / 1000.0
            else:
                try:
                    scheduler.submit(f"s{a}", f"m{b}", _pairs(c), now)
                except QueueFullError:
                    pass
            for batch in scheduler.ready_batches(now):
                assert {r.model_key for r in batch.requests} == {batch.model_key}
                # The pair cap may be exceeded only by a single oversized
                # request that must still execute.
                if len(batch.requests) > 1:
                    assert batch.total_pairs <= 9
                # The plan covers exactly the batch's pairs.
                assert sum(len(mb.indices) for mb in batch.plan) == batch.total_pairs


admission_ops = st.lists(
    st.tuples(
        st.sampled_from(["open", "close", "begin", "end"]),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=80,
)


class TestAdmissionProperties:
    @given(ops=admission_ops)
    @settings(max_examples=100, deadline=None)
    def test_limits_never_exceeded(self, ops):
        controller = AdmissionController(max_sessions=3, max_inflight_per_session=2)
        begun: dict[str, int] = {}
        for op, index in ops:
            session = f"s{index}"
            try:
                if op == "open":
                    controller.open_session(session)
                elif op == "close":
                    controller.close_session(session)
                elif op == "begin":
                    controller.begin_request(session)
                    begun[session] = begun.get(session, 0) + 1
                elif op == "end":
                    if begun.get(session, 0) > 0:
                        controller.end_request(session)
                        begun[session] -= 1
            except AdmissionError:
                pass
            assert controller.active_sessions <= 3
            for index2 in range(6):
                assert controller.inflight(f"s{index2}") <= 2


residency_ops = st.lists(
    st.tuples(
        st.sampled_from(["publish", "acquire", "release"]),
        st.integers(min_value=0, max_value=2),  # tenant index
    ),
    min_size=1,
    max_size=40,
)


class _Weightless:
    """Minimal module protocol for residency tests (no real weights)."""

    def parameters(self):
        return {}

    def eval(self):
        return self

    def __deepcopy__(self, memo):
        return _Weightless()


class TestResidencyProperties:
    @given(ops=residency_ops)
    @settings(max_examples=100, deadline=None)
    def test_pinned_and_latest_versions_never_evicted(self, ops):
        residency = ModelResidency(capacity=2)
        pinned: list[str] = []
        published: dict[str, list[str]] = {}
        for op, index in ops:
            tenant = f"t{index}"
            if op == "publish":
                key = residency.publish(tenant, _Weightless(), _Weightless(), [0])
                published.setdefault(tenant, []).append(key)
            elif op == "acquire" and published.get(tenant):
                key = residency.latest_key(tenant)
                residency.acquire(key)
                pinned.append(key)
            elif op == "release" and pinned:
                residency.release(pinned.pop())
            # Invariants after every operation:
            for key in pinned:
                assert residency.is_resident(key), f"pinned {key} evicted"
            for tenant_id in published:
                assert residency.is_resident(residency.latest_key(tenant_id))
        residency.close()
