"""Serving front-end behaviour: admission, deadlines, hot-swap, lifecycle."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro.engine.batching import plan_microbatches
from repro.featurizers.bert import score_encoded_batch
from repro.serve import (
    AdmissionController,
    AdmissionError,
    ModelResidency,
    ResidencyError,
    ServeConfig,
    ServeService,
    ServeStats,
    apply_swap,
)

from .conftest import make_pairs


def run(coro):
    return asyncio.run(coro)


def small_config(**overrides) -> ServeConfig:
    defaults = dict(max_sessions=4, max_inflight_per_session=2, max_wait_s=0.005)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def direct_scores(resident, pairs) -> np.ndarray:
    """Score pairs straight against a resident version (reference path)."""
    out = np.empty(len(pairs))
    for mb in plan_microbatches(pairs, microbatch_size=64, bucket_granularity=8):
        scores = score_encoded_batch(
            resident.model, resident.classifier, resident.special_ids, mb.batch
        )
        for position, score in zip(mb.indices, scores):
            out[position] = float(score)
    return out


class TestAdmission:
    def test_session_limit_enforced(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handles = [service.open_session("t0") for _ in range(4)]
                with pytest.raises(AdmissionError, match="session limit"):
                    service.open_session("t0")
                # Closing one session frees the slot.
                service.close_session(handles[0])
                service.open_session("t0")
                assert service.stats.sessions_rejected == 1
                assert service.stats.sessions_opened == 5

        run(scenario())

    def test_duplicate_session_id_rejected(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                service.open_session("t0", session_id="dup")
                with pytest.raises(AdmissionError, match="already open"):
                    service.open_session("t0", session_id="dup")

        run(scenario())

    def test_unknown_tenant_rejected_without_consuming_slot(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                with pytest.raises(ResidencyError, match="unknown tenant"):
                    service.open_session("nope")
                assert service.admission.active_sessions == 0

        run(scenario())

    def test_inflight_bound_enforced(self, tenant_stack):
        async def scenario():
            # Long max_wait keeps requests queued while we over-submit.
            config = small_config(max_wait_s=5.0)
            async with ServeService(config) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                futures = [
                    service.submit_nowait(handle, make_pairs(i, 2)) for i in range(2)
                ]
                with pytest.raises(AdmissionError):
                    service.submit_nowait(handle, make_pairs(9, 2))
                assert service.stats.requests_rejected == 1
                await service.flush()
                await asyncio.gather(*futures)
                # Completion returns the in-flight slots.
                service.submit_nowait(handle, make_pairs(3, 1))
                await service.flush()

        run(scenario())

    def test_submit_requires_open_session(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                service.close_session(handle)
                with pytest.raises(AdmissionError, match="not open"):
                    service.submit_nowait(handle, make_pairs(0, 1))

        run(scenario())


class TestAdmissionController:
    def test_end_without_begin_raises(self):
        controller = AdmissionController(2, 2)
        controller.open_session("s")
        with pytest.raises(AdmissionError, match="end_request without begin"):
            controller.end_request("s")

    def test_close_session_is_idempotent(self):
        controller = AdmissionController(2, 2)
        controller.open_session("s")
        controller.close_session("s")
        controller.close_session("s")
        assert controller.active_sessions == 0

    def test_inflight_of_closed_session_still_completes(self):
        controller = AdmissionController(2, 2)
        controller.open_session("s")
        controller.begin_request("s")
        controller.close_session("s")
        controller.end_request("s")  # completing after close is fine
        assert controller.inflight("s") == 0

    def test_reopen_refused_while_ghost_inflight_drains(self):
        # Regression: reopening a just-closed session_id inherited the old
        # incarnation's draining in-flight count, spuriously rejecting the
        # new session's own first requests.
        controller = AdmissionController(2, 1)
        controller.open_session("s")
        controller.begin_request("s")
        controller.close_session("s")
        with pytest.raises(AdmissionError, match="draining"):
            controller.open_session("s")
        controller.end_request("s")  # the ghost request completes
        controller.open_session("s")  # now the id is reusable...
        controller.begin_request("s")  # ...starting from depth zero
        assert controller.inflight("s") == 1


class TestScoring:
    def test_lone_request_is_deadline_flushed_not_starved(self, tenant_stack):
        async def scenario():
            config = small_config(
                max_wait_s=0.01, target_batch_pairs=10_000, max_batch_pairs=10_000
            )
            async with ServeService(config) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                started = time.perf_counter()
                scores = await service.submit(handle, make_pairs(0, 2))
                elapsed = time.perf_counter() - started
                assert scores.shape == (2,)
                # Far below the 10k-pair size target, far above zero wait:
                # the deadline trigger must have fired.
                assert service.stats.deadline_flushes == 1
                assert elapsed < 5.0

        run(scenario())

    def test_scores_match_direct_scoring(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                pairs = make_pairs(4, 5)
                scores = await service.submit(handle, pairs)
                resident = service.residency.acquire(
                    service.residency.latest_key("t0")
                )
                expected = direct_scores(resident, pairs)
                service.residency.release(resident.key)
                np.testing.assert_allclose(scores, expected, atol=1e-8, rtol=0)

        run(scenario())

    def test_hot_swap_changes_scores_for_new_requests(self, tenant_stack):
        async def scenario():
            model, classifier, special_ids = tenant_stack
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", model, classifier, special_ids)
                handle = service.open_session("t0")
                pairs = make_pairs(7, 4)
                before = await service.submit(handle, pairs)
                apply_swap(model, classifier, swap_seed=99)
                service.publish("t0", model, classifier, special_ids)
                after = await service.submit(handle, pairs)
                assert not np.allclose(before, after, atol=1e-12)

        run(scenario())

    def test_inflight_request_pins_its_version_across_hot_swap(self, tenant_stack):
        async def scenario():
            model, classifier, special_ids = tenant_stack
            config = small_config(max_wait_s=5.0)  # keep the request queued
            async with ServeService(config) as service:
                v1 = service.register_tenant("t0", model, classifier, special_ids)
                handle = service.open_session("t0")
                pairs = make_pairs(11, 3)
                v1_resident = service.residency.acquire(v1)
                expected = direct_scores(v1_resident, pairs)
                service.residency.release(v1)

                future = service.submit_nowait(handle, pairs)
                # Hot-swap lands while the request is still queued ...
                apply_swap(model, classifier, swap_seed=123)
                service.publish("t0", model, classifier, special_ids)
                await service.flush()
                scores = await future
                # ... but the request is scored with the version it bound
                # at submit time.
                np.testing.assert_allclose(scores, expected, atol=1e-8, rtol=0)

        run(scenario())

    def test_empty_request_rejected(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                with pytest.raises(ValueError, match="at least one pair"):
                    service.submit_nowait(handle, [])
                # The failed submit must not leak an admission slot or a pin.
                assert service.admission.inflight(handle.session_id) == 0
                scores = await service.submit(handle, make_pairs(2, 1))
                assert scores.shape == (1,)

        run(scenario())

    def test_failing_backend_fails_futures_not_service(self, tenant_stack):
        class ExplodingBackend:
            def score(self, resident, plan):
                raise RuntimeError("boom")

            def close(self):
                pass

        async def scenario():
            service = ServeService(small_config(), backend=ExplodingBackend())
            async with service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                with pytest.raises(RuntimeError, match="batch execution failed"):
                    await service.submit(handle, make_pairs(0, 2))
                assert service.stats.requests_failed == 1
                # The pin was released despite the failure.
                assert all(
                    entry.pins == 0
                    for entry in service.residency._entries.values()
                )

        run(scenario())

    def test_vanished_version_fails_batch_not_scheduler(self, tenant_stack):
        # Regression: residency.acquire in _execute sat outside the failure
        # path, so a version evicted between batch formation and execution
        # (cancelled pins + hot-swap + capacity pressure) raised into the
        # scheduler task and silently killed the service.
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                future = service.submit_nowait(handle, make_pairs(0, 2))
                # Yank every resident version out from under the queued
                # request -- the eviction race in miniature.
                with service.residency._lock:
                    for entry in list(service.residency._entries.values()):
                        service.residency._evict(entry)
                with pytest.raises(RuntimeError, match="batch execution failed"):
                    await future
                # The scheduler task survived: a fresh publish serves again.
                service.register_tenant("t0", *tenant_stack)
                scores = await service.submit(handle, make_pairs(1, 2))
                assert scores.shape == (2,)

        run(scenario())


class TestLifecycle:
    def test_flush_drains_without_waiting_for_deadline(self, tenant_stack):
        async def scenario():
            config = small_config(max_wait_s=60.0)
            async with ServeService(config) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                future = service.submit_nowait(handle, make_pairs(0, 2))
                started = time.perf_counter()
                await service.flush()
                scores = await future
                assert time.perf_counter() - started < 30.0
                assert scores.shape == (2,)
                assert service.stats.forced_flushes >= 1

        run(scenario())

    def test_stop_drains_pending_requests(self, tenant_stack):
        async def scenario():
            config = small_config(max_wait_s=60.0)
            service = ServeService(config)
            await service.start()
            service.register_tenant("t0", *tenant_stack)
            handle = service.open_session("t0")
            future = service.submit_nowait(handle, make_pairs(3, 2))
            await service.stop()  # must not hang for 60s
            scores = await future
            assert scores.shape == (2,)

        run(scenario())

    def test_stop_is_idempotent_and_releases_arenas(self, tenant_stack):
        from repro.engine import live_segment_names

        async def scenario():
            service = ServeService(small_config())
            await service.start()
            service.register_tenant("t0", *tenant_stack)
            handle = service.open_session("t0")
            await service.submit(handle, make_pairs(5, 2))
            await service.stop()
            await service.stop()

        run(scenario())
        assert not live_segment_names()

    def test_submit_before_start_raises(self, tenant_stack):
        service = ServeService(small_config())
        service.register_tenant("t0", *tenant_stack)
        with pytest.raises(RuntimeError, match="not running"):
            service.submit_nowait(
                type("H", (), {"session_id": "s", "tenant": "t0"})(),
                make_pairs(0, 1),
            )

    def test_metrics_snapshot_covers_serve_and_residency(self, tenant_stack):
        async def scenario():
            async with ServeService(small_config()) as service:
                service.register_tenant("t0", *tenant_stack)
                handle = service.open_session("t0")
                await service.submit(handle, make_pairs(1, 3))
                return service.metrics_snapshot()

        snapshot = run(scenario())
        for key in (
            "serve.requests_submitted",
            "serve.requests_completed",
            "serve.batches",
            "serve.coalesce_ratio",
            "serve.latency_p50_ms",
            "serve.latency_p99_ms",
            "serve.queue_wait_p99_ms",
            "serve.queue_depth_peak",
            "serve.deadline_flushes",
            "residency.resident",
            "residency.evictions",
            "residency.eviction_refusals",
        ):
            assert key in snapshot, key
        assert snapshot["serve.requests_completed"] == 1
        assert snapshot["serve.pairs_scored"] == 3
        assert "residency.published" in snapshot

    def test_stats_render_every_key_the_benchmark_reads(self):
        """The end-to-end benchmark reads these ``serve.*`` keys with a 0
        default, so a renamed counter would silently read as 0."""
        rendered = ServeStats().as_dict()
        for key in (
            "queue_wait_p50_ms",
            "queue_wait_p99_ms",
            "batches",
            "pairs_scored",
            "coalesce_ratio",
            "requests_rejected",
            "sessions_rejected",
        ):
            assert key in rendered, key


class TestResidencyEviction:
    def test_lru_eviction_keeps_latest_and_pinned(self, tenant_stack):
        model, classifier, special_ids = tenant_stack
        residency = ModelResidency(capacity=2, use_shm=False)
        v1 = residency.publish("t0", model, classifier, special_ids)
        residency.acquire(v1)  # pin v1
        v2 = residency.publish("t0", model, classifier, special_ids)
        v3 = residency.publish("t0", model, classifier, special_ids)
        # Over capacity: v2 (unpinned, not latest) is the only candidate.
        assert residency.is_resident(v1)  # pinned
        assert not residency.is_resident(v2)  # evicted
        assert residency.is_resident(v3)  # latest
        assert residency.evictions == 1
        residency.close()

    def test_eviction_refused_when_everything_is_pinned_or_latest(
        self, tenant_stack
    ):
        model, classifier, special_ids = tenant_stack
        residency = ModelResidency(capacity=1, use_shm=False)
        v1 = residency.publish("t0", model, classifier, special_ids)
        residency.acquire(v1)
        v2 = residency.publish("t0", model, classifier, special_ids)
        # v1 pinned, v2 latest: nothing can go, refusal is counted.
        assert residency.is_resident(v1)
        assert residency.is_resident(v2)
        assert residency.eviction_refusals >= 1
        # Releasing the pin retries the eviction.
        residency.release(v1)
        assert not residency.is_resident(v1)
        assert residency.is_resident(v2)
        residency.close()

    def test_release_without_acquire_raises(self, tenant_stack):
        model, classifier, special_ids = tenant_stack
        residency = ModelResidency(capacity=2, use_shm=False)
        key = residency.publish("t0", model, classifier, special_ids)
        with pytest.raises(ResidencyError, match="release without acquire"):
            residency.release(key)
        residency.close()
