"""The four end-to-end workloads: set-up, timed phase, correctness checks.

Each workload runs against the library defaults every in-repo caller uses:
``experiment_lsm_config``, ``ServeConfig()``, ``InProcessBackend``,
``n_workers=0`` and ``quant_mode="off"``.  Each reports the latencies of its
user-visible operation; ``run.py`` reports their mean and 90th percentile.

============ ============================================== =======
workload     operation                                      samples
============ ============================================== =======
session_c    one retrain-and-predict iteration (Fig. 9)     24
onboard_e    constructor + first ``predict()``              1
drift_c      ``apply_delta`` + ``predict()``                100
serve_ladder one request at 50 req/s, timed from its due    500
============ ============================================== =======
"""

from __future__ import annotations

import asyncio
import contextlib
import copy
import selectors
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import inputs
import layers
import vertical

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Every this-many-th serve request is re-scored against its pinned weights.
RESCORE_EVERY = 20
RESCORE_ATOL = 1e-6
#: Scores within this of each other are tied when drift's top-1 is checked.
TOP1_ATOL = 1e-6


@dataclass
class Context:
    """What one workload run needs from the harness."""

    seed: int
    seconds: float
    snapshot: Path
    scratch: Path
    recorder: layers.SpanRecorder | None = None
    wall_s: float = 0.0

    def fresh_store(self, tag: str) -> Path:
        return vertical.restore(self.snapshot, self.scratch / tag)

    @contextlib.contextmanager
    def timed(self):
        """The measured region: spans are recorded only inside it."""
        recording = self.recorder.recording() if self.recorder else contextlib.nullcontext()
        started = time.perf_counter()
        try:
            with recording:
                yield
        finally:
            self.wall_s += time.perf_counter() - started

    def span(self, layer: str, name: str):
        if self.recorder is None:
            return contextlib.nullcontext({})
        return self.recorder.span(layer, name)


@dataclass
class Outcome:
    """A workload's measurements, before they become metrics."""

    #: User-visible operation latencies, milliseconds.
    samples_ms: list[float]
    setup_s: list[float]
    attempted: int
    failed: int
    #: Failed correctness checks (empty when correct).
    errors: list[str] = field(default_factory=list)
    #: Per-layer counts from the library's metrics registries.
    counts: dict[str, float] = field(default_factory=dict)
    #: Seconds the driving thread spent blocked with nothing to run.
    idle_s: float = 0.0
    #: Workload-specific readings recorded in the results file.
    info: dict[str, Any] = field(default_factory=dict)


def timed_setups(ctx: Context, setup: Callable[[Context, str], Any]) -> tuple[Any, list[float]]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; keep the last state."""
    seconds: list[float] = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = setup(ctx, f"setup{attempt}")
        seconds.append(time.perf_counter() - started)
    return state, seconds


def numeric(snapshot: dict[str, Any]) -> dict[str, float]:
    return {
        key: float(value)
        for key, value in snapshot.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def store_snapshot() -> dict[str, float]:
    from repro import store

    return numeric(store.cache_stats().as_dict())


def store_counts(before: dict[str, float]) -> dict[str, float]:
    change = delta(before, store_snapshot())
    return {
        "store.loads": change["hits"] + change["misses"] + change["corruption_events"],
        "store.saves": change["writes"],
        "store.quarantined": change["corruption_events"],
    }


def matcher_counts(change: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-layer counts from a matcher registry delta (``after`` for gauges)."""
    get = lambda key: change.get(key, 0.0)  # noqa: E731
    fallbacks = get("engine.worker_fallbacks") + get("engine.shm_fallbacks")
    return {
        "engine.pairs_scored": get("engine.pairs_scored"),
        "engine.pairs_cached": get("engine.pairs_skipped"),
        "engine.cache_hit_ratio": ratio(
            get("engine.pairs_skipped"), get("engine.pairs_requested")
        ),
        "engine.microbatches": get("engine.microbatches"),
        "engine.inproc_batches": get("engine.inprocess_batches"),
        "engine.shm_batches": get("engine.shm_batches"),
        "engine.quant_batches": get("engine.quant_batches"),
        "engine.fallbacks": fallbacks + get("engine.quant_fallbacks"),
        "train.steps": get("train.steps"),
        "train.samples": get("train.samples"),
        "encode.token_hit_ratio": ratio(
            get("encode.token_cache_hits"),
            get("encode.token_cache_hits") + get("encode.token_cache_misses"),
        ),
        "encode.pairs_assembled": get("encode.rows_assembled"),
        "retrieval.pairs_kept": after.get("retrieval.pairs_after_pruning", 0.0),
        "retrieval.prune_ratio": ratio(
            after.get("retrieval.pairs_after_pruning", 0.0),
            after.get("retrieval.pairs_full_product", 0.0),
        ),
        "drift.pairs_rescored": get("drift.pairs_rescored"),
        "drift.pairs_reused": get("drift.pairs_reused"),
        "drift.reuse_ratio": ratio(
            get("drift.pairs_reused"),
            get("drift.pairs_reused") + get("drift.pairs_rescored"),
        ),
    }


def top1_disagreements(incremental, rebuild, expected, atol: float = TOP1_ATOL) -> list[str]:
    """Sources whose incremental top-1 is not a top-1 of the rebuild.

    Top scores within ``atol`` are ties, for two reasons.  Several
    candidates of a source can score exactly the same (a dtype-filtered
    source scores 0 on all of them), and the ranking then keeps
    candidate-store order, which drift changes.  And a pair's BERT score
    moves by ~1e-8 with the padding of the micro-batch it is scored in,
    which differs between the incremental path and a rebuild.  So the
    incremental top-1 must score the rebuild's best score, and the rebuild
    must score that same target equally, both within ``atol``.
    """
    wrong = [str(s) for s in incremental.suggestions.keys() ^ expected.suggestions.keys()]
    for source, ranked in expected.suggestions.items():
        got = incremental.suggestions.get(source)
        if not ranked or not got:
            if bool(ranked) != bool(got):
                wrong.append(str(source))
            continue
        best = ranked[0][1]
        target, score = got[0]
        pair = rebuild.store.pair_id(source, target)
        if (
            pair is None
            or abs(score - best) > atol
            or abs(float(expected.scores[pair]) - best) > atol
        ):
            wrong.append(str(source))
    return sorted(set(wrong))


# -- shared set-up -----------------------------------------------------------------


@dataclass
class MatcherState:
    task: Any
    artifacts: Any
    config: Any
    matcher: Any = None

    def close(self) -> None:
        if self.matcher is not None:
            self.matcher.close()


def prepare(ctx: Context, tag: str, dataset: str, with_matcher: bool) -> MatcherState:
    """Fresh store, warm vertical artefacts and (optionally) the matcher."""
    from repro.core import ArtifactConfig, LearnedSchemaMatcher, build_artifacts
    from repro.datasets import load_dataset
    from repro.eval.experiments import experiment_lsm_config

    ctx.fresh_store(tag)
    task = load_dataset(dataset)
    artifacts = build_artifacts(task.target, config=ArtifactConfig())
    config = experiment_lsm_config(task, seed=vertical.VERTICAL_SEED)
    state = MatcherState(task, artifacts, config)
    if with_matcher:
        state.matcher = LearnedSchemaMatcher(
            task.source, task.target, config=config, artifacts=artifacts
        )
    return state


# -- session_c ---------------------------------------------------------------------


def run_session(ctx: Context) -> Outcome:
    """Paper Fig. 9: one full interactive session of customer C."""
    from repro.core import GroundTruthOracle, MatchingSession
    from repro.datasets import load_dataset

    load_dataset("customer_c")  # the input schema, generated before set-up timing
    state, setup_s = timed_setups(
        ctx, lambda c, tag: prepare(c, tag, "customer_c", with_matcher=True)
    )
    matcher, task = state.matcher, state.task
    oracle = GroundTruthOracle(task.ground_truth, task.target, seed=vertical.VERTICAL_SEED)
    before = numeric(matcher.metrics.as_dict())
    store_before = store_snapshot()
    try:
        with ctx.timed():
            result = MatchingSession(matcher, oracle).run()
        after = numeric(matcher.metrics.as_dict())
    finally:
        matcher.close()
    counts = matcher_counts(delta(before, after), after)
    counts.update(store_counts(store_before))
    counts["session.labels_used"] = float(result.total_labels)

    errors = []
    expected = task.source.num_attributes
    correct = result.records[-1].matched_correct if result.records else 0
    if not result.completed or correct != expected:
        errors.append(
            f"session ended with {correct}/{expected} correct matches "
            f"(completed={result.completed})"
        )
    return Outcome(
        samples_ms=[1000.0 * record.response_seconds for record in result.records],
        setup_s=setup_s,
        attempted=len(result.records),
        failed=0 if result.completed else 1,
        errors=errors,
        counts=counts,
        info={
            "iterations": len(result.records),
            "labels_used": result.total_labels,
            "matched_correct": correct,
        },
    )


# -- onboard_e ---------------------------------------------------------------------


def run_onboard(ctx: Context) -> Outcome:
    """A new customer's wait for first suggestions (customer E, no labels)."""
    from repro.core import LearnedSchemaMatcher
    from repro.datasets import load_dataset
    from repro.eval.metrics import predictions_top_k_accuracy

    load_dataset("customer_e")  # the input schema, generated before set-up timing
    state, setup_s = timed_setups(
        ctx, lambda c, tag: prepare(c, tag, "customer_e", with_matcher=False)
    )
    task = state.task
    store_before = store_snapshot()
    with ctx.timed():
        started = time.perf_counter()
        matcher = LearnedSchemaMatcher(
            task.source, task.target, config=state.config, artifacts=state.artifacts
        )
        predictions = matcher.predict()
        waited = time.perf_counter() - started
    try:
        after = numeric(matcher.metrics.as_dict())
    finally:
        matcher.close()
    counts = matcher_counts(after, after)
    counts.update(store_counts(store_before))
    accuracy = predictions_top_k_accuracy(predictions, task.ground_truth, 1)
    counts["quality.top1_acc"] = accuracy

    errors = []
    sources = set(task.source.attribute_refs())
    if set(predictions.suggestions) != sources:
        errors.append("first predict() does not cover every source attribute")
    for source, ranked in predictions.suggestions.items():
        scores = [score for _, score in ranked]
        if not ranked or not np.all(np.isfinite(scores)) or scores != sorted(scores, reverse=True):
            errors.append(f"suggestions for {source} are empty, non-finite or unsorted")
            break
    return Outcome(
        samples_ms=[1000.0 * waited],
        setup_s=setup_s,
        attempted=1,
        failed=0,
        errors=errors,
        counts=counts,
        info={
            "sources": len(sources),
            "pairs": int(after.get("retrieval.pairs_after_pruning", 0)),
            "top1_acc": accuracy,
        },
    )


# -- drift_c -----------------------------------------------------------------------


def run_drift(ctx: Context) -> Outcome:
    """Schema writes beside reads: 100 generated deltas on customer C."""
    from repro.core import LearnedSchemaMatcher
    from repro.datasets import load_dataset

    deltas = inputs.drift_script(load_dataset("customer_c").source, ctx.seed)
    state, setup_s = timed_setups(
        ctx, lambda c, tag: prepare(c, tag, "customer_c", with_matcher=True)
    )
    matcher = state.matcher
    samples: list[float] = []
    try:
        matcher.predict()  # untimed: the session's first suggestions
        before = numeric(matcher.metrics.as_dict())
        store_before = store_snapshot()
        with ctx.timed():
            for change in deltas:
                started = time.perf_counter()
                matcher.apply_delta(change)
                predictions = matcher.predict()
                samples.append(1000.0 * (time.perf_counter() - started))
        after = numeric(matcher.metrics.as_dict())
        counts = matcher_counts(delta(before, after), after)
        counts.update(store_counts(store_before))
        evolved = matcher.source_schema
    finally:
        matcher.close()

    # A from-scratch rebuild over the evolved schema, in its own fresh store
    # so no persisted score block is shared with the incremental path.
    ctx.fresh_store("rebuild")
    rebuild = LearnedSchemaMatcher(
        evolved, state.task.target, config=state.config, artifacts=state.artifacts
    )
    try:
        differing = top1_disagreements(predictions, rebuild, rebuild.predict())
    finally:
        rebuild.close()
    errors = []
    if differing:
        errors.append(
            f"{len(differing)} sources' top-1 differ from a rebuild, e.g. {differing[:3]}"
        )
    return Outcome(
        samples_ms=samples,
        setup_s=setup_s,
        attempted=len(deltas),
        failed=0,
        errors=errors,
        counts=counts,
        info={
            "deltas": len(deltas),
            "ops": sum(len(change) for change in deltas),
            "sources_after": evolved.num_attributes,
        },
    )


# -- serve_ladder ------------------------------------------------------------------


class IdleTimingSelector(selectors.DefaultSelector):
    """Selector that sums the time the event loop spent waiting in ``select``."""

    def __init__(self) -> None:
        super().__init__()
        self.idle_s = 0.0

    def select(self, timeout=None):
        started = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle_s += time.perf_counter() - started


@dataclass
class ServeState:
    candidates: list
    tenants: list[tuple[Any, Any]]
    special_ids: list[int]
    service: Any
    #: Resident model key -> (model params, classifier params) at publish.
    weights: dict[str, tuple[dict, dict]] = field(default_factory=dict)

    def publish(self, tenant: int) -> str:
        model, classifier = self.tenants[tenant]
        key = self.service.publish(f"t{tenant}", model, classifier, self.special_ids)
        self.weights[key] = (
            {name: p.value for name, p in model.parameters().items()},
            {name: p.value for name, p in classifier.parameters().items()},
        )
        return key

    def close(self) -> None:
        self.service.backend.close()
        self.service.residency.close()


def prepare_serve(ctx: Context, tag: str) -> ServeState:
    """Tenants holding the pretrained MiniBERT; customer C's candidate pairs."""
    from repro.serve import ServeService

    state = prepare(ctx, tag, "customer_c", with_matcher=True)
    matcher = state.matcher
    try:
        tokenizer = state.artifacts.tokenizer
        max_length = state.config.bert.max_length
        candidates = [
            tokenizer.encode_attribute_pair(
                view.source_name,
                view.source_description,
                view.target_name,
                view.target_description,
                max_length=max_length,
            )
            for view in matcher.store.views(range(matcher.store.num_pairs))
        ]
        featurizer = matcher.bert_featurizer
        tenants = [
            (copy.deepcopy(featurizer.model), copy.deepcopy(featurizer.classifier))
            for _ in range(inputs.SERVE_TENANTS)
        ]
        special_ids = sorted(tokenizer.vocab.special_ids())
    finally:
        matcher.close()
    serve = ServeState(candidates, tenants, special_ids, ServeService())
    for tenant in range(inputs.SERVE_TENANTS):
        serve.publish(tenant)
    return serve


@dataclass
class Request:
    rung: int
    due: float
    model_key: str
    pair_indices: tuple[int, ...]
    done: float | None = None
    scores: Any = None
    error: str | None = None


async def drive_ladder(ctx: Context, state: ServeState, rungs: list[inputs.Rung]):
    """One asyncio task: open-loop arrivals and hot-swaps, rung after rung."""
    from repro.serve import AdmissionError
    from repro.serve.load import apply_swap

    service = state.service
    loop = asyncio.get_running_loop()
    requests: list[Request] = []
    late: list[float] = []

    def finished(request: Request, future: asyncio.Future) -> None:
        request.done = loop.time()
        if future.exception() is not None:
            request.error = str(future.exception())
        else:
            request.scores = future.result()

    async with service:
        handles = [
            service.open_session(f"t{inputs.session_tenant(session)}")
            for session in range(inputs.SERVE_SESSIONS)
        ]
        for rung_index, rung in enumerate(rungs):
            events = sorted(
                [(a.offset_s, 1, a) for a in rung.arrivals]
                + [(s.offset_s, 0, s) for s in rung.swaps],
                key=lambda event: (event[0], event[1]),
            )
            futures = []
            start = loop.time() + 0.01
            for offset, _kind, event in events:
                due = start + offset
                wait = due - loop.time()
                if wait > 0:
                    await asyncio.sleep(wait)
                with ctx.span("loadgen", "loadgen.event"):
                    late.append(loop.time() - due)
                    if isinstance(event, inputs.Swap):
                        model, classifier = state.tenants[event.tenant]
                        apply_swap(model, classifier, event.swap_seed)
                        state.publish(event.tenant)
                        continue
                    handle = handles[event.session]
                    request = Request(
                        rung=rung_index,
                        due=due,
                        model_key=service.residency.latest_key(handle.tenant),
                        pair_indices=event.pair_indices,
                    )
                    requests.append(request)
                    pairs = [state.candidates[i] for i in event.pair_indices]
                    try:
                        future = service.submit_nowait(handle, pairs)
                    except AdmissionError as exc:
                        request.done, request.error = loop.time(), str(exc)
                        continue
                    future.add_done_callback(lambda f, r=request: finished(r, f))
                    futures.append(future)
            await asyncio.gather(*futures, return_exceptions=True)
        metrics = service.metrics_snapshot()
        for handle in handles:
            service.close_session(handle)
    return requests, late, metrics


def rescore_deviation(state: ServeState, requests: list[Request]) -> tuple[float, int]:
    """Re-score every :data:`RESCORE_EVERY`-th request with its pinned weights."""
    from repro.engine.batching import plan_microbatches
    from repro.featurizers.bert import score_encoded_batch

    references: dict[str, tuple[Any, Any]] = {}
    worst = 0.0
    checked = 0
    for request in requests[::RESCORE_EVERY]:
        if request.scores is None:
            continue
        if request.model_key not in references:
            tenant = int(request.model_key.split("@")[0][1:])
            model, classifier = (copy.deepcopy(m) for m in state.tenants[tenant])
            model_params, classifier_params = state.weights[request.model_key]
            for module, params in ((model, model_params), (classifier, classifier_params)):
                for name, parameter in module.parameters().items():
                    parameter.value = params[name]
            references[request.model_key] = (model, classifier)
        model, classifier = references[request.model_key]
        pairs = [state.candidates[i] for i in request.pair_indices]
        expected = np.empty(len(pairs))
        for microbatch in plan_microbatches(pairs):
            expected[list(microbatch.indices)] = score_encoded_batch(
                model, classifier, state.special_ids, microbatch.batch
            )
        worst = max(worst, float(np.max(np.abs(np.asarray(request.scores) - expected))))
        checked += 1
    return worst, checked


def run_serve(ctx: Context) -> Outcome:
    """Open-loop Poisson ladder into ``ServeService`` with periodic hot-swaps."""
    state, setup_s = timed_setups(ctx, prepare_serve)
    rungs = inputs.serve_ladder(ctx.seed, ctx.seconds, len(state.candidates))
    selector = IdleTimingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    try:
        with ctx.timed():
            requests, late, metrics = loop.run_until_complete(drive_ladder(ctx, state, rungs))
    finally:
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        state.close()

    per_rung = []
    for index, rung in enumerate(rungs):
        mine = [r for r in requests if r.rung == index]
        ok = [1000.0 * (r.done - r.due) for r in mine if r.error is None]
        last = max((r.done for r in mine), default=0.0)
        per_rung.append(
            {
                "rate": rung.rate,
                "seconds": rung.duration_s,
                "requests": len(mine),
                "failed": sum(r.error is not None for r in mine),
                "p50_ms": float(np.percentile(ok, 50)) if ok else None,
                "p99_ms": float(np.percentile(ok, 99)) if ok else None,
                "mean_ms": float(np.mean(ok)) if ok else None,
                "drain_s": last - max((r.due for r in mine), default=last),
            }
        )
    main = inputs.SERVE_RATES.index(inputs.SERVE_MAIN_RATE)
    samples = [1000.0 * (r.done - r.due) for r in requests if r.rung == main and r.error is None]
    failed = sum(r.error is not None for r in requests)
    worst, checked = rescore_deviation(state, requests)

    errors = []
    if failed:
        first = next(r.error for r in requests if r.error is not None)
        errors.append(f"{failed} serve requests failed or were refused, e.g. {first}")
    if worst > RESCORE_ATOL:
        errors.append(f"re-scored deviation {worst:.3g} exceeds {RESCORE_ATOL:g}")
    if checked == 0:
        errors.append("no request was re-scored")

    get = lambda key: float(metrics.get(key, 0.0))  # noqa: E731
    counts = {
        "serve.queue_wait_p50_ms": get("serve.queue_wait_p50_ms"),
        "serve.queue_wait_p99_ms": get("serve.queue_wait_p99_ms"),
        "serve.batches": get("serve.batches"),
        "serve.batch_pairs_mean": ratio(get("serve.pairs_scored"), get("serve.batches")),
        "serve.coalesce_ratio": get("serve.coalesce_ratio"),
        "serve.rejected": get("serve.requests_rejected") + get("serve.sessions_rejected"),
        # Publishes during the ladder; the tenants' first publishes are set-up.
        "residency.publishes": get("residency.published") - inputs.SERVE_TENANTS,
        "residency.evictions_refused": get("residency.eviction_refusals"),
        "loadgen.max_late_ms": 1000.0 * max(late, default=0.0),
    }
    return Outcome(
        samples_ms=samples,
        setup_s=setup_s,
        attempted=len(requests),
        failed=failed,
        errors=errors,
        counts=counts,
        idle_s=selector.idle_s,
        info={
            "rungs": per_rung,
            "swaps": sum(len(rung.swaps) for rung in rungs),
            "rescored_requests": checked,
            "rescore_max_deviation": worst,
            "candidates": len(state.candidates),
        },
    )


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "session_c": run_session,
    "onboard_e": run_onboard,
    "drift_c": run_drift,
    "serve_ladder": run_serve,
}
