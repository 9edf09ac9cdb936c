"""Deterministic load scripts: generate, replay coalesced, replay sequential.

The serving bench (``benchmarks/test_serve_load.py``), the coalescing
parity suite and ``repro serve stats`` all need the *same* reproducible
workload: hundreds of small score requests interleaved across sessions and
tenants, with optional mid-run hot-swaps.  A :class:`LoadScript` is that
workload as data -- every request's pairs and every swap's weight mutation
derive from the script seed alone, so two independent replays (or a replay
against a sequential re-scoring) see bit-identical inputs.

Two replay modes share the script:

* :func:`replay_sequential` -- the per-session baseline: each request is
  planned and scored on its own, in event order, against the tenant's
  weights as of that event.  No coalescing, no service; this is what a
  single-session engine would do N times.
* :func:`replay_coalesced` -- the real thing: requests are submitted to a
  :class:`~repro.serve.service.ServeService` in event order (submission is
  synchronous, so version-at-submit matches the sequential replay exactly)
  and the scheduler coalesces them across sessions.

Parity between the two is the correctness gate: same scores to 1e-8.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from ..engine.batching import plan_microbatches
from ..featurizers.bert import MatchingClassifier, score_encoded_batch
from ..lm.bert import MiniBert
from ..lm.config import BertConfig
from ..lm.tokenizer import EncodedPair
from .service import ServeConfig, ServeService

#: Tokenizer-style padded width of every scripted pair (trimmed per bucket).
MAX_LENGTH = 48
#: Token-id range of scripted pairs (clear of the special ids 0..4).
_TOKEN_LOW, _TOKEN_HIGH = 5, 90
SPECIAL_IDS = [0, 1, 2, 3, 4]


@dataclass(frozen=True)
class LoadEvent:
    """One scripted action: a session submit or a tenant hot-swap."""

    kind: str  # "submit" | "swap"
    tenant: int
    session: int = -1
    request_index: int = -1
    swap_seed: int = -1


@dataclass
class LoadScript:
    """A reproducible interleaved workload over sessions and tenants."""

    seed: int
    n_tenants: int
    n_sessions: int
    min_pairs: int
    max_pairs: int
    #: Upper bound (exclusive) on the unpadded token length of a pair.
    max_length: int = MAX_LENGTH - 6
    events: list[LoadEvent] = field(default_factory=list)

    def session_tenant(self, session: int) -> int:
        return session % self.n_tenants

    @property
    def n_requests(self) -> int:
        return sum(1 for event in self.events if event.kind == "submit")

    @property
    def n_swaps(self) -> int:
        return sum(1 for event in self.events if event.kind == "swap")

    def requests_per_session(self) -> int:
        counts: dict[int, int] = {}
        for event in self.events:
            if event.kind == "submit":
                counts[event.session] = counts.get(event.session, 0) + 1
        return max(counts.values()) if counts else 0


def make_script(
    seed: int = 0,
    n_tenants: int = 2,
    n_sessions: int = 16,
    n_requests: int = 240,
    min_pairs: int = 2,
    max_pairs: int = 6,
    max_length: int = MAX_LENGTH - 6,
    swap_every: int | None = None,
) -> LoadScript:
    """Build an interleaved script: round-robin sessions, shuffled per round.

    ``swap_every`` inserts a hot-swap of the next tenant (cycling) after
    every that many submit events.
    """
    if n_sessions < 1 or n_tenants < 1 or n_requests < 1:
        raise ValueError("need at least one tenant, session and request")
    if not 6 < max_length <= MAX_LENGTH:
        raise ValueError(f"need 6 < max_length <= {MAX_LENGTH}")
    rng = np.random.default_rng(seed)
    script = LoadScript(
        seed=seed,
        n_tenants=n_tenants,
        n_sessions=n_sessions,
        min_pairs=min_pairs,
        max_pairs=max_pairs,
        max_length=max_length,
    )
    next_request_index = [0] * n_sessions
    swap_tenant = 0
    submitted = 0
    while submitted < n_requests:
        # One round: every session submits once, in a shuffled order --
        # maximal interleaving, still fully deterministic.
        order = rng.permutation(n_sessions)
        for session in order:
            if submitted >= n_requests:
                break
            session = int(session)
            script.events.append(
                LoadEvent(
                    kind="submit",
                    tenant=script.session_tenant(session),
                    session=session,
                    request_index=next_request_index[session],
                )
            )
            next_request_index[session] += 1
            submitted += 1
            if swap_every and submitted % swap_every == 0:
                script.events.append(
                    LoadEvent(
                        kind="swap",
                        tenant=swap_tenant % n_tenants,
                        swap_seed=1000 + submitted,
                    )
                )
                swap_tenant += 1
    return script


def request_pairs(script: LoadScript, event: LoadEvent) -> list[EncodedPair]:
    """The deterministic encoded pairs of one submit event."""
    rng = np.random.default_rng([script.seed, event.session, event.request_index])
    count = int(rng.integers(script.min_pairs, script.max_pairs + 1))
    pairs = []
    for _ in range(count):
        length = int(rng.integers(6, script.max_length))
        input_ids = np.zeros(MAX_LENGTH, dtype=np.int64)
        input_ids[:length] = rng.integers(_TOKEN_LOW, _TOKEN_HIGH, size=length)
        attention = np.zeros(MAX_LENGTH, dtype=np.int64)
        attention[:length] = 1
        segment = np.zeros(MAX_LENGTH, dtype=np.int64)
        segment[length // 2 : length] = 1
        pairs.append(
            EncodedPair(
                input_ids=input_ids,
                segment_ids=segment,
                attention_mask=attention,
                # Precomputed so scheduler/replay bucket planning skips the
                # per-pair attention_mask.sum() (see encoded_length).
                length=length,
            )
        )
    return pairs


def build_tenant_stack(script: LoadScript, tenant: int):
    """One tenant's tiny serving stack, derived from the script seed.

    Deliberately thin (hidden 16): interactive serving traffic is dominated
    by per-request overhead, which is exactly what coalescing amortises.
    """
    model = MiniBert(
        BertConfig(
            vocab_size=100,
            hidden_size=16,
            num_layers=2,
            num_heads=2,
            intermediate_size=32,
            max_position=MAX_LENGTH,
        ),
        seed=script.seed + 7 * tenant + 1,
    )
    model.eval()
    classifier = MatchingClassifier(
        16, 16, np.random.default_rng(script.seed + 1000 + tenant)
    )
    classifier.eval()
    return model, classifier, list(SPECIAL_IDS)


def apply_swap(model, classifier, swap_seed: int) -> None:
    """Deterministically perturb a tenant's live weights (a fine-tune step)."""
    rng = np.random.default_rng(swap_seed)
    for module in (model, classifier):
        for parameter in module.parameters().values():
            noise = 0.001 * rng.standard_normal(parameter.value.shape)
            parameter.value = parameter.value + noise.astype(parameter.value.dtype)


#: A replayed request's identity: (session index, per-session request index).
RequestKey = tuple[int, int]


@dataclass
class ReplayResult:
    """Scores and wall-clock of one replay of a script."""

    scores: dict[RequestKey, np.ndarray]
    seconds: float
    metrics: dict[str, object] = field(default_factory=dict)


def replay_sequential(script: LoadScript) -> ReplayResult:
    """Per-session sequential baseline: plan + score each request alone."""
    stacks = {
        tenant: build_tenant_stack(script, tenant)
        for tenant in range(script.n_tenants)
    }
    scores: dict[RequestKey, np.ndarray] = {}
    started = time.perf_counter()
    for event in script.events:
        if event.kind == "swap":
            model, classifier, _ = stacks[event.tenant]
            apply_swap(model, classifier, event.swap_seed)
            continue
        model, classifier, special_ids = stacks[event.tenant]
        pairs = request_pairs(script, event)
        plan = plan_microbatches(pairs)
        flat = np.empty(len(pairs), dtype=np.float64)
        for microbatch in plan:
            batch_scores = score_encoded_batch(
                model, classifier, special_ids, microbatch.batch
            )
            for position, score in zip(microbatch.indices, batch_scores):
                flat[position] = float(score)
        scores[(event.session, event.request_index)] = flat
    return ReplayResult(scores=scores, seconds=time.perf_counter() - started)


async def _replay_on_service(
    script: LoadScript, service: ServeService
) -> ReplayResult:
    stacks = {
        tenant: build_tenant_stack(script, tenant)
        for tenant in range(script.n_tenants)
    }
    for tenant, (model, classifier, special_ids) in stacks.items():
        service.register_tenant(f"t{tenant}", model, classifier, special_ids)
    async with service:
        handles = {
            session: service.open_session(f"t{script.session_tenant(session)}")
            for session in range(script.n_sessions)
        }
        futures: dict[RequestKey, asyncio.Future] = {}
        started = time.perf_counter()
        for event in script.events:
            if event.kind == "swap":
                model, classifier, special_ids = stacks[event.tenant]
                apply_swap(model, classifier, event.swap_seed)
                service.publish(f"t{event.tenant}", model, classifier, special_ids)
                continue
            futures[(event.session, event.request_index)] = service.submit_nowait(
                handles[event.session], request_pairs(script, event)
            )
            # Yield so the scheduler loop interleaves batch execution with
            # submission -- the replay exercises live queue dynamics, not
            # one giant afterwards-drained burst.
            await asyncio.sleep(0)
        # End of stream: drain the tail instead of idling out its deadline.
        await service.flush()
        results = await asyncio.gather(*futures.values())
        seconds = time.perf_counter() - started
        for handle in handles.values():
            service.close_session(handle)
        metrics = service.metrics_snapshot()
    return ReplayResult(
        scores={key: np.asarray(value) for key, value in zip(futures, results)},
        seconds=seconds,
        metrics=metrics,
    )


def replay_coalesced(
    script: LoadScript,
    config: ServeConfig | None = None,
    backend=None,
) -> ReplayResult:
    """Replay the script through a :class:`ServeService` (fresh event loop)."""
    if config is None:
        config = ServeConfig(
            max_sessions=max(64, script.n_sessions),
            max_inflight_per_session=max(16, script.requests_per_session()),
        )
    service = ServeService(config, backend=backend)
    return asyncio.run(_replay_on_service(script, service))
