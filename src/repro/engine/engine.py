"""The batched, parallel, incremental scoring engine.

``ScoringEngine`` owns the hot path of BERT featurization: given a list of
encoded candidate pairs it

1. **fingerprints** each pair (a content hash of its token/segment arrays)
   and serves every pair already scored under the current model version from
   an in-memory cache -- after a ``predict()`` that changed nothing, zero
   encoder work happens;
2. plans the remaining pairs into **length-bucketed micro-batches**
   (:mod:`repro.engine.batching`) so short names stop paying the padding
   cost of long descriptions;
3. executes the plan down a **serving ladder** -- the persistent
   shared-memory pool (:mod:`repro.engine.shm`: weights hot-swapped through
   a versioned arena, workers spawned once per session), then the
   pickle-payload pool (:mod:`repro.engine.executor`), then in-process --
   falling one rung at a time whenever a rung is unavailable, fails, or the
   batch is too small to amortise IPC;
4. **persists score blocks** through :mod:`repro.store`, keyed by the exact
   model weights, so re-running an experiment skips straight to cached
   scores across processes.

Model updates call :meth:`ScoringEngine.invalidate_model`; that bumps the
version and drops stale scores.  With the serving plane live the new
weights are hot-published into the shared-memory arena immediately -- the
pool survives and workers re-bind views on their next task; only the
fallback pickle pool still pays a teardown + respawn per version.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..lm.tokenizer import EncodedPair
from . import shm
from .batching import MicroBatch, plan_bucket_chunks, plan_microbatches, plan_num_buckets
from .executor import MicroBatchExecutor, make_worker_payload
from .stats import EngineStats

#: Bytes of one pair fingerprint (blake2b digest size).
FINGERPRINT_BYTES = 16


@dataclass
class EngineConfig:
    """Knobs of the scoring engine (exposed on :class:`repro.core.config.LsmConfig`).

    Attributes
    ----------
    microbatch_size:
        Maximum rows per micro-batch.
    bucket_granularity:
        Padded lengths are rounded up to a multiple of this; 1 packs each
        exact length separately, larger values trade padding for fewer,
        fuller batches.
    n_workers:
        Worker processes for parallel scoring; 0 scores in-process.
    min_pairs_for_workers:
        Below this many dirty pairs the pool is skipped -- IPC would cost
        more than the forward passes save.
    persist_scores:
        Persist/load score blocks through :mod:`repro.store`, keyed by the
        exact model weights and pair contents.
    start_method:
        Multiprocessing start method; ``spawn`` is safe everywhere.
    use_shm:
        Serve from the persistent shared-memory plane when available
        (:mod:`repro.engine.shm`): workers spawn once per session and weight
        updates hot-swap through the arena instead of respawning the pool.
        ``False`` (or ``REPRO_DISABLE_SHM=1``) drops straight to the
        pickle-payload pool.
    shm_scratch_min_bytes:
        Plans whose input arrays total at least this many bytes travel
        through the reusable shared-memory scratch region instead of being
        pickled per task.
    pool_retry_cooldown / pool_max_failures:
        Bounded-retry policy for pool creation (both rungs): after a
        failure, skip this many eligible scoring calls before re-attempting,
        giving up for good after ``pool_max_failures`` consecutive failures.
    """

    microbatch_size: int = 64
    bucket_granularity: int = 8
    n_workers: int = 0
    min_pairs_for_workers: int = 64
    persist_scores: bool = True
    start_method: str = "spawn"
    use_shm: bool = True
    shm_scratch_min_bytes: int = 1 << 18
    pool_retry_cooldown: int = 8
    pool_max_failures: int = 3

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if self.bucket_granularity < 1:
            raise ValueError("bucket_granularity must be >= 1")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        if self.shm_scratch_min_bytes < 0:
            raise ValueError("shm_scratch_min_bytes must be >= 0")
        if self.pool_retry_cooldown < 0:
            raise ValueError("pool_retry_cooldown must be >= 0")
        if self.pool_max_failures < 1:
            raise ValueError("pool_max_failures must be >= 1")


def fingerprint_encoded(pair: EncodedPair) -> bytes:
    """Content hash of one encoded pair's model-visible arrays."""
    digest = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
    digest.update(np.ascontiguousarray(pair.input_ids).tobytes())
    digest.update(b"\x00")
    digest.update(np.ascontiguousarray(pair.segment_ids).tobytes())
    return digest.digest()


class ScoringEngine:
    """Batched/parallel/incremental scorer over (MiniBERT, matching classifier)."""

    def __init__(
        self,
        model,
        classifier,
        special_ids: Sequence[int],
        config: EngineConfig | None = None,
        cache_token: str | None = None,
    ) -> None:
        self.model = model
        self.classifier = classifier
        self.special_ids = sorted(special_ids)
        self.config = config or EngineConfig()
        #: Namespacing token for persisted score blocks (typically the
        #: artifact cache key); ``None`` plus ``persist_scores=True`` still
        #: persists, keyed purely by the model weights.
        self.cache_token = cache_token
        self.stats = EngineStats()
        self._version = 0
        self._scores: dict[bytes, float] = {}
        self._weights_key: str | None = None
        self._persisted_loaded = False
        self._executor = MicroBatchExecutor(
            self.config.n_workers,
            self.config.start_method,
            retry_cooldown=self.config.pool_retry_cooldown,
            max_pool_failures=self.config.pool_max_failures,
        )
        #: Top rung of the serving ladder; ``None`` when shm is disabled or
        #: unavailable, in which case scoring starts at the pickle pool.
        self._plane: shm.ShmServingPlane | None = None
        if (
            self.config.use_shm
            and self.config.n_workers > 0
            and shm.shared_memory_available()
        ):
            self._plane = shm.ShmServingPlane(
                n_workers=self.config.n_workers,
                start_method=self.config.start_method,
                bootstrap_extra={
                    "bert_config": self.model.config.to_dict(),
                    "hidden_size": self.model.config.hidden_size,
                    "classifier_size": self.classifier.output.weight.value.shape[0],
                    "special_ids": self.special_ids,
                },
                scratch_min_bytes=self.config.shm_scratch_min_bytes,
                retry_cooldown=self.config.pool_retry_cooldown,
                max_pool_failures=self.config.pool_max_failures,
            )

    # -- model versioning --------------------------------------------------------

    @property
    def model_version(self) -> int:
        return self._version

    def invalidate_model(self) -> None:
        """Signal that model/classifier weights changed: cached scores are stale.

        With a live serving plane the new weights are hot-published into the
        shared-memory arena right here, so the persistent pool's workers
        swap versions on their next task and the first post-update scoring
        call pays no publish latency -- the pool is never torn down.
        """
        self._version += 1
        self._scores.clear()
        self._weights_key = None
        self._persisted_loaded = False
        self.stats.invalidations += 1
        if self._plane is not None and self._plane.pool_active:
            self._plane.publish(self._weight_tensors, self._version, self.stats)

    def _weight_tensors(self) -> list[tuple[str, np.ndarray]]:
        """Prefixed flat walk of the live weights, for arena publishes."""
        from ..nn.serialize import flat_tensors

        return [
            (f"model.{name}", array) for name, array in flat_tensors(self.model)
        ] + [
            (f"classifier.{name}", array)
            for name, array in flat_tensors(self.classifier)
        ]

    def clear_cached_scores(self) -> None:
        """Drop cached scores without bumping the model version (testing aid)."""
        self._scores.clear()
        self._persisted_loaded = False

    def _current_weights_key(self) -> str:
        """Content hash of the live model + classifier weights."""
        if self._weights_key is None:
            digest = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
            parameters = {
                **self.model.parameters("model."),
                **self.classifier.parameters("classifier."),
            }
            for name in sorted(parameters):
                digest.update(name.encode("utf-8"))
                digest.update(np.ascontiguousarray(parameters[name].value).tobytes())
            self._weights_key = digest.hexdigest()
        return self._weights_key

    # -- persistence -------------------------------------------------------------

    def _store_key(self) -> str:
        from .. import store

        # Blocks are keyed by the weights, not by the forward's arithmetic:
        # bump the namespace whenever a kernel change moves float32 rounding,
        # or a store would mix old- and new-rounding scores for one model.
        return store.content_key(
            "engine-scores-v2", self.cache_token or "", self._current_weights_key()
        )

    def _load_persisted(self) -> None:
        if self._persisted_loaded or not self.config.persist_scores:
            return
        self._persisted_loaded = True
        from .. import store

        with self.stats.timer("persist_load"):
            block = store.load_arrays("engine-scores", self._store_key())
        if block is None:
            return
        fingerprints = block.get("fingerprints")
        scores = block.get("scores")
        if fingerprints is None or scores is None or len(fingerprints) != len(scores):
            return
        for fingerprint, score in zip(fingerprints, scores):
            self._scores.setdefault(bytes(fingerprint), float(score))
        self.stats.pairs_persisted_hits += len(scores)

    def _save_persisted(self) -> None:
        if not self.config.persist_scores or not self._scores:
            return
        from .. import store

        with self.stats.timer("persist_save"):
            fingerprints = np.frombuffer(
                b"".join(self._scores.keys()), dtype=np.uint8
            ).reshape(len(self._scores), FINGERPRINT_BYTES)
            scores = np.fromiter(
                self._scores.values(), dtype=np.float64, count=len(self._scores)
            )
            store.save_arrays(
                "engine-scores",
                self._store_key(),
                {"fingerprints": fingerprints, "scores": scores},
            )

    # -- scoring -----------------------------------------------------------------

    def _score_plan_inprocess(self, plan) -> list[np.ndarray]:
        from ..featurizers.bert import score_encoded_batch

        results = []
        for microbatch in plan:
            with self.stats.timer("forward"):
                results.append(
                    score_encoded_batch(
                        self.model, self.classifier, self.special_ids, microbatch.batch
                    )
                )
            self.stats.inprocess_batches += 1
        return results

    def _score_plan(self, plan) -> list[np.ndarray]:
        """Execute a plan down the serving ladder.

        Rung 1 is the persistent shared-memory pool (weights hot-swapped,
        never respawned), rung 2 the pickle-payload pool (respawned per
        model version), rung 3 in-process scoring.  Each rung is
        best-effort: any failure falls to the next, preserving parity.
        """
        total_pairs = sum(len(microbatch.indices) for microbatch in plan)
        eligible = (
            self.config.n_workers > 0
            and len(plan) > 1
            and total_pairs >= self.config.min_pairs_for_workers
        )
        if eligible:
            results = self._score_plan_shm(plan)
            if results is not None:
                self.stats.worker_batches += len(plan)
                self.stats.shm_batches += len(plan)
                return results
            results = self._score_plan_pool(plan)
            if results is not None:
                self.stats.worker_batches += len(plan)
                return results
            self.stats.worker_fallbacks += 1
        return self._score_plan_inprocess(plan)

    def _score_plan_shm(self, plan) -> list[np.ndarray] | None:
        """Rung 1: the persistent shared-memory serving plane."""
        if self._plane is None or not self._plane.usable:
            return None
        results = self._plane.score(
            plan, self._version, self._weight_tensors, self.stats
        )
        if results is None:
            self.stats.shm_fallbacks += 1
        return results

    def _score_plan_pool(self, plan) -> list[np.ndarray] | None:
        """Rung 2: the pickle-payload pool (full respawn per model version).

        The payload factory is only invoked when the pool actually has to be
        (re)built -- steady-state calls at an unchanged version skip the
        state-dict pickling entirely.
        """
        if not self._executor.available:
            return None
        with self.stats.timer("dispatch"):
            ready = self._executor.ensure_pool(
                lambda: make_worker_payload(
                    self.model, self.classifier, self.special_ids
                ),
                self._version,
            )
        if not ready:
            return None
        with self.stats.timer("forward"):
            return self._executor.map(plan)

    def score_plan(self, plan) -> list[np.ndarray]:
        """Score an externally formed micro-batch plan down the serving ladder.

        The multi-tenant serving front end (:mod:`repro.serve`) coalesces
        pairs from *different* sessions into one plan before it reaches the
        engine, so the engine cannot fingerprint-cache or re-plan here: the
        caller owns request/result routing and cache policy.  Each returned
        array is positionally aligned with ``plan``.
        """
        self.model.eval()
        self.classifier.eval()
        self.stats.microbatches += len(plan)
        self.stats.buckets += plan_num_buckets(plan)
        self.stats.pairs_scored += sum(len(mb.indices) for mb in plan)
        return self._score_plan(plan)

    def score_encoded(self, encoded: list[EncodedPair]) -> np.ndarray:
        """Scores in [0, 1] for ``encoded``, reusing everything reusable."""
        self.stats.scoring_calls += 1
        count = len(encoded)
        self.stats.pairs_requested += count
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        with obs.span(
            "engine.score", pairs=count, version=self._version
        ) as score_span:
            self.model.eval()
            self.classifier.eval()

            with self.stats.timer("fingerprint"):
                fingerprints = [fingerprint_encoded(pair) for pair in encoded]
            self._load_persisted()

            scores = np.empty(count, dtype=np.float64)
            dirty: list[int] = []
            for index, fingerprint in enumerate(fingerprints):
                cached = self._scores.get(fingerprint)
                if cached is None:
                    dirty.append(index)
                else:
                    scores[index] = cached
            self.stats.pairs_skipped += count - len(dirty)
            self.stats.pairs_scored += len(dirty)
            score_span.set(dirty=len(dirty), skipped=count - len(dirty))

            if dirty:
                with self.stats.timer("bucket"):
                    plan = plan_microbatches(
                        [encoded[i] for i in dirty],
                        microbatch_size=self.config.microbatch_size,
                        bucket_granularity=self.config.bucket_granularity,
                    )
                self.stats.buckets += plan_num_buckets(plan)
                self.stats.microbatches += len(plan)
                score_span.set(microbatches=len(plan))
                results = self._score_plan(plan)
                for microbatch, probabilities in zip(plan, results):
                    for position, probability in zip(microbatch.indices, probabilities):
                        index = dirty[position]
                        value = float(probability)
                        scores[index] = value
                        self._scores[fingerprints[index]] = value
                self._save_persisted()
        return scores

    def score_halves(self, halves, plane) -> np.ndarray:
        """Scores for pairs given as cached halves, assembled zero-copy.

        The encode-plane fast path of :meth:`score_encoded`: ``halves`` is a
        list of :class:`repro.lm.encode_plane.PairHalves` and ``plane`` the
        :class:`~repro.lm.encode_plane.EncodePlane` that produced them.
        Fingerprints are computed digest-parity from the halves (so the
        in-memory and persisted score caches are shared with the sequential
        path), bucket planning reads the precomputed half lengths, and each
        dirty micro-batch is assembled directly into a pooled buffer --
        released back to the pool once the serving ladder returns.
        """
        self.stats.scoring_calls += 1
        count = len(halves)
        self.stats.pairs_requested += count
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        with obs.span(
            "engine.score", pairs=count, version=self._version
        ) as score_span:
            self.model.eval()
            self.classifier.eval()

            with self.stats.timer("fingerprint"):
                fingerprints = [plane.fingerprint(pair) for pair in halves]
            self._load_persisted()

            scores = np.empty(count, dtype=np.float64)
            dirty: list[int] = []
            for index, fingerprint in enumerate(fingerprints):
                cached = self._scores.get(fingerprint)
                if cached is None:
                    dirty.append(index)
                else:
                    scores[index] = cached
            self.stats.pairs_skipped += count - len(dirty)
            self.stats.pairs_scored += len(dirty)
            score_span.set(dirty=len(dirty), skipped=count - len(dirty))

            if dirty:
                with self.stats.timer("bucket"):
                    chunks = plan_bucket_chunks(
                        [halves[i].length for i in dirty],
                        microbatch_size=self.config.microbatch_size,
                        bucket_granularity=self.config.bucket_granularity,
                    )
                    plan = [
                        MicroBatch(
                            tuple(chunk),
                            plane.assemble(
                                [halves[dirty[i]] for i in chunk], pad_to=padded
                            ),
                        )
                        for padded, chunk in chunks
                    ]
                self.stats.buckets += plan_num_buckets(plan)
                self.stats.microbatches += len(plan)
                score_span.set(microbatches=len(plan))
                try:
                    results = self._score_plan(plan)
                    for microbatch, probabilities in zip(plan, results):
                        for position, probability in zip(
                            microbatch.indices, probabilities
                        ):
                            index = dirty[position]
                            value = float(probability)
                            scores[index] = value
                            self._scores[fingerprints[index]] = value
                finally:
                    for microbatch in plan:
                        plane.release(microbatch.batch)
                self._save_persisted()
        return scores

    def serving_info(self) -> dict[str, object]:
        """Current serving-plane state (arena, pool, scratch), for the CLI."""
        payload: dict[str, object] = {
            "serving.use_shm": self.config.use_shm,
            "serving.shm_available": shm.shared_memory_available(),
            "serving.n_workers": self.config.n_workers,
        }
        if self._plane is not None:
            payload.update(
                {f"serving.{key}": value for key, value in self._plane.info().items()}
            )
        return payload

    def close(self) -> None:
        """Release pools and unlink every shared-memory segment (idempotent)."""
        self._executor.close()
        if self._plane is not None:
            self._plane.close()

    def __del__(self) -> None:  # best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
