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
3. scores each plan of more than one micro-batch on **threads over the one
   live model**: ``n_workers - 1`` helper threads and the calling thread
   pull micro-batches from a shared cursor.  The forward runs inside
   :func:`repro.nn.inference_scope`, which writes no layer cache, so the
   threads need no weight replicas, and numpy releases the GIL inside every
   GEMM.  For the plan's duration :mod:`repro.engine.blas` holds OpenBLAS
   at one thread, so its threads do not contend with the scoring threads;
4. **persists score blocks** through :mod:`repro.store`, keyed by the exact
   model weights, so re-running an experiment skips straight to cached
   scores across processes.  A block is written the first time a weights
   key has scores, then once :data:`PERSIST_EVERY` new scores have built
   up, and on :meth:`ScoringEngine.close` and
   :meth:`ScoringEngine.invalidate_model`.

Model updates call :meth:`ScoringEngine.invalidate_model`; that bumps the
version and drops stale scores.  The threads read the live weights, so no
copy or publish follows an update.

The matcher keeps each pair's score in the candidate store's BERT column
and hands the engine only new, re-added or invalidated rows; the rows it
serves from its column are counted here through
:meth:`ScoringEngine.count_reused`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..lm.tokenizer import EncodedPair
from . import blas
from .batching import MicroBatch, plan_bucket_chunks, plan_microbatches, plan_num_buckets
from .stats import EngineStats

#: Bytes of one pair fingerprint (blake2b digest size).
FINGERPRINT_BYTES = 16

#: Write the score block at most once per this many new scores (after the
#: first write of a weights key); close() and invalidate_model() flush the
#: rest.
PERSIST_EVERY = 512


def default_workers() -> int:
    """Threads per plan by default: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


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
        Threads that score one plan, the calling thread included; defaults
        to :func:`default_workers`.  0 and 1 score in-process.
    persist_scores:
        Persist/load score blocks through :mod:`repro.store`, keyed by the
        exact model weights and pair contents.
    """

    microbatch_size: int = 64
    bucket_granularity: int = 8
    n_workers: int = field(default_factory=default_workers)
    persist_scores: bool = True

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        if self.bucket_granularity < 1:
            raise ValueError("bucket_granularity must be >= 1")
        if self.n_workers < 0:
            raise ValueError("n_workers must be >= 0")


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
        #: Scores added since the last block write, and whether this weights
        #: key has a block yet.
        self._unsaved = 0
        self._block_written = False
        #: Helper threads for multi-micro-batch plans; created on first use.
        self._pool: ThreadPoolExecutor | None = None
        #: Whether the most recent threaded plan held OpenBLAS at one thread.
        self._blas_pinned = False

    # -- model versioning --------------------------------------------------------

    @property
    def model_version(self) -> int:
        return self._version

    def invalidate_model(self) -> None:
        """Signal that model/classifier weights changed: cached scores are stale.

        Unsaved scores are first written under the cached pre-update weights
        key, so a later engine on those weights still finds them.
        """
        if self._weights_key is not None:
            self._flush_persisted()
        self._version += 1
        self._scores.clear()
        self._weights_key = None
        self._persisted_loaded = False
        self._unsaved = 0
        self._block_written = False
        self.stats.invalidations += 1

    def count_reused(self, count: int) -> None:
        """Count pairs a caller served from scores this engine produced.

        The matcher keeps every scored pair in the candidate store's BERT
        column and passes only dirty rows; its clean rows still count as
        requested and skipped, as if they had hit the fingerprint cache.
        """
        self.stats.pairs_requested += count
        self.stats.pairs_skipped += count

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
            "engine-scores-v3", self.cache_token or "", self._current_weights_key()
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

    def _record_scores(self, fingerprints, dirty: list[int], plan, results, scores) -> None:
        """Scatter a scored plan into ``scores`` and the score cache."""
        for microbatch, probabilities in zip(plan, results):
            for position, probability in zip(microbatch.indices, probabilities):
                index = dirty[position]
                value = float(probability)
                scores[index] = value
                self._scores[fingerprints[index]] = value
        self._unsaved += len(dirty)
        if not self._block_written or self._unsaved >= PERSIST_EVERY:
            self._save_persisted()

    def _flush_persisted(self) -> None:
        """Write the block if it holds scores the store has not seen."""
        if self._unsaved:
            self._save_persisted()

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
        self._unsaved = 0
        self._block_written = True

    # -- scoring -----------------------------------------------------------------

    def _score_plan(self, plan) -> list[np.ndarray]:
        """Score a plan in-process, or on threads when it has several batches."""
        from ..featurizers.bert import score_encoded_batch

        threads = min(self.config.n_workers, len(plan))
        if threads < 2:
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

        results: list[np.ndarray | None] = [None] * len(plan)
        cursor = iter(range(len(plan)))
        cursor_lock = threading.Lock()
        failed = threading.Event()

        def drain() -> None:
            try:
                while not failed.is_set():
                    with cursor_lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    results[index] = score_encoded_batch(
                        self.model, self.classifier, self.special_ids, plan[index].batch
                    )
            except BaseException:
                failed.set()  # the other threads stop at their next batch
                raise

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.config.n_workers - 1, thread_name_prefix="repro-engine"
            )
        with self.stats.timer("forward"), blas.single_threaded() as pinned:
            self._blas_pinned = pinned
            helpers = [self._pool.submit(drain) for _ in range(threads - 1)]
            try:
                drain()
            finally:
                # No helper may outlive the call: each writes into the
                # plan's results, and its failure is re-raised below.
                wait(helpers)
            for helper in helpers:
                helper.result()  # re-raise a helper's failure here
        self.stats.threaded_batches += len(plan)
        return results

    def score_plan(self, plan) -> list[np.ndarray]:
        """Score an externally formed micro-batch plan.

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

    def _split_cached(self, fingerprints: list[bytes], scores: np.ndarray, span) -> list[int]:
        """Fill cached scores in; return the indices that need a forward."""
        self._load_persisted()
        dirty: list[int] = []
        for index, fingerprint in enumerate(fingerprints):
            cached = self._scores.get(fingerprint)
            if cached is None:
                dirty.append(index)
            else:
                scores[index] = cached
        count = len(fingerprints)
        self.stats.pairs_skipped += count - len(dirty)
        self.stats.pairs_scored += len(dirty)
        span.set(dirty=len(dirty), skipped=count - len(dirty))
        return dirty

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
            scores = np.empty(count, dtype=np.float64)
            dirty = self._split_cached(fingerprints, scores, score_span)
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
                self._record_scores(fingerprints, dirty, plan, results, scores)
        return scores

    def score_halves(self, halves, plane) -> np.ndarray:
        """Scores for pairs given as cached halves, assembled per micro-batch.

        The encode-plane fast path of :meth:`score_encoded`: ``halves`` is a
        list of :class:`repro.lm.encode_plane.PairHalves` and ``plane`` the
        :class:`~repro.lm.encode_plane.EncodePlane` that produced them.
        Each pair carries the digest-parity fingerprint computed when its
        halves were built (so the in-memory and persisted score caches are
        shared with the sequential path), bucket planning reads the
        precomputed half lengths, and each dirty micro-batch is assembled
        into a fresh block straight from the cached halves.
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

            fingerprints = [pair.fingerprint for pair in halves]
            scores = np.empty(count, dtype=np.float64)
            dirty = self._split_cached(fingerprints, scores, score_span)
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
                results = self._score_plan(plan)
                self._record_scores(fingerprints, dirty, plan, results, scores)
        return scores

    def serving_info(self) -> dict[str, object]:
        """Threads per plan and whether the last threaded plan pinned BLAS."""
        return {
            "serving.threads": self.config.n_workers,
            "serving.blas_pinned": self._blas_pinned,
        }

    def close(self) -> None:
        """Write unsaved scores and join the helper threads (idempotent);
        a later plan starts new threads."""
        self._flush_persisted()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
