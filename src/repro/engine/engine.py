"""The batched, parallel, incremental scoring engine.

``ScoringEngine`` owns the hot path of BERT featurization: given a list of
encoded candidate pairs it

1. **fingerprints** each pair (a content hash of its token/segment arrays)
   and serves every pair already scored under the current model version from
   an in-memory cache -- after a ``predict()`` that changed nothing, zero
   encoder work happens;
2. plans the remaining pairs into **exact-length micro-batches**
   (:mod:`repro.engine.batching` at granularity 1): every micro-batch holds
   rows of one token count and is padded to nothing, so short names stop
   paying the padding cost of long descriptions;
3. scores each plan of more than one micro-batch on **threads over the one
   live model**: ``n_workers - 1`` helper threads and the calling thread
   pull micro-batches from a shared cursor.  The forward runs inside
   :func:`repro.nn.inference_scope`, which writes no layer cache, so the
   threads need no weight replicas, and numpy releases the GIL inside every
   GEMM.  For the plan's duration :mod:`repro.engine.blas` holds OpenBLAS
   at one thread, so its threads do not contend with the scoring threads.

The same pool runs a label update's work (:meth:`ScoringEngine.run_parallel`):
the row shards of every training step, each on its own replica of the
trained modules, and the chunks of the update's trunk table (see
:meth:`repro.featurizers.bert.BertFeaturizer._train`).

Scores live in memory only, and nothing reaches the artifact store.
Every label update changes the weights, so a customer's scores are
recomputed after each one -- but a label update trains only MiniBERT's top
block, so the rescore after it reruns only that block.  The
:class:`~repro.engine.trunks.TrunkStore` keeps each row's trunk output
(embeddings and the lower blocks) from the first rescore after an update
and rebuilds every later rescore's micro-batches from it, bit for bit.

Model updates call :meth:`ScoringEngine.invalidate_model`; that bumps the
version and drops stale scores, and every update except a top-only one
also empties the trunk store.  The threads read the live weights, so no
copy or publish follows an update.

The matcher keeps each pair's score in the candidate store's BERT column
and hands the engine only new, re-added or invalidated rows, and after an
update only the live ones; the current rows it serves from its column are
counted here through :meth:`ScoringEngine.count_reused`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .. import obs
from ..lm.encode_plane import FINGERPRINT_BYTES
from ..lm.tokenizer import EncodedPair
from . import blas
from .batching import (
    EXACT_LENGTH,
    MICROBATCH_SIZE,
    MicroBatch,
    plan_bucket_chunks,
    plan_microbatches,
    plan_num_buckets,
)
from .stats import EngineStats
from .trunks import TrunkStore

T = TypeVar("T")


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
        Maximum rows per micro-batch.  Every micro-batch holds rows of one
        token count (see :data:`EXACT_LENGTH`).
    n_workers:
        Threads that score one plan, the calling thread included; defaults
        to :func:`default_workers`.  0 and 1 score in-process.  A label
        update runs its row shards and trunk chunks on the same threads
        (:meth:`ScoringEngine.run_parallel`).
    """

    microbatch_size: int = MICROBATCH_SIZE
    n_workers: int = field(default_factory=default_workers)

    def __post_init__(self) -> None:
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
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
    ) -> None:
        self.model = model
        self.classifier = classifier
        self.special_ids = sorted(special_ids)
        self.config = config or EngineConfig()
        self.stats = EngineStats()
        self._version = 0
        self._scores: dict[bytes, float] = {}
        #: Trunk outputs kept across top-only updates (see :meth:`invalidate_model`).
        self.trunks = TrunkStore()
        #: Whether the next ``score_halves`` is the first rescore after a
        #: top-only update: it reads and fills the trunk store.
        self._trunk_pass = False
        #: Helper threads for multi-micro-batch plans; created on first use.
        self._pool: ThreadPoolExecutor | None = None
        #: Whether the most recent threaded plan held OpenBLAS at one thread.
        self._blas_pinned = False

    # -- model versioning --------------------------------------------------------

    @property
    def model_version(self) -> int:
        return self._version

    def invalidate_model(self, top_only: bool = False) -> None:
        """Signal that model/classifier weights changed: cached scores are stale.

        ``top_only`` says that only the encoder's top block, its pooler and
        the classifier moved, as in a label update.  Stored trunk outputs
        stay valid then, and the next :meth:`score_halves` -- the rescore of
        the matcher's live rows -- reads them, stores the rows it misses and
        drops the entries it did not request.  Any other change empties the
        store.
        """
        self._version += 1
        self._scores.clear()
        self.stats.invalidations += 1
        self._trunk_pass = top_only
        if not top_only:
            self.trunks.clear()
            self.stats.trunk_bytes = 0

    def count_reused(self, count: int) -> None:
        """Count pairs a caller served from scores this engine produced.

        The matcher keeps every scored pair in the candidate store's BERT
        column and passes only the rows it must rescore; its other rows
        whose value is current still count as requested and skipped, as if
        they had hit the fingerprint cache.  Rows it leaves stale (a
        matched source's implied negatives after an update) count as
        neither, and so do rows it filters out (:meth:`count_filtered`).
        """
        self.stats.pairs_requested += count
        self.stats.pairs_skipped += count

    def count_filtered(self, count: int) -> None:
        """Count stale pairs a caller left out of a pass without a score.

        The matcher leaves dtype-incompatible rows out of BERT's passes
        until the first label.  They are neither requested nor skipped.
        """
        self.stats.pairs_filtered += count

    def clear_cached_scores(self) -> None:
        """Drop cached scores without bumping the model version (testing aid)."""
        self._scores.clear()

    # -- scoring -----------------------------------------------------------------

    def _record_scores(self, fingerprints, dirty: list[int], plan, results, scores) -> None:
        """Scatter a scored plan into ``scores`` and the score cache."""
        for microbatch, probabilities in zip(plan, results):
            for position, probability in zip(microbatch.indices, probabilities):
                index = dirty[position]
                value = float(probability)
                scores[index] = value
                self._scores[fingerprints[index]] = value

    def _score_plan(self, plan, trunk_jobs=None) -> list[np.ndarray]:
        """Score a plan in-process, or on threads when it has several batches.

        ``trunk_jobs``, one :class:`~repro.engine.trunks.TrunkJob` per
        micro-batch, routes each micro-batch's trunk through the trunk store.
        """
        from ..featurizers.bert import score_encoded_batch

        def forward(index: int) -> np.ndarray:
            batch = plan[index].batch
            trunk = (
                None
                if trunk_jobs is None
                else self.trunks.trunk_for(trunk_jobs[index], self.model, batch)
            )
            return score_encoded_batch(
                self.model, self.classifier, self.special_ids, batch, trunk_hidden=trunk
            )

        if min(self.config.n_workers, len(plan)) < 2:
            results = []
            for index in range(len(plan)):
                with self.stats.timer("forward"):
                    results.append(forward(index))
                self.stats.inprocess_batches += 1
            return results

        with self.stats.timer("forward"), blas.single_threaded() as pinned:
            self._blas_pinned = pinned
            results = self.run_parallel(forward, len(plan))
        self.stats.threaded_batches += len(plan)
        return results

    def run_parallel(self, work: Callable[[int], T], count: int) -> list[T]:
        """``[work(0), ..., work(count - 1)]``, on up to ``n_workers`` threads.

        The calling thread and up to ``n_workers - 1`` helper threads of the
        engine's pool pull indices from a shared cursor; with one worker, or
        one index, the calling thread runs them in order.  Threaded scoring
        plans and a label update's row shards and trunk chunks run here.

        ``work`` should not score through the engine, whose counters are
        not synchronised.  A helper that has not started by the time the
        cursor runs out is cancelled rather than awaited, so a call made
        from a pool thread cannot wait on the pool thread it runs on.
        :func:`repro.nn.inference_scope` is per thread: ``work`` enters it
        where it needs it.
        """
        threads = min(self.config.n_workers, count)
        if threads < 2:
            return [work(index) for index in range(count)]

        results: list = [None] * count
        cursor = iter(range(count))
        cursor_lock = threading.Lock()
        failed = threading.Event()

        def drain() -> None:
            try:
                while not failed.is_set():
                    with cursor_lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    results[index] = work(index)
            except BaseException:
                failed.set()  # the other threads stop at their next index
                raise

        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                self.config.n_workers - 1, thread_name_prefix="repro-engine"
            )
        helpers = [self._pool.submit(drain) for _ in range(threads - 1)]
        try:
            drain()
        finally:
            # No started helper may outlive the call: each writes into
            # ``results``, and its failure is re-raised below.  One that
            # never started has claimed no index; it is cancelled and not
            # awaited (``wait`` would block until a pool thread dequeued it).
            started = [helper for helper in helpers if not helper.cancel()]
            wait(started)
        for helper in started:
            helper.result()  # re-raise a helper's failure here
        return results

    def score_plan(self, plan) -> list[np.ndarray]:
        """Score an externally formed micro-batch plan.

        The multi-tenant serving front end (:mod:`repro.serve`) coalesces
        pairs from *different* sessions into one plan before it reaches the
        engine, so the engine cannot fingerprint-cache or re-plan here: the
        caller owns request/result routing and cache policy.  Each returned
        array is positionally aligned with ``plan``.
        """
        self.stats.microbatches += len(plan)
        self.stats.buckets += plan_num_buckets(plan)
        self.stats.pairs_scored += sum(len(mb.indices) for mb in plan)
        return self._score_plan(plan)

    def _split_cached(self, fingerprints: list[bytes], scores: np.ndarray, span) -> list[int]:
        """Fill cached scores in; return the indices that need a forward."""
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
            with self.stats.timer("fingerprint"):
                fingerprints = [fingerprint_encoded(pair) for pair in encoded]
            scores = np.empty(count, dtype=np.float64)
            dirty = self._split_cached(fingerprints, scores, score_span)
            if dirty:
                with self.stats.timer("bucket"):
                    plan = plan_microbatches(
                        [encoded[i] for i in dirty],
                        microbatch_size=self.config.microbatch_size,
                        bucket_granularity=EXACT_LENGTH,
                    )
                self.stats.buckets += plan_num_buckets(plan)
                self.stats.microbatches += len(plan)
                score_span.set(microbatches=len(plan))
                results = self._score_plan(plan)
                self._record_scores(fingerprints, dirty, plan, results, scores)
        return scores

    def score_halves(self, halves, plane) -> np.ndarray:
        """Scores for fingerprinted pairs, assembled per dirty micro-batch.

        The encode-plane fast path of :meth:`score_encoded`: ``halves`` is a
        fingerprinted :class:`repro.lm.encode_plane.BatchHalves` and
        ``plane`` the :class:`~repro.lm.encode_plane.EncodePlane` that
        produced it.  The
        digest-parity fingerprints share the score cache with
        :meth:`score_encoded`.  Planning reads the dirty rows' truncated
        lengths and groups them by exact length (:data:`EXACT_LENGTH`), so
        no micro-batch carries a pad column; each one is gathered from the
        per-attribute id tables into fresh arrays at its rows' own length.
        """
        self.stats.scoring_calls += 1
        count = len(halves)
        self.stats.pairs_requested += count
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        with obs.span(
            "engine.score", pairs=count, version=self._version
        ) as score_span:
            fingerprints = halves.fingerprint_keys()
            scores = np.empty(count, dtype=np.float64)
            dirty = self._split_cached(fingerprints, scores, score_span)
            if dirty:
                with self.stats.timer("bucket"):
                    rows = np.asarray(dirty, dtype=np.intp)
                    chunks = plan_bucket_chunks(
                        halves.lengths[rows].tolist(),
                        microbatch_size=self.config.microbatch_size,
                        bucket_granularity=EXACT_LENGTH,
                    )
                    plan = [
                        MicroBatch(
                            tuple(chunk),
                            plane.assemble(halves.take(rows[chunk]), pad_to=padded),
                        )
                        for padded, chunk in chunks
                    ]
                self.stats.buckets += plan_num_buckets(plan)
                self.stats.microbatches += len(plan)
                score_span.set(microbatches=len(plan))
                trunk_jobs = None
                if self._trunk_pass:
                    trunk_jobs = self._plan_trunks(fingerprints, rows, halves.lengths, chunks)
                    self._trunk_pass = False
                results = self._score_plan(plan, trunk_jobs)
                if trunk_jobs is not None:
                    self.stats.trunk_bytes = self.trunks.nbytes
                self._record_scores(fingerprints, dirty, plan, results, scores)
        return scores

    def _plan_trunks(self, fingerprints, rows, lengths, chunks):
        """The trunk store's jobs for the plan of the rescore after an update.

        Entries this call does not request are dropped first.  Rows the
        byte cap refuses run the full forward like any miss, and a pass
        that refuses any emits one ``engine.trunk_store_full`` event.
        """
        store = self.trunks
        store.retain(fingerprints)
        batches = []
        for _padded, chunk in chunks:
            chunk_rows = rows[chunk]
            batches.append(
                ([fingerprints[row] for row in chunk_rows], lengths[chunk_rows])
            )
        jobs, refused = store.plan(batches, self.model.config.hidden_size)
        hits = sum(len(job.keys) for job in jobs if job.hit)
        self.stats.trunk_hits += hits
        self.stats.trunk_misses += len(rows) - hits
        if refused:
            obs.event(
                "engine.trunk_store_full",
                reason="trunk store byte cap reached; refused rows run the full forward",
                rows_refused=refused,
                trunk_bytes=store.nbytes,
                capacity_bytes=store.capacity_bytes,
            )
        return jobs

    def serving_info(self) -> dict[str, object]:
        """Threads per plan and whether the last threaded plan pinned BLAS."""
        return {
            "serving.threads": self.config.n_workers,
            "serving.blas_pinned": self._blas_pinned,
        }

    def close(self) -> None:
        """Join the helper threads (idempotent); a later plan starts new threads."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
