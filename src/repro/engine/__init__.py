"""Batched, parallel, incremental scoring engine for featurization.

Public surface:

* :class:`ScoringEngine` / :class:`EngineConfig` -- the engine itself;
* :class:`EngineStats` -- per-stage timing counters;
* :func:`plan_microbatches` / :class:`MicroBatch` -- length-bucketed batch
  planning (usable standalone);
* :class:`ShmServingPlane` / :class:`WeightArena` -- the persistent
  shared-memory serving plane (zero-respawn weight hot-swap);
* :class:`MicroBatchExecutor` -- the spawn-safe pickle-payload worker pool
  (the serving ladder's middle rung);
* :class:`RetryGate` -- bounded retry policy for best-effort pool creation.
"""

from .batching import (
    MicroBatch,
    bucket_key,
    plan_bucket_chunks,
    plan_microbatches,
    plan_num_buckets,
)
from .engine import FINGERPRINT_BYTES, EngineConfig, ScoringEngine, fingerprint_encoded
from .executor import MicroBatchExecutor, RetryGate, make_worker_payload
from .shm import (
    ArenaClient,
    ArenaError,
    ArenaManifest,
    ScratchRegion,
    ShmServingPlane,
    WeightArena,
    live_segment_names,
    shared_memory_available,
)
from .stats import EngineStats

__all__ = [
    "ArenaClient",
    "ArenaError",
    "ArenaManifest",
    "EngineConfig",
    "EngineStats",
    "FINGERPRINT_BYTES",
    "MicroBatch",
    "MicroBatchExecutor",
    "RetryGate",
    "ScoringEngine",
    "ScratchRegion",
    "ShmServingPlane",
    "WeightArena",
    "bucket_key",
    "fingerprint_encoded",
    "live_segment_names",
    "make_worker_payload",
    "plan_bucket_chunks",
    "plan_microbatches",
    "plan_num_buckets",
    "shared_memory_available",
]
