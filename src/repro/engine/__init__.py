"""Batched, parallel, incremental scoring engine for featurization.

Public surface:

* :class:`ScoringEngine` / :class:`EngineConfig` -- the engine itself, which
  scores multi-batch plans on threads over the one live model;
* :class:`EngineStats` -- per-stage timing counters;
* :func:`plan_microbatches` / :class:`MicroBatch` -- length-bucketed batch
  planning (usable standalone).
"""

from .batching import (
    MicroBatch,
    bucket_key,
    plan_bucket_chunks,
    plan_microbatches,
    plan_num_buckets,
)
from .engine import FINGERPRINT_BYTES, EngineConfig, ScoringEngine, fingerprint_encoded
from .stats import EngineStats

__all__ = [
    "EngineConfig",
    "EngineStats",
    "FINGERPRINT_BYTES",
    "MicroBatch",
    "ScoringEngine",
    "bucket_key",
    "fingerprint_encoded",
    "plan_bucket_chunks",
    "plan_microbatches",
    "plan_num_buckets",
]
