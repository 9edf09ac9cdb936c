"""Multi-tenant async serving: admission, coalescing, residency, load replay.

The package splits into four layers, each independently testable:

* :mod:`repro.serve.scheduler` -- the synchronous, clock-injected
  cross-session coalescing core (property-tested with hypothesis);
* :mod:`repro.serve.residency` -- versioned side-by-side read-only model
  copies, with pinned LRU eviction;
* :mod:`repro.serve.service` -- the asyncio front end: admission control,
  the scheduler drain loop, the in-process scoring backend;
* :mod:`repro.serve.load` -- deterministic load scripts and the
  sequential/coalesced replayers behind the parity tests, the load bench
  and ``repro serve stats``.
"""

from .load import (
    LoadEvent,
    LoadScript,
    ReplayResult,
    apply_swap,
    build_tenant_stack,
    make_script,
    replay_coalesced,
    replay_sequential,
    request_pairs,
)
from .residency import ModelResidency, ResidencyError, ResidentModel
from .scheduler import (
    CoalescedBatch,
    CoalescingScheduler,
    QueueFullError,
    ScoreRequest,
)
from .service import (
    AdmissionController,
    AdmissionError,
    InProcessBackend,
    ServeConfig,
    ServeService,
    SessionHandle,
)
from .stats import ServeStats

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "CoalescedBatch",
    "CoalescingScheduler",
    "InProcessBackend",
    "LoadEvent",
    "LoadScript",
    "ModelResidency",
    "QueueFullError",
    "ReplayResult",
    "ResidencyError",
    "ResidentModel",
    "ScoreRequest",
    "ServeConfig",
    "ServeService",
    "ServeStats",
    "SessionHandle",
    "apply_swap",
    "build_tenant_stack",
    "make_script",
    "replay_coalesced",
    "replay_sequential",
    "request_pairs",
]
