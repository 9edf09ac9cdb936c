"""Unified observability for the whole pipeline (``repro.obs``).

Two pieces, both zero-dependency and off by default:

* a **structured tracer** (:mod:`repro.obs.tracer`) -- nested spans with
  wall-clock and counters, streamed as NDJSON, plus the :func:`check`
  invariant hook that turns silent correctness drift into loud failures
  while tracing is on;
* a **metrics registry** (:mod:`repro.obs.registry`) -- one
  ``as_dict()``/merge protocol over the pipeline's stats objects, each a
  :class:`Counters` dataclass (:mod:`repro.obs.counters`) that derives its
  timer and flat snapshot from its fields.

Instrumentation sites use the ambient helpers (``obs.span(...)``,
``obs.event(...)``, ``obs.check(...)``); a matcher activates its own tracer
around its work, so nothing global needs configuring and concurrent
matchers do not interleave.  ``repro trace summarize`` renders the NDJSON
(:mod:`repro.obs.summarize`).
"""

from .counters import Counters
from .latency import LatencyReservoir
from .registry import MetricsRegistry, merge_metrics
from .summarize import (
    ITERATION_SPAN,
    StageRow,
    TraceError,
    TraceSummary,
    load_trace,
    summarize_trace,
    summarize_trace_file,
)
from .tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    InvariantViolation,
    NullTracer,
    Span,
    Tracer,
    activated,
    check,
    current_tracer,
    enabled,
    event,
    span,
)

__all__ = [
    "Counters",
    "ITERATION_SPAN",
    "InvariantViolation",
    "LatencyReservoir",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "StageRow",
    "TRACE_SCHEMA_VERSION",
    "TraceError",
    "TraceSummary",
    "Tracer",
    "activated",
    "check",
    "current_tracer",
    "enabled",
    "event",
    "load_trace",
    "merge_metrics",
    "span",
    "summarize_trace",
    "summarize_trace_file",
]
