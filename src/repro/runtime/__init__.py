"""The allocation-serving runtime: batched, cached, parallel.

Turns the per-call experiment code into a high-throughput engine:

- :mod:`repro.runtime.cache` -- the bounded LRU cache behind the
  channel and allocation caches, keyed by quantized placement
  fingerprints;
- :mod:`repro.runtime.pool` -- deterministic process-pool fan-out of
  allocation solves;
- :mod:`repro.runtime.metrics` -- labeled counters/gauges/histograms
  exported as a dict snapshot or Prometheus text;
- :mod:`repro.runtime.tracing` -- deterministic, sampling-aware request
  span trees with Chrome-trace/Perfetto and JSON-lines export;
- :mod:`repro.runtime.resilience` -- deadlines, retry/backoff, the
  circuit breaker and the solver degradation chain
  (``optimal -> swing -> greedy -> heuristic``);
- :mod:`repro.runtime.faults` -- the seedable fault-injection harness
  driving the chaos tests;
- :mod:`repro.runtime.service` -- the :class:`AllocationService`
  facade routing requests through cache -> batch -> pool, wired into
  the CLI as ``repro bench``.

The one-broadcast channel and Eq.-12 stacks the service batches through
(``channel_matrix_stack``, ``throughput_stack``, ...) live in
:mod:`repro.channel`.
"""

from .cache import CacheStats, LRUCache
from .faults import FaultPlan
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merged_prometheus,
)
from .pool import (
    SOLVERS,
    PoolOptions,
    SolveOutcome,
    SolverPool,
    SolveTask,
    solve_task,
)
from .resilience import (
    DEGRADATION_CHAIN,
    CircuitBreaker,
    Deadline,
    ResilienceOptions,
    ResiliencePolicy,
    RetryPolicy,
    degradation_fallbacks,
)
from .service import (
    AllocationRequest,
    AllocationResult,
    AllocationService,
    BenchmarkReport,
    ServiceOptions,
    benchmark_service,
    placement_fingerprint,
    run_benchmark,
)
from .tracing import (
    SpanRecorder,
    Tracer,
    TracingOptions,
    trace_context_for,
)
from ..tracecontext import Span, add_span_attributes, current_span

__all__ = [
    "CacheStats",
    "LRUCache",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merged_prometheus",
    "SOLVERS",
    "PoolOptions",
    "SolveOutcome",
    "SolverPool",
    "SolveTask",
    "solve_task",
    "FaultPlan",
    "DEGRADATION_CHAIN",
    "CircuitBreaker",
    "Deadline",
    "ResilienceOptions",
    "ResiliencePolicy",
    "RetryPolicy",
    "degradation_fallbacks",
    "AllocationRequest",
    "AllocationResult",
    "AllocationService",
    "BenchmarkReport",
    "ServiceOptions",
    "benchmark_service",
    "placement_fingerprint",
    "run_benchmark",
    "SpanRecorder",
    "Tracer",
    "TracingOptions",
    "trace_context_for",
    "Span",
    "add_span_attributes",
    "current_span",
]
