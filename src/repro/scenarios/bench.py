"""Serve a scenario trace through the runtime engine and report.

:func:`run_scenario_benchmark` is what ``repro bench --scenario <name>``
calls: build the named scenario at its seed, stand up one
:class:`~repro.runtime.service.AllocationService` over the scenario's
scene (with its compiled fault plan, if any), play the trace epoch by
epoch (entries sharing an arrival timestamp go down as one
``handle_batch`` -- the same amortization the cluster front door
performs), and report latency percentiles plus the cache/incremental/
warm-start/degradation counters the scenario was designed to exercise.

Arrival timestamps are logical, not paced: scenarios measure the
engine's behavior on the *shape* of the workload (which receivers moved,
what repeats, what faults fire), so the bench is closed-loop and the
digest of the generated workload -- not wall-clock timing -- is what
``BENCH_scenarios.json`` pins.

:func:`scenario_cluster_workload` is the cluster handoff: the CLI feeds
its (scene, workload) into
:func:`repro.cluster.bench.run_cluster_benchmark` so ``repro
cluster-bench --scenario <name>`` works without ``repro.cluster`` ever
importing this package (rule R1: serving layers stay below scenarios).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from ..runtime.pool import PoolOptions
from ..runtime.service import (
    AllocationRequest,
    AllocationService,
    ServiceOptions,
    SLOObserver,
)
from ..system import Scene
from .base import ScenarioInstance, build_scenario

__all__ = [
    "ScenarioBenchReport",
    "run_scenario_benchmark",
    "scenario_cluster_workload",
]


@dataclass
class ScenarioBenchReport:
    """One scenario serve: throughput, locality and resilience counters."""

    scenario: str
    seed: int
    requests: int
    receivers_per_request: int
    duration_seconds: float
    requests_per_second: float
    p50_latency_ms: float
    p95_latency_ms: float
    channel_hit_rate: float
    allocation_hit_rate: float
    incremental_updates: int
    degraded: int
    health_status: str
    workload_digest: str
    metadata: Dict[str, object] = field(default_factory=dict)
    slo: Dict[str, object] = field(default_factory=dict)

    def lines(self) -> List[str]:
        lines = [
            f"scenario            {self.scenario} (seed {self.seed})",
            f"requests            {self.requests} "
            f"x {self.receivers_per_request} receivers",
            f"throughput          {self.requests_per_second:.1f} req/s",
            f"p50 latency         {self.p50_latency_ms:.3f} ms",
            f"p95 latency         {self.p95_latency_ms:.3f} ms",
            f"channel hit rate    {self.channel_hit_rate:.2f}",
            f"allocation hit rate {self.allocation_hit_rate:.2f}",
            f"incremental updates {self.incremental_updates}",
            f"degraded results    {self.degraded}",
            f"health              {self.health_status}",
            f"workload digest     {self.workload_digest}",
        ]
        for key in sorted(self.metadata):
            lines.append(f"meta {key:<22} {self.metadata[key]}")
        objectives = self.slo.get("objectives", [])
        if isinstance(objectives, list):
            for objective in objectives:
                lines.append(
                    f"slo {objective['name']:<15} "
                    f"{100 * objective['compliance']:.2f}% "
                    f"(target {100 * objective['target']:.1f}%, budget "
                    f"{100 * objective['budget_remaining']:.1f}% left)"
                )
        return lines

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "requests": self.requests,
            "receivers_per_request": self.receivers_per_request,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "channel_hit_rate": self.channel_hit_rate,
            "allocation_hit_rate": self.allocation_hit_rate,
            "incremental_updates": self.incremental_updates,
            "degraded": self.degraded,
            "health_status": self.health_status,
            "workload_digest": self.workload_digest,
            "metadata": dict(self.metadata),
            "slo": dict(self.slo),
        }


def _service_for(
    instance: ScenarioInstance, workers: int, cache_capacity: int
) -> AllocationService:
    return AllocationService(
        instance.scene,
        options=ServiceOptions(
            channel_cache_capacity=cache_capacity,
            allocation_cache_capacity=4 * cache_capacity,
            pool=PoolOptions(max_workers=workers),
            faults=instance.fault_plan,
        ),
    )


def run_scenario_benchmark(
    name: str,
    seed: Optional[int] = None,
    workers: int = 0,
    cache_capacity: int = 256,
    service: Optional[AllocationService] = None,
    slo: Optional[SLOObserver] = None,
) -> ScenarioBenchReport:
    """Build scenario *name* at *seed* and serve its trace end to end.

    Entries sharing an arrival timestamp (one mobility epoch's groups)
    are served as a single batch.  An explicit *service* overrides the
    default single-service construction (it must be built over the
    scenario's scene).  An *slo* observer (duck-typed through
    :class:`~repro.runtime.service.SLOObserver`) sees every served
    request; its snapshot lands in ``ScenarioBenchReport.slo``.
    """
    instance = build_scenario(name, seed)
    if service is None:
        service = _service_for(instance, workers, cache_capacity)
    if slo is not None:
        service.attach_slo(slo)
    degraded = 0
    start = time.perf_counter()
    # iter_trace() serves materialized and streaming scenarios alike;
    # only one epoch's batch is ever in memory at a time.
    for _, entries in groupby(
        instance.iter_trace(), key=lambda t: t.arrival_seconds
    ):
        batch = [timed.request for timed in entries]
        for result in service.handle_batch(batch):
            if result.degraded:
                degraded += 1
    duration = time.perf_counter() - start
    latency = service.metrics.histogram("service.latency_seconds")
    health = service.health()
    return ScenarioBenchReport(
        scenario=instance.name,
        seed=instance.seed,
        requests=instance.requests,
        receivers_per_request=instance.scene.num_receivers,
        duration_seconds=duration,
        requests_per_second=(
            instance.requests / duration if duration > 0 else float("inf")
        ),
        p50_latency_ms=1e3 * latency.percentile(50.0),
        p95_latency_ms=1e3 * latency.percentile(95.0),
        channel_hit_rate=service.channel_hit_rate,
        allocation_hit_rate=service.allocation_hit_rate,
        incremental_updates=int(
            service.metrics.counter("service.channel_incremental").value
        ),
        degraded=degraded,
        health_status=health["status"],
        workload_digest=instance.workload_digest(),
        metadata=dict(instance.metadata),
        slo=dict(health.get("slo", {})),
    )


def scenario_cluster_workload(
    name: str, seed: Optional[int] = None
) -> Tuple[Scene, List[AllocationRequest], ScenarioInstance]:
    """The (scene, workload) handoff for ``repro cluster-bench --scenario``.

    Arrival order is preserved; the cluster bench's closed-loop/paced
    modes decide actual arrival pacing.  Returns the built instance too
    so the CLI can report the workload digest and metadata.
    """
    instance = build_scenario(name, seed)
    # The cluster front door submits concurrently, so the handoff
    # materializes even streaming traces -- the lazy path is for the
    # single-service epoch loop and the obs recorder.
    workload = [timed.request for timed in instance.iter_trace()]
    return instance.scene, workload, instance
