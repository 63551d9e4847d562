#!/usr/bin/env python3
"""Batched sweeps and allocation serving with the runtime engine.

Evaluates a Fig. 6-style random-placement sweep two ways:

1. directly on the batch evaluator -- all placement channels in one
   (B, N, M) broadcast, all heuristic allocations evaluated as one
   stack;
2. through the :class:`repro.runtime.AllocationService` facade, which
   adds fingerprint-keyed caching and reports hit-rates and latency
   percentiles via its metrics snapshot -- here with tracing enabled,
   so the run also emits a Perfetto-loadable span trace and a
   Prometheus metrics exposition.

Run:  python examples/batched_sweep.py
"""

import numpy as np

from repro.channel import channel_matrix_stack, throughput_stack
from repro.core import AllocationProblem, RankingHeuristic
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    Tracer,
    TracingOptions,
)
from repro.system import simulation_scene


def main() -> None:
    placements = fig6_instances(instances=32, seed=0)
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])

    # --- 1. The batch evaluator: one broadcast for all 32 placements.
    channels = channel_matrix_stack(scene, placements)
    print(f"channel stack: {channels.shape} (placements x TXs x RXs)")

    heuristic = RankingHeuristic(kappa=1.3)
    swings = np.stack(
        [
            heuristic.solve(
                AllocationProblem(channel=channels[t], power_budget=1.2)
            ).swings
            for t in range(len(placements))
        ]
    )
    reference = AllocationProblem(channel=channels[0], power_budget=1.2)
    rates = throughput_stack(
        channels, swings, reference.led, reference.photodiode, reference.noise
    )
    system = rates.sum(axis=1)
    print(
        f"system throughput over {len(placements)} placements: "
        f"mean {system.mean() / 1e6:.1f} Mbit/s, "
        f"min {system.min() / 1e6:.1f}, max {system.max() / 1e6:.1f}"
    )

    # --- 2. The serving facade: same workload with caching + metrics,
    # traced end to end (deterministic span IDs under the fixed seed).
    tracer = Tracer(TracingOptions(seed=0))
    service = AllocationService(scene, tracer=tracer)
    for repeat in range(3):  # mobility-style revisits -> cache hits
        for placement in placements[:8]:
            service.handle(
                AllocationRequest(
                    rx_positions_xy=tuple(
                        (float(x), float(y)) for x, y in placement
                    ),
                    power_budget=1.2,
                )
            )
    snapshot = service.metrics_snapshot()
    latency = snapshot["histograms"]["service.latency_seconds"]
    print(
        f"served {int(snapshot['counters']['service.requests'])} requests, "
        f"channel hit-rate {100 * service.channel_hit_rate:.0f}%, "
        f"p50 latency {1e3 * latency['p50']:.2f} ms"
    )

    # --- 3. The fault-tolerance layer's view of the same service.
    health = service.health()
    print(
        f"health {health['status']}, circuit {health['circuit']['state']}, "
        f"degraded solves "
        f"{health['resilience'].get('resilience.degraded_solves', 0):.0f}"
    )

    # --- 4. Export the observability artifacts: a Chrome-trace file
    # (open in https://ui.perfetto.dev) and Prometheus text metrics.
    spans = tracer.finished_spans()
    roots = [s for s in spans if s.parent_id is None]
    solves = [s for s in spans if s.name == "solve"]
    print(
        f"traced {len(spans)} spans across {len(roots)} request traces "
        f"({len(solves)} solver spans)"
    )
    document = tracer.export_chrome_trace("batched_sweep_trace.json")
    print(
        f"wrote batched_sweep_trace.json "
        f"({len(document['traceEvents'])} events)"
    )
    prometheus = service.metrics.expose_prometheus(prefix="repro_")
    sample = [
        line
        for line in prometheus.splitlines()
        if line.startswith("repro_service_channel_outcomes_total")
    ]
    print("\n".join(sample))


if __name__ == "__main__":
    main()
