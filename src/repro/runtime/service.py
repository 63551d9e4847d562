"""The allocation-serving facade: cache -> batch -> pool.

:class:`AllocationService` is the front door of the runtime engine.  A
request names receiver positions, a power budget and a solver; the
service quantizes the placement into a cache key, computes LOS channel
matrices for all cache-missing placements in one batched broadcast,
fans the allocation solves across the process pool, evaluates the
resulting throughputs as one allocation stack, and reports everything
through the metrics registry.  ``python -m repro bench`` drives it with
a random-placement workload and prints latency percentiles.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .. import constants
from ..channel import (
    AWGNNoise,
    channel_matrix_stack,
    channel_matrix_update,
    throughput_stack,
)
from ..errors import ChannelError, GeometryError, RuntimeEngineError
from ..system import FINGERPRINT_QUANTUM, Scene, simulation_scene
from ..tracecontext import Span
from .cache import LRUCache
from .faults import FaultPlan
from .metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from .pool import SOLVERS, PoolOptions, SolveOutcome, SolverPool, SolveTask
from .resilience import ResilienceOptions, ResiliencePolicy
from .tracing import Tracer


def placement_fingerprint(
    base: str,
    positions: Sequence[Tuple[float, float]],
    quantum: float = FINGERPRINT_QUANTUM,
) -> str:
    """The quantized placement cache/routing key for one request.

    ``base`` is the scene-level fingerprint (TX grid + hardware); the
    receiver placement is quantized onto the same grid the channel
    cache uses.  The cluster shard router hashes this exact string, so
    routing and caching agree on what "the same scene" means.
    """
    quantized = tuple(
        (int(round(x / quantum)), int(round(y / quantum)))
        for x, y in positions
    )
    return f"{base}:{quantized}"


#: Recently served placements remembered for incremental-channel
#: neighbour lookups.
NEIGHBORHOOD_MEMORY = 64


class PlacementMemory:
    """Recently computed placements as one ``(K, M, 2)`` array.

    :meth:`remember` records the positions a placement's channel matrix
    was computed at, replacing what an earlier computation under the
    same key stored, so the memory always agrees with the cached matrix;
    :meth:`touch` (a cache hit) only makes a placement the most recent.
    Past *capacity* the least recent one is evicted.  :meth:`neighbors`
    compares a batch of queries against every entry in one broadcast.
    """

    def __init__(self, capacity: int, num_receivers: int) -> None:
        self._positions = np.empty((capacity, num_receivers, 2))
        self._stamps = np.zeros(capacity, dtype=np.int64)
        self._keys: List[str] = []
        self._slots: Dict[str, int] = {}
        self._clock = 0

    def remember(self, key: str, positions: np.ndarray) -> None:
        slot = self._slots.get(key)
        if slot is None:
            if len(self._keys) < len(self._stamps):
                slot = len(self._keys)
                self._keys.append(key)
            else:
                slot = int(np.argmin(self._stamps))
                del self._slots[self._keys[slot]]
                self._keys[slot] = key
            self._slots[key] = slot
        self._positions[slot] = positions
        self._clock += 1
        self._stamps[slot] = self._clock

    def touch(self, key: str) -> None:
        slot = self._slots.get(key)
        if slot is not None:
            self._clock += 1
            self._stamps[slot] = self._clock

    def neighbors(
        self, keys: Sequence[str], positions: np.ndarray
    ) -> List[Iterator[Tuple[str, np.ndarray]]]:
        """Per query, ``(key, moved receiver indices)`` of partly moved placements.

        *positions* is ``(Q, M, 2)``, one placement per entry of *keys*.
        For each query only entries other than its own key where some
        but not all receivers moved qualify; the fewest moved come
        first, the most recent first among equals.  The comparison runs
        once for the whole batch; each query's candidates are yielded
        lazily.
        """
        count = len(self._keys)
        if count == 0 or positions.shape[1:] != self._positions.shape[1:]:
            return [iter(()) for _ in keys]
        moved = np.any(self._positions[None, :count] != positions[:, None], axis=3)
        moved_counts = moved.sum(axis=2)
        eligible = (moved_counts > 0) & (moved_counts < positions.shape[1])
        for query, key in enumerate(keys):
            own = self._slots.get(key)
            if own is not None:
                eligible[query, own] = False
        return [
            self._ranked(moved[query], moved_counts[query], eligible[query])
            if any_eligible
            else iter(())
            for query, any_eligible in enumerate(eligible.any(axis=1).tolist())
        ]

    def _ranked(
        self, moved: np.ndarray, moved_counts: np.ndarray, eligible: np.ndarray
    ) -> Iterator[Tuple[str, np.ndarray]]:
        slots = np.flatnonzero(eligible)
        slots = slots[np.lexsort((-self._stamps[slots], moved_counts[slots]))]
        keys = [self._keys[slot] for slot in slots.tolist()]
        return zip(keys, (np.flatnonzero(moved[slot]) for slot in slots))


class SLOObserver(Protocol):
    """What the service needs from an attached SLO tracker.

    The runtime never imports the observability layer (R1 keeps
    ``repro.obs`` above serving); instead an SLO tracker -- in practice
    :class:`repro.obs.slo.SLOTracker` -- is attached via
    :meth:`AllocationService.attach_slo` and duck-typed through this
    protocol.  ``observe`` is called once per served request with its
    latency and whether it met its objective-relevant promises
    (non-degraded, deadline kept); ``snapshot`` renders the rolling
    compliance/error-budget state for :meth:`AllocationService.health`.
    """

    def observe(self, latency_seconds: float, ok: bool) -> None: ...

    def snapshot(self) -> Dict[str, Any]: ...


@dataclass(frozen=True)
class AllocationRequest:
    """One unit of allocation traffic.

    Attributes:
        rx_positions_xy: receiver XY positions [m], one per scene RX.
        power_budget: communication power budget ``P_C,tot`` [W].
        solver: one of :data:`repro.runtime.pool.SOLVERS`.
        kappa: SJR exponent (used by the heuristic solver).
        tag: optional caller-supplied request label.
        deadline_seconds: optional per-request latency budget [s].  The
            budget starts ticking when the batch is admitted and flows
            through the allocation stage into the solver pool's task
            timeouts; an expiring solve degrades down the solver chain
            instead of blocking.
    """

    rx_positions_xy: Tuple[Tuple[float, float], ...]
    power_budget: float
    solver: str = "heuristic"
    kappa: float = constants.DEFAULT_KAPPA
    tag: str = ""
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        positions = tuple(
            (float(x), float(y)) for x, y in self.rx_positions_xy
        )
        object.__setattr__(self, "rx_positions_xy", positions)
        if not positions:
            raise RuntimeEngineError("a request needs at least one receiver")
        if not all(math.isfinite(c) for xy in positions for c in xy):
            raise RuntimeEngineError(
                f"receiver positions must be finite, got {positions}"
            )
        if not math.isfinite(self.power_budget) or self.power_budget < 0:
            raise RuntimeEngineError(
                f"power budget must be finite and >= 0, got {self.power_budget}"
            )
        if not math.isfinite(self.kappa) or self.kappa <= 0:
            raise RuntimeEngineError(
                f"kappa must be positive and finite, got {self.kappa}"
            )
        if self.solver not in SOLVERS:
            raise RuntimeEngineError(
                f"unknown solver {self.solver!r}; available: {sorted(SOLVERS)}"
            )
        if self.deadline_seconds is not None and (
            not math.isfinite(self.deadline_seconds)
            or self.deadline_seconds <= 0
        ):
            raise RuntimeEngineError(
                f"deadline must be positive and finite, got "
                f"{self.deadline_seconds}"
            )


@dataclass(frozen=True)
class AllocationResult:
    """A served request: the allocation plus its provenance.

    Attributes:
        request: the originating request.
        fingerprint: the quantized placement cache key (hex digest part).
        swings: (N, M) solved swing matrix [A].
        per_rx_throughput: (M,) Shannon throughputs [bit/s].
        system_throughput: total throughput [bit/s].
        channel_cached: whether the channel matrix came from the cache.
        allocation_cached: whether the solve itself was a cache hit.
        latency_seconds: service time for this request (batch-averaged
            when the request was served as part of a batch).
        degraded: the allocation came from a degradation-chain fallback
            (solver timeout, non-convergence or an expired deadline),
            not the requested solver.  Degraded results are never
            cached.
        solver_used: the solver that actually produced ``swings``.
        deadline_exceeded: the request's deadline expired while serving
            it; ``swings`` is the best allocation the remaining budget
            could buy.
    """

    request: AllocationRequest
    fingerprint: str
    swings: np.ndarray
    per_rx_throughput: np.ndarray
    system_throughput: float
    channel_cached: bool
    allocation_cached: bool
    latency_seconds: float
    degraded: bool = False
    solver_used: str = ""
    deadline_exceeded: bool = False


@dataclass(frozen=True)
class ServiceOptions:
    """Knobs for :class:`AllocationService`.

    Attributes:
        channel_cache_capacity / allocation_cache_capacity: LRU bounds
            of the channel and allocation caches.
        quantum: placement fingerprint grid [m].
        pool: solver pool knobs (:class:`PoolOptions`).
        resilience: fault-tolerance knobs (retry/backoff, circuit
            breaker, degradation chain, default deadline); see
            :class:`repro.runtime.resilience.ResilienceOptions`.
        faults: optional seedable chaos plan
            (:class:`repro.runtime.faults.FaultPlan`) injected into
            channel computation and solver execution -- test-only.
    """

    channel_cache_capacity: int = 256
    allocation_cache_capacity: int = 1024
    quantum: float = FINGERPRINT_QUANTUM
    pool: PoolOptions = field(default_factory=PoolOptions)
    resilience: ResilienceOptions = field(default_factory=ResilienceOptions)
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise RuntimeEngineError(
                f"quantum must be positive, got {self.quantum}"
            )


class AllocationService:
    """High-throughput allocation serving over one deployment scene.

    The scene fixes the TX grid, receiver hardware and receiver count;
    requests vary the receiver placement, budget and solver.  Channel
    matrices and solved allocations are cached under position-quantized
    keys, cache-missing channels are computed in one broadcast, and
    solves fan out across the process pool.
    """

    def __init__(
        self,
        scene: Scene,
        noise: Optional[AWGNNoise] = None,
        options: Optional[ServiceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if scene.num_receivers == 0:
            raise RuntimeEngineError("the service scene needs receivers")
        self.scene = scene
        self.noise = noise if noise is not None else AWGNNoise()
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        if not hasattr(self.noise, "power"):
            raise RuntimeEngineError(
                "noise must expose a .power attribute (see AWGNNoise); "
                f"got {type(self.noise).__name__}"
            )
        self.options = options if options is not None else ServiceOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Register the request-latency histogram with explicit buckets up
        # front so Prometheus exposition gets cumulative `_bucket` series
        # (later bucket-less lookups accept this configuration).
        self._latency = self.metrics.histogram(
            "service.latency_seconds", buckets=DEFAULT_TIME_BUCKETS
        )
        self._channel_cache = LRUCache(self.options.channel_cache_capacity)
        self._allocation_cache = LRUCache(self.options.allocation_cache_capacity)
        self._resilience = ResiliencePolicy(self.options.resilience, self.metrics)
        self._pool = SolverPool(
            self.options.pool, self.metrics, resilience=self._resilience
        )
        self._base_fingerprint = scene.fingerprint(self.options.quantum)
        self._slo: Optional[SLOObserver] = None
        # Recently served placements, for incremental-channel neighbors.
        self._placement_memory = PlacementMemory(
            NEIGHBORHOOD_MEMORY, scene.num_receivers
        )

    # ------------------------------------------------------------------

    def handle(self, request: AllocationRequest) -> AllocationResult:
        """Serve one request (cache -> batch -> pool)."""
        return self.handle_batch([request])[0]

    def handle_batch(
        self,
        requests: Sequence[AllocationRequest],
        trace_parents: Optional[Sequence[Optional[Span]]] = None,
    ) -> List[AllocationResult]:
        """Serve a batch, amortizing channel computation across it.

        All cache-missing placements become one ``(B, N, M)`` broadcast;
        all cache-missing solves become one pool fan-out.  Results keep
        request order.

        With a tracer attached, every (sampled) request gets its own
        trace: a ``request`` root span with ``channel`` / ``allocation``
        (cache lookup + re-attached solve spans) / ``throughput``
        children.  Batched stages measure one shared window and bracket
        it into every participating trace.  *trace_parents* (aligned
        with *requests*) grafts each request span under an upstream
        span instead -- the cluster front door passes its per-request
        ingest spans here so ``queue -> route -> request -> solve``
        share one trace.
        """
        requests = list(requests)
        if not requests:
            return []
        if trace_parents is not None and len(trace_parents) != len(requests):
            raise RuntimeEngineError(
                f"trace_parents length {len(trace_parents)} does not match "
                f"batch size {len(requests)}"
            )
        start = time.perf_counter()
        self.metrics.counter("service.requests").increment(len(requests))
        tracer = self.tracer
        roots: List[Optional[Span]] = [None] * len(requests)
        if tracer.enabled:
            for i, request in enumerate(requests):
                roots[i] = tracer.start_trace(
                    "request",
                    parent=trace_parents[i] if trace_parents else None,
                    solver=request.solver,
                    tag=request.tag,
                    batch_size=len(requests),
                )
        traced = any(span is not None for span in roots)
        # Admission: each request's latency budget starts ticking now and
        # flows through the allocation stage into pool task timeouts.
        deadlines = [
            self._resilience.deadline_for(r.deadline_seconds) for r in requests
        ]

        stage_start = time.perf_counter() if traced else 0.0
        channels, placement_keys, channel_hits, channel_meta = (
            self._channel_stage(requests)
        )
        if traced:
            stage_end = time.perf_counter()
            for i, root in enumerate(roots):
                if root is None:
                    continue
                root.set_attribute("fingerprint", placement_keys[i])
                tracer.record_span(
                    "channel",
                    parent=root,
                    start=stage_start,
                    end=stage_end,
                    **channel_meta[i],
                )
        swings, allocation_hits, outcomes = self._allocation_stage(
            requests, placement_keys, channels, deadlines, roots
        )

        # One batched Eq.-12 evaluation for the whole response.
        throughput_start = time.perf_counter() if traced else 0.0
        rates = throughput_stack(
            np.stack(channels),
            np.stack(swings),
            self.scene.led,
            self.scene.receivers[0].photodiode,
            self.noise,
        )
        if traced:
            throughput_end = time.perf_counter()
            for root in roots:
                tracer.record_span(
                    "throughput",
                    parent=root,
                    start=throughput_start,
                    end=throughput_end,
                )
        elapsed = time.perf_counter() - start
        per_request = elapsed / len(requests)
        self._refresh_gauges()

        results = []
        for i, request in enumerate(requests):
            root = roots[i]
            # The exemplar links this latency observation's bucket back
            # to its trace; with tracing disabled every root is None and
            # the histogram state is bit-identical to the untraced path.
            self._latency.observe(
                per_request,
                exemplar=root.trace_id if root is not None else None,
            )
            outcome = outcomes[i]
            result = AllocationResult(
                request=request,
                fingerprint=placement_keys[i],
                swings=swings[i],
                per_rx_throughput=rates[i],
                system_throughput=float(rates[i].sum()),
                channel_cached=channel_hits[i],
                allocation_cached=allocation_hits[i],
                latency_seconds=per_request,
                degraded=outcome.degraded if outcome else False,
                solver_used=outcome.solver if outcome else request.solver,
                deadline_exceeded=(
                    outcome.deadline_exceeded if outcome else False
                ),
            )
            results.append(result)
            if self._slo is not None:
                self._slo.observe(
                    per_request,
                    ok=not result.degraded and not result.deadline_exceeded,
                )
            if root is not None:
                root.set_attribute("solver_used", result.solver_used)
                root.set_attribute("degraded", result.degraded)
                root.set_attribute("channel_cached", result.channel_cached)
                root.set_attribute("allocation_cached", result.allocation_cached)
                root.set_attribute(
                    "system_throughput", result.system_throughput
                )
                tracer.finish(root)
        return results

    def metrics_snapshot(self) -> dict:
        """Operational state: counters, cache stats, latency histograms."""
        self._refresh_gauges()
        snapshot = self.metrics.snapshot()
        snapshot["caches"] = {
            "channel": self._channel_cache.stats.as_dict(),
            "allocation": self._allocation_cache.stats.as_dict(),
        }
        return snapshot

    def health(self) -> dict:
        """Degradation state at a glance: circuit, counters, caches.

        ``status`` is ``"ok"`` while the circuit breaker is closed and
        ``"degraded"`` otherwise (solves are being routed around a
        broken pool).  The ``resilience`` block carries the cumulative
        degraded-solve / deadline-expiration / retry counters so an
        operator can tell *how* the service has been coping.

        Every component's block comes from one atomic read: the breaker
        snapshot under the breaker lock, each cache's size + stats
        (including occupancy) under that cache's lock.  The cluster
        controller polls this concurrently from its event loop while
        shard threads are serving, so a field-by-field read here would
        hand the rollup torn hit/miss pairs.
        """
        self._resilience.refresh_gauges()
        snapshot = self._resilience.snapshot()
        circuit = snapshot["circuit"]
        health: Dict[str, Any] = {
            "status": "ok" if circuit["state"] == "closed" else "degraded",
            "circuit": circuit,
            "resilience": snapshot["counters"],
            "pool": {
                "workers": self.options.pool.max_workers,
                "task_timeout": self.options.pool.task_timeout,
            },
            "caches": {
                "channel": self._channel_cache.snapshot(),
                "allocation": self._allocation_cache.snapshot(),
            },
        }
        if self._slo is not None:
            slo = self._slo.snapshot()
            health["slo"] = slo
            if health["status"] == "ok" and not slo.get("healthy", True):
                health["status"] = "degraded"
        return health

    def attach_slo(self, observer: Optional[SLOObserver]) -> None:
        """Attach (or with None, detach) a rolling SLO tracker.

        The tracker is fed every served request's latency and promise
        outcome; :meth:`health` then carries its snapshot under
        ``"slo"`` and degrades the overall status when an objective's
        error budget is exhausted.
        """
        self._slo = observer

    @property
    def slo(self) -> Optional[SLOObserver]:
        """The attached SLO tracker, if any."""
        return self._slo

    @property
    def resilience(self) -> ResiliencePolicy:
        """The service's resilience policy (breaker + retry + counters).

        Public so the cluster layer can consult the circuit breaker for
        shard routing without reaching into privates.
        """
        return self._resilience

    @property
    def base_fingerprint(self) -> str:
        """The scene-level fingerprint requests' placement keys extend."""
        return self._base_fingerprint

    @property
    def channel_hit_rate(self) -> float:
        return self._channel_cache.stats.hit_rate

    @property
    def allocation_hit_rate(self) -> float:
        return self._allocation_cache.stats.hit_rate

    # ------------------------------------------------------------------

    def _placement_key(self, positions: Tuple[Tuple[float, float], ...]) -> str:
        return placement_fingerprint(
            self._base_fingerprint, positions, self.options.quantum
        )

    def _incremental_channels(
        self, keys: Sequence[str], positions: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Build misses' matrices from near neighbours' columns, in one call.

        For each query (``keys[q]`` at ``positions[q]``) takes the
        remembered placement differing in the fewest receivers whose
        matrix is still cached, and recomputes only the moved columns;
        all of the batch's moved columns go through one stacked
        :func:`channel_matrix_update`.  Returns ``{query: matrix}``,
        without the queries whose every neighbour moved wholesale.
        """
        peeked: Dict[str, Optional[np.ndarray]] = {}
        found: List[int] = []
        bases: List[np.ndarray] = []
        moved_pairs: List[np.ndarray] = []
        for query, candidates in enumerate(
            self._placement_memory.neighbors(keys, positions)
        ):
            for neighbor_key, moved in candidates:
                if neighbor_key not in peeked:
                    peeked[neighbor_key] = self._channel_cache.peek(neighbor_key)
                base = peeked[neighbor_key]
                if base is not None:
                    moved_pairs.append(
                        np.stack((np.full_like(moved, len(found)), moved), axis=1)
                    )
                    found.append(query)
                    bases.append(base)
                    break
        if not found:
            return {}
        pairs = np.concatenate(moved_pairs)
        moved_xy = positions[np.array(found)[pairs[:, 0]], pairs[:, 1]]
        with self.metrics.timer("service.channel_incremental_seconds"):
            stack = channel_matrix_update(
                self.scene, np.stack(bases), moved_xy, pairs
            )
        self.metrics.counter("service.channel_incremental").increment(len(found))
        return dict(zip(found, stack))

    def _screen_channel(
        self, key: str, positions: np.ndarray, matrix: np.ndarray
    ) -> "tuple[np.ndarray, bool]":
        """Detect (and repair) corrupted freshly computed channel matrices.

        The chaos plan's corruption fault is applied first (attempt 0);
        any non-finite matrix -- injected or genuine -- is then caught
        before it can poison the cache, and recomputed from scratch.
        Returns ``(matrix, repaired)``.
        """
        plan = self.options.faults
        if plan is not None:
            matrix = plan.maybe_corrupt_channel(matrix, key, attempt=0)
        if np.isfinite(matrix).all():
            return matrix, False
        self._resilience.count("channel_repairs")
        with self.metrics.timer("service.channel_seconds"):
            rebuilt = channel_matrix_stack(self.scene, positions[None, :, :])[0]
        if plan is not None:
            rebuilt = plan.maybe_corrupt_channel(rebuilt, key, attempt=1)
        if not np.isfinite(rebuilt).all():
            raise ChannelError(
                f"channel matrix for {key} is non-finite after recompute"
            )
        return rebuilt, True

    def _channel_stage(self, requests):
        """Resolve every request's channel matrix, batching the misses.

        Misses first try the incremental path (recompute only the moved
        receivers' columns of a remembered neighbour placement, one
        stacked update for the batch); whatever remains becomes one
        batched broadcast.  Neighbours are looked up against the memory
        as it stood when the batch arrived.  The returned per-request
        ``channel_meta`` dicts carry each request's cache outcome
        (``hit`` / ``incremental`` / ``computed``) and repair flag for
        the trace layer; the counters are incremented once per batch.
        """
        placement_keys = [
            self._placement_key(r.rx_positions_xy) for r in requests
        ]
        channels: List[Optional[np.ndarray]] = [None] * len(requests)
        channel_hits = [False] * len(requests)
        channel_meta: List[dict] = [
            {"outcome": "hit", "repaired": False} for _ in requests
        ]
        miss_keys: Dict[str, List[int]] = {}
        for i, key in enumerate(placement_keys):
            cached = self._channel_cache.get(key)
            if cached is not None:
                channels[i] = cached
                channel_hits[i] = True
            else:
                miss_keys.setdefault(key, []).append(i)
        hits = sum(channel_hits)
        if hits:
            self.metrics.counter("service.channel_hits").increment(hits)
        if miss_keys:
            self.metrics.counter("service.channel_misses").increment(len(miss_keys))
            keys = list(miss_keys)
            num_receivers = self.scene.num_receivers
            for slots in miss_keys.values():
                count = len(requests[slots[0]].rx_positions_xy)
                if count != num_receivers:
                    raise GeometryError(
                        f"expected {num_receivers} receivers per placement, "
                        f"got {count}"
                    )
            positions = np.array(
                [requests[slots[0]].rx_positions_xy for slots in miss_keys.values()],
                dtype=float,
            )
            incremental = self._incremental_channels(keys, positions)
            fresh = [
                (query, matrix, "incremental")
                for query, matrix in incremental.items()
            ]
            computed = [q for q in range(len(keys)) if q not in incremental]
            if computed:
                with self.metrics.timer("service.channel_seconds"):
                    stack = channel_matrix_stack(self.scene, positions[computed])
                fresh.extend(
                    (query, matrix, "computed")
                    for query, matrix in zip(computed, stack)
                )
            for query, matrix, outcome in fresh:
                key = keys[query]
                matrix, repaired = self._screen_channel(
                    key, positions[query], matrix
                )
                self._channel_cache.put(key, matrix)
                self._placement_memory.remember(key, positions[query])
                for i in miss_keys[key]:
                    channels[i] = matrix
                    channel_meta[i] = {"outcome": outcome, "repaired": repaired}
        for i, key in enumerate(placement_keys):
            if channel_hits[i]:
                self._placement_memory.touch(key)
        outcomes = Counter(meta["outcome"] for meta in channel_meta)
        for outcome, count in outcomes.items():
            self.metrics.counter(
                "service.channel_outcomes", outcome=outcome
            ).increment(count)
        return channels, placement_keys, channel_hits, channel_meta

    def _allocation_stage(
        self, requests, placement_keys, channels, deadlines, roots=None
    ):
        """Resolve every request's allocation, fanning misses to the pool.

        Each miss group's solve carries the tightest deadline of its requests into the
        pool; degraded outcomes (fallback solver, expired deadline) are
        flagged on the results and kept out of the caches so a healthy
        retry is never served a degraded allocation.

        For traced requests (*roots* entries that are spans) the stage
        opens an ``allocation`` span per request, nests the cache lookup
        under it, marks miss-group tasks as traced so the pool records
        worker-side solve spans, and re-attaches the returned payloads.
        """
        tracer = self.tracer
        if roots is None:
            roots = [None] * len(requests)
        traced = any(span is not None for span in roots)
        stage_start = time.perf_counter() if traced else 0.0
        alloc_spans: List[Optional[Span]] = [None] * len(requests)
        swings: List[Optional[np.ndarray]] = [None] * len(requests)
        allocation_hits = [False] * len(requests)
        outcomes: List[Optional[SolveOutcome]] = [None] * len(requests)
        miss_slots: Dict[Tuple, List[int]] = {}
        for i, request in enumerate(requests):
            key = (
                placement_keys[i],
                float(request.power_budget),
                request.solver,
                float(request.kappa),
            )
            span = None
            if roots[i] is not None:
                span = tracer.start_span(
                    "allocation", roots[i], start=stage_start,
                    solver=request.solver,
                )
                alloc_spans[i] = span
                lookup_start = time.perf_counter()
            cached = self._allocation_cache.get(key)
            if span is not None:
                outcome_label = "hit" if cached is not None else "miss"
                tracer.record_span(
                    "cache",
                    parent=span,
                    start=lookup_start,
                    end=time.perf_counter(),
                    kind="allocation",
                    outcome=outcome_label,
                )
                span.set_attribute("cache_outcome", outcome_label)
            if cached is not None:
                swings[i] = cached
                allocation_hits[i] = True
            else:
                miss_slots.setdefault(key, []).append(i)
        hits = sum(allocation_hits)
        if hits:
            self.metrics.counter("service.allocation_hits").increment(hits)
            self.metrics.counter(
                "service.allocation_outcomes", outcome="hit"
            ).increment(hits)
        if hits < len(requests):
            self.metrics.counter(
                "service.allocation_outcomes", outcome="miss"
            ).increment(len(requests) - hits)
        if miss_slots:
            self.metrics.counter("service.allocation_misses").increment(
                len(miss_slots)
            )
            tasks = []
            for key, slots in miss_slots.items():
                request = requests[slots[0]]
                group_deadline = min(
                    (deadlines[i] for i in slots),
                    key=lambda d: d.expires_at,
                )
                tasks.append(
                    SolveTask(
                        channel=channels[slots[0]],
                        power_budget=request.power_budget,
                        solver=request.solver,
                        kappa=request.kappa,
                        led=self.scene.led,
                        photodiode=self.scene.receivers[0].photodiode,
                        noise=self.noise,
                        deadline=(
                            group_deadline.expires_at
                            if group_deadline.bounded
                            else None
                        ),
                        faults=self.options.faults,
                        fault_key=key,
                        traced=any(alloc_spans[i] is not None for i in slots),
                    )
                )
            with self.metrics.timer("service.solve_seconds"):
                solved = self._pool.solve_outcomes(tasks)
            for outcome, (key, slots) in zip(solved, miss_slots.items()):
                matrix = outcome.swings
                if not outcome.degraded:
                    # Degraded results stay out of the caches: a later
                    # healthy solve under the same key must not inherit
                    # a timed-out fallback allocation.
                    self._allocation_cache.put(key, matrix)
                for i in slots:
                    swings[i] = matrix
                    outcomes[i] = outcome
                    span = alloc_spans[i]
                    if span is not None:
                        span.attributes.update(
                            solver_used=outcome.solver,
                            degraded=outcome.degraded,
                            retries=outcome.retries,
                            circuit_open=outcome.circuit_open,
                            deadline_exceeded=outcome.deadline_exceeded,
                        )
                        # A shared group solve re-attaches into every
                        # participating request's trace.
                        tracer.attach_payload(outcome.spans, span)
        if traced:
            for span in alloc_spans:
                tracer.finish(span)
        return swings, allocation_hits, outcomes

    def _refresh_gauges(self) -> None:
        self.metrics.gauge("service.channel_cache_size").set(
            len(self._channel_cache)
        )
        self.metrics.gauge("service.allocation_cache_size").set(
            len(self._allocation_cache)
        )
        self.metrics.gauge("service.channel_hit_rate").set(
            self._channel_cache.stats.hit_rate
        )
        self.metrics.gauge("service.allocation_hit_rate").set(
            self._allocation_cache.stats.hit_rate
        )
        self._resilience.refresh_gauges()


# ----------------------------------------------------------------------
# The `repro bench` workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkReport:
    """Latency/throughput summary of one ``repro bench`` run."""

    requests: int
    duration_seconds: float
    requests_per_second: float
    p50_latency_ms: float
    p95_latency_ms: float
    channel_hit_rate: float
    allocation_hit_rate: float
    solver: str
    workers: int
    solver_stage_ms: Dict[str, float] = field(default_factory=dict)
    solver_counters: Dict[str, float] = field(default_factory=dict)
    health_status: str = "ok"
    circuit_state: str = "closed"
    resilience_counters: Dict[str, float] = field(default_factory=dict)
    stage_breakdown: Dict[str, Dict[str, float]] = field(default_factory=dict)
    traced_spans: int = 0
    dropped_spans: int = 0
    tracing_overhead_ms: float = 0.0
    slo: Dict[str, Any] = field(default_factory=dict)

    def lines(self) -> List[str]:
        lines = [
            f"requests            {self.requests}",
            f"solver              {self.solver}",
            f"pool workers        {self.workers}",
            f"total time          {self.duration_seconds * 1e3:.1f} ms",
            f"throughput          {self.requests_per_second:.1f} req/s",
            f"latency p50         {self.p50_latency_ms:.3f} ms",
            f"latency p95         {self.p95_latency_ms:.3f} ms",
            f"channel hit-rate    {100 * self.channel_hit_rate:.1f}%",
            f"allocation hit-rate {100 * self.allocation_hit_rate:.1f}%",
            f"health              {self.health_status} "
            f"(circuit {self.circuit_state})",
        ]
        if self.stage_breakdown:
            lines.append("")
            lines.append(
                f"{'stage':<22} {'count':>7} {'mean ms':>9} "
                f"{'p95 ms':>9} {'total ms':>9}"
            )
            for stage, stats in sorted(self.stage_breakdown.items()):
                lines.append(
                    f"{stage:<22} {stats['count']:>7.0f} "
                    f"{stats['mean_ms']:>9.3f} {stats['p95_ms']:>9.3f} "
                    f"{stats['total_ms']:>9.1f}"
                )
            lines.append("")
        for stage, mean_ms in sorted(self.solver_stage_ms.items()):
            label = stage.removeprefix("optimizer.").removesuffix("_seconds")
            lines.append(f"stage {label:<13} {mean_ms:.3f} ms mean")
        for name, value in sorted(self.solver_counters.items()):
            label = name.removeprefix("optimizer.")
            lines.append(f"solver {label:<12} {value:.0f}")
        for name, value in sorted(self.resilience_counters.items()):
            label = name.removeprefix("resilience.")
            lines.append(f"resilience {label:<17} {value:.0f}")
        if self.traced_spans:
            lines.append(f"traced spans        {self.traced_spans}")
        if self.tracing_overhead_ms:
            lines.append(
                f"tracing overhead    {self.tracing_overhead_ms:.3f} ms"
            )
        if self.dropped_spans:
            lines.append(
                f"WARNING: {self.dropped_spans} spans dropped (buffer "
                "full) -- attribution below is incomplete; raise "
                "TracingOptions.max_spans"
            )
        for objective in self.slo.get("objectives", []):
            lines.append(
                f"slo {objective['name']:<15} "
                f"{100 * objective['compliance']:.2f}% "
                f"(target {100 * objective['target']:.1f}%, budget "
                f"{100 * objective['budget_remaining']:.1f}% left)"
            )
        return lines

    def as_dict(self) -> dict:
        """A machine-readable view (``benchmarks/results/bench_runtime.json``)."""
        return {
            "requests": self.requests,
            "duration_seconds": self.duration_seconds,
            "requests_per_second": self.requests_per_second,
            "p50_latency_ms": self.p50_latency_ms,
            "p95_latency_ms": self.p95_latency_ms,
            "channel_hit_rate": self.channel_hit_rate,
            "allocation_hit_rate": self.allocation_hit_rate,
            "solver": self.solver,
            "workers": self.workers,
            "solver_stage_ms": dict(self.solver_stage_ms),
            "solver_counters": dict(self.solver_counters),
            "health_status": self.health_status,
            "circuit_state": self.circuit_state,
            "resilience_counters": dict(self.resilience_counters),
            "stage_breakdown": {
                stage: dict(stats)
                for stage, stats in self.stage_breakdown.items()
            },
            "traced_spans": self.traced_spans,
            "dropped_spans": self.dropped_spans,
            "tracing_overhead_ms": self.tracing_overhead_ms,
            "slo": dict(self.slo),
        }


def _solver_stage_summary(
    snapshot: dict,
) -> "tuple[Dict[str, float], Dict[str, float]]":
    """Mean optimizer stage timings [ms] and counters from a snapshot."""
    stages = {
        name: 1e3 * data.get("mean", 0.0)
        for name, data in snapshot.get("histograms", {}).items()
        if name.startswith("optimizer.")
        and name.endswith("_seconds")
        and data.get("count", 0)
    }
    counters = {
        name: value
        for name, value in snapshot.get("counters", {}).items()
        if name.startswith("optimizer.")
    }
    return stages, counters


def _stage_breakdown(snapshot: dict) -> Dict[str, Dict[str, float]]:
    """Per-stage latency summary from service/pool timing histograms."""
    breakdown: Dict[str, Dict[str, float]] = {}
    for name, data in snapshot.get("histograms", {}).items():
        if not name.endswith("_seconds"):
            continue
        if not name.startswith(("service.", "pool.")):
            continue
        count = data.get("count", 0)
        if not count:
            continue
        mean = data.get("mean", 0.0)
        breakdown[name.removesuffix("_seconds")] = {
            "count": float(count),
            "mean_ms": 1e3 * mean,
            "p95_ms": 1e3 * data.get("p95", 0.0),
            "total_ms": 1e3 * mean * count,
        }
    return breakdown


def benchmark_service(
    distinct_placements: int = 25,
    cache_capacity: int = 256,
    workers: int = 0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> AllocationService:
    """An :class:`AllocationService` over the ``repro bench`` scene.

    The CLI uses this to hold onto the service (its metrics registry and
    tracer) across a :func:`run_benchmark` call, so it can export the
    trace and the Prometheus/JSON metric expositions afterwards.
    """
    from ..experiments.scenarios import fig6_instances

    placements = fig6_instances(
        instances=max(1, distinct_placements), seed=seed
    )
    scene = simulation_scene([(float(x), float(y)) for x, y in placements[0]])
    return AllocationService(
        scene,
        options=ServiceOptions(
            channel_cache_capacity=cache_capacity,
            allocation_cache_capacity=4 * cache_capacity,
            pool=PoolOptions(max_workers=workers),
        ),
        tracer=tracer,
    )


def run_benchmark(
    requests: int = 100,
    distinct_placements: int = 25,
    solver: str = "heuristic",
    power_budget: float = 1.2,
    workers: int = 0,
    cache_capacity: int = 256,
    batch_size: int = 1,
    seed: int = 0,
    scene: Optional[Scene] = None,
    service: Optional[AllocationService] = None,
    deadline_seconds: Optional[float] = None,
    tracer: Optional[Tracer] = None,
    slo: Optional[SLOObserver] = None,
) -> BenchmarkReport:
    """Serve a Fig. 6-style random-placement workload and time it.

    *requests* placements are drawn (with repetition) from
    *distinct_placements* random Fig. 6 instances, so the steady-state
    cache hit-rate is positive by construction -- exactly the locality a
    mobility workload exhibits.

    A *tracer* (ignored when *service* is given -- the service already
    owns one) captures every request's span tree; export it afterwards
    with :meth:`~repro.runtime.tracing.Tracer.export_chrome_trace`.
    """
    from ..experiments.scenarios import fig6_instances

    if requests < 1:
        raise RuntimeEngineError(f"need at least 1 request, got {requests}")
    distinct = max(1, min(distinct_placements, requests))
    placements = fig6_instances(instances=distinct, seed=seed)
    if service is None:
        if scene is None:
            scene = simulation_scene(
                [(float(x), float(y)) for x, y in placements[0]]
            )
        service = AllocationService(
            scene,
            options=ServiceOptions(
                channel_cache_capacity=cache_capacity,
                allocation_cache_capacity=4 * cache_capacity,
                pool=PoolOptions(max_workers=workers),
            ),
            tracer=tracer,
        )
    if slo is not None:
        service.attach_slo(slo)
    if distinct >= requests:
        # One request per distinct placement: a fully cold workload.
        order = np.arange(requests)
    else:
        rng = np.random.default_rng(seed)
        order = rng.integers(0, distinct, size=requests)
    batch: List[AllocationRequest] = []
    start = time.perf_counter()
    for n, index in enumerate(order):
        request = AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[int(index)]
            ),
            power_budget=power_budget,
            solver=solver,
            tag=f"bench-{n}",
            deadline_seconds=deadline_seconds,
        )
        if batch_size <= 1:
            service.handle(request)
        else:
            batch.append(request)
            if len(batch) >= batch_size:
                service.handle_batch(batch)
                batch = []
    if batch:
        service.handle_batch(batch)
    duration = time.perf_counter() - start
    latency = service.metrics.histogram("service.latency_seconds")
    snapshot = service.metrics.snapshot()
    stage_ms, stage_counters = _solver_stage_summary(snapshot)
    health = service.health()
    return BenchmarkReport(
        requests=requests,
        duration_seconds=duration,
        requests_per_second=requests / duration if duration > 0 else float("inf"),
        p50_latency_ms=1e3 * latency.percentile(50.0),
        p95_latency_ms=1e3 * latency.percentile(95.0),
        channel_hit_rate=service.channel_hit_rate,
        allocation_hit_rate=service.allocation_hit_rate,
        solver=solver,
        workers=workers,
        solver_stage_ms=stage_ms,
        solver_counters=stage_counters,
        health_status=health["status"],
        circuit_state=health["circuit"]["state"],
        resilience_counters=health["resilience"],
        stage_breakdown=_stage_breakdown(snapshot),
        traced_spans=len(service.tracer.finished_spans()),
        dropped_spans=service.tracer.dropped_spans,
        tracing_overhead_ms=1e3 * service.tracer.overhead_seconds,
        slo=dict(health.get("slo", {})),
    )
