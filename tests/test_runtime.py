"""Tests for the allocation-serving runtime engine (repro.runtime)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.channel import (
    channel_matrix,
    channel_matrix_stack,
    sinr_stack,
    throughput_stack,
)
from repro.cli import main as cli_main
from repro.constants import SOLVER_NAMES
from repro.core import AllocationProblem, RankingHeuristic
from repro.errors import RuntimeEngineError
from repro.experiments.scenarios import fig6_instances
from repro.runtime import (
    AllocationRequest,
    AllocationService,
    LRUCache,
    MetricsRegistry,
    PoolOptions,
    SOLVERS,
    ServiceOptions,
    SolverPool,
    SolveTask,
    run_benchmark,
    solve_task,
)
from repro.runtime.service import PlacementMemory
from repro.system import simulation_scene


@pytest.fixture(scope="module")
def placements():
    return fig6_instances(instances=6, seed=3)


@pytest.fixture(scope="module")
def base_scene(placements):
    return simulation_scene([(float(x), float(y)) for x, y in placements[0]])


# ----------------------------------------------------------------------
# cache.py
# ----------------------------------------------------------------------


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.peek("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_hit_rate(self):
        cache = LRUCache(capacity=4)
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.get("missing") is None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_invalid_capacity(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LRUCache(capacity=0)

    def test_cached_arrays_are_read_only(self):
        """Mutating a cache hit must raise, not poison every consumer."""
        cache = LRUCache(capacity=4)
        cache.put("m", np.ones((3, 2)))
        hit = cache.get("m")
        with pytest.raises(ValueError):
            hit[0, 0] = 99.0
        np.testing.assert_array_equal(cache.get("m"), np.ones((3, 2)))


# ----------------------------------------------------------------------
# Scene.fingerprint
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_rebuilds(self, placements):
        xy = [(float(x), float(y)) for x, y in placements[0]]
        assert (
            simulation_scene(xy).fingerprint()
            == simulation_scene(xy).fingerprint()
        )

    def test_perturbation_beyond_quantum_changes_key(self, base_scene):
        moved = base_scene.with_receivers_at(
            [(rx.position[0] + 0.01, rx.position[1]) for rx in base_scene.receivers]
        )
        assert moved.fingerprint() != base_scene.fingerprint()

    def test_perturbation_below_quantum_hits(self, base_scene):
        moved = base_scene.with_receivers_at(
            [(rx.position[0] + 1e-5, rx.position[1]) for rx in base_scene.receivers]
        )
        assert moved.fingerprint() == base_scene.fingerprint()

    def test_device_change_changes_key(self, placements):
        from repro.optics import cree_xte_paper_power

        xy = [(float(x), float(y)) for x, y in placements[0]]
        assert (
            simulation_scene(xy, led=cree_xte_paper_power()).fingerprint()
            != simulation_scene(xy).fingerprint()
        )

    def test_invalid_quantum(self, base_scene):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            base_scene.fingerprint(quantum=0.0)


# ----------------------------------------------------------------------
# channel and throughput stacks
# ----------------------------------------------------------------------


class TestBatchEvaluator:
    def test_channel_stack_matches_per_scene_matrices(
        self, base_scene, placements
    ):
        stack = channel_matrix_stack(base_scene, placements)
        assert stack.shape == (
            len(placements),
            base_scene.num_transmitters,
            base_scene.num_receivers,
        )
        for t in range(len(placements)):
            moved = base_scene.with_receivers_at(
                [(float(x), float(y)) for x, y in placements[t]]
            )
            np.testing.assert_allclose(
                stack[t], channel_matrix(moved), rtol=1e-12, atol=0
            )

    def test_throughput_stack_matches_problem_evaluation(
        self, base_scene, placements
    ):
        stack = channel_matrix_stack(base_scene, placements)
        problems = [
            AllocationProblem(channel=stack[t], power_budget=1.2)
            for t in range(len(placements))
        ]
        allocations = [RankingHeuristic().solve(p) for p in problems]
        swings = np.stack([a.swings for a in allocations])
        reference = problems[0]
        rates = throughput_stack(
            stack, swings, reference.led, reference.photodiode, reference.noise
        )
        sinrs = sinr_stack(
            stack, swings, reference.led, reference.photodiode, reference.noise
        )
        for t, allocation in enumerate(allocations):
            np.testing.assert_allclose(rates[t], allocation.throughput, rtol=1e-12)
            np.testing.assert_allclose(sinrs[t], allocation.sinr, rtol=1e-12)

    def test_shared_channel_broadcasts_over_swings(self, base_scene):
        channel = channel_matrix(base_scene)
        problem = AllocationProblem(channel=channel, power_budget=1.2)
        allocation = RankingHeuristic().solve(problem)
        swings = np.stack([allocation.swings, problem.zero_allocation()])
        rates = throughput_stack(
            channel, swings, problem.led, problem.photodiode, problem.noise
        )
        np.testing.assert_allclose(rates[0], allocation.throughput, rtol=1e-12)
        np.testing.assert_allclose(rates[1], 0.0)

    def test_placement_outside_room_raises(self, base_scene):
        from repro.errors import GeometryError

        bad = np.full((1, base_scene.num_receivers, 2), -1.0)
        with pytest.raises(GeometryError):
            channel_matrix_stack(base_scene, bad)


# ----------------------------------------------------------------------
# pool.py
# ----------------------------------------------------------------------


class TestSolverPool:
    @pytest.fixture(scope="class")
    def tasks(self, placements, base_scene):
        stack = channel_matrix_stack(base_scene, placements)
        return [
            SolveTask(channel=stack[t], power_budget=1.2, solver=solver)
            for t in range(len(placements))
            for solver in ("heuristic", "greedy")
        ]

    def test_serial_parallel_identical(self, tasks):
        serial = SolverPool(PoolOptions(max_workers=0)).solve_many(tasks)
        parallel = SolverPool(PoolOptions(max_workers=2)).solve_many(tasks)
        assert len(serial) == len(parallel) == len(tasks)
        for expected, actual in zip(serial, parallel):
            np.testing.assert_allclose(actual, expected, atol=1e-9, rtol=0)

    def test_solve_task_matches_direct_solver(self, tasks):
        task = tasks[0]
        direct = RankingHeuristic(kappa=task.kappa).solve(task.problem())
        np.testing.assert_array_equal(solve_task(task), direct.swings)

    def test_unknown_solver_rejected(self, tasks):
        bad = SolveTask(channel=tasks[0].channel, power_budget=1.2, solver="nope")
        with pytest.raises(RuntimeEngineError):
            solve_task(bad)

    def test_pool_metrics_counted(self, tasks):
        metrics = MetricsRegistry()
        SolverPool(PoolOptions(max_workers=0), metrics).solve_many(tasks[:3])
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["pool.tasks"] == 3
        assert snapshot["histograms"]["pool.solve_seconds"]["count"] == 3


# ----------------------------------------------------------------------
# metrics.py
# ----------------------------------------------------------------------


class TestMetrics:
    def test_snapshot_contents(self):
        registry = MetricsRegistry()
        registry.counter("requests").increment(5)
        registry.gauge("cache_size").set(7)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("latency").observe(value)
        with registry.timer("timed"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 5
        assert snapshot["gauges"]["cache_size"] == 7
        latency = snapshot["histograms"]["latency"]
        assert latency["count"] == 4
        assert latency["mean"] == pytest.approx(2.5)
        assert latency["min"] == 1.0
        assert latency["max"] == 4.0
        assert latency["p50"] == pytest.approx(2.5)
        assert snapshot["histograms"]["timed"]["count"] == 1

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50.0) == pytest.approx(50.5)
        assert histogram.percentile(95.0) == pytest.approx(95.05)

    def test_repeated_lookup_builds_no_new_instrument(self, monkeypatch):
        from repro.runtime import metrics as metrics_module

        built = []

        def counting(kind):
            class Counting(kind):
                def __init__(self):
                    built.append(kind.__name__)
                    super().__init__()

            return Counting

        monkeypatch.setattr(metrics_module, "Counter", counting(metrics_module.Counter))
        monkeypatch.setattr(metrics_module, "Gauge", counting(metrics_module.Gauge))
        registry = MetricsRegistry()
        counter = registry.counter("hits", shard="a")
        gauge = registry.gauge("size")
        assert built == ["Counter", "Gauge"]
        for _ in range(3):
            assert registry.counter("hits", shard="a") is counter
            assert registry.gauge("size") is gauge
        assert built == ["Counter", "Gauge"]
        # A different label set is a different instrument.
        assert registry.counter("hits", shard="b") is not counter
        assert built == ["Counter", "Gauge", "Counter"]

    def test_counter_rejects_negative(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").increment(-1)

    def test_empty_histogram_statistics_raise(self):
        # Pre-fix, percentile() on an empty reservoir silently returned
        # 0.0 and mean returned 0.0 -- indistinguishable from a real
        # zero-latency measurement.
        from repro.errors import ConfigurationError

        histogram = MetricsRegistry().histogram("empty")
        with pytest.raises(ConfigurationError):
            histogram.percentile(50.0)
        with pytest.raises(ConfigurationError):
            histogram.mean
        assert histogram.as_dict() == {"count": 0}

    def test_snapshot_and_exposition_skip_empty_reservoirs(self):
        registry = MetricsRegistry()
        registry.histogram("never.observed", buckets=(0.1, 1.0))
        registry.histogram("seen").observe(1.0)
        snapshot = registry.snapshot()
        assert "never.observed" not in snapshot["histograms"]
        assert snapshot["histograms"]["seen"]["count"] == 1
        text = registry.expose_prometheus(prefix="repro_")
        assert "never_observed" not in text
        assert "repro_seen_count 1" in text

    def test_labeled_instruments_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("solve", mode="optimal").increment(2)
        registry.counter("solve", mode="heuristic").increment()
        registry.counter("solve").increment(5)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['solve{mode="optimal"}'] == 2
        assert snapshot["counters"]['solve{mode="heuristic"}'] == 1
        # unlabeled instruments keep their plain names
        assert snapshot["counters"]["solve"] == 5
        # same labels in any declaration order -> same instrument
        registry.counter("multi", a="1", b="2").increment()
        registry.counter("multi", b="2", a="1").increment()
        assert registry.snapshot()["counters"]['multi{a="1",b="2"}'] == 2

    def test_histogram_reservoir_size_conflict(self):
        from repro.errors import ConfigurationError

        registry = MetricsRegistry()
        histogram = registry.histogram("latency", reservoir_size=8)
        for value in range(100):
            histogram.observe(float(value))
        # the reservoir really is bounded at the configured size
        assert histogram.percentile(0.0) == 92.0
        # omitting the parameter accepts the existing configuration
        assert registry.histogram("latency") is histogram
        assert registry.histogram("latency", reservoir_size=8) is histogram
        with pytest.raises(ConfigurationError):
            registry.histogram("latency", reservoir_size=16)

    def test_histogram_bucket_configuration(self):
        from repro.errors import ConfigurationError

        registry = MetricsRegistry()
        histogram = registry.histogram("t", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        stats = histogram.as_dict()
        assert stats["buckets"] == {
            0.1: 1, 1.0: 2, 10.0: 3, float("inf"): 4,
        }
        with pytest.raises(ConfigurationError):
            registry.histogram("t", buckets=(0.5, 1.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("bad", buckets=(1.0, 1.0))

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("service.requests").increment(3)
        registry.counter("solve", mode="optimal").increment()
        registry.gauge("cache.size").set(4)
        bucketed = registry.histogram("latency", buckets=(0.1, 1.0))
        bucketed.observe(0.05)
        bucketed.observe(0.5)
        registry.histogram("plain").observe(2.0)
        text = registry.expose_prometheus(prefix="repro_")
        assert "# TYPE repro_service_requests_total counter" in text
        assert "repro_service_requests_total 3.0" in text
        assert 'repro_solve_total{mode="optimal"} 1.0' in text
        assert "repro_cache_size 4.0" in text
        assert 'repro_latency_bucket{le="0.1"} 1' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        assert "repro_latency_count 2" in text
        assert 'repro_plain{quantile="0.5"} 2.0' in text
        # every line is either a comment or name{labels} value
        for line in text.strip().splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2

    def test_snapshot_consistent_under_concurrent_writes(self):
        """Snapshots must be internally consistent, not torn.

        Regression: Gauge.set was unlocked and Histogram.as_dict took
        the lock once per statistic, so a snapshot could mix values from
        different instants (e.g. count from one write, mean from
        another).  Writers here keep every histogram observation equal
        to the gauge value; a torn read shows up as a histogram whose
        min != max or a mean inconsistent with them.
        """
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()
        stop = []

        def writer(value):
            while not stop:
                registry.gauge("g").set(value)
                # one histogram per writer: all observations identical,
                # so any self-consistent snapshot has min == mean == max
                registry.histogram(f"h{value}").observe(value)
                registry.counter("writes").increment()

        def reader():
            problems = []
            for _ in range(200):
                snapshot = registry.snapshot()
                for name, stats in snapshot["histograms"].items():
                    if stats["count"] == 0:
                        continue
                    if not (
                        stats["min"] == stats["max"] == pytest.approx(stats["mean"])
                    ):
                        problems.append((name, stats))
            return problems

        with ThreadPoolExecutor(max_workers=4) as pool:
            writers = [pool.submit(writer, float(v)) for v in (1.0, 2.0)]
            readers = [pool.submit(reader) for _ in range(2)]
            problems = [p for f in readers for p in f.result()]
            stop.append(True)
            for f in writers:
                f.result()

        assert problems == []
        final = registry.snapshot()
        assert final["gauges"]["g"] in (1.0, 2.0)
        assert final["counters"]["writes"] > 0


# ----------------------------------------------------------------------
# service.py
# ----------------------------------------------------------------------


class TestAllocationService:
    @pytest.fixture()
    def service(self, base_scene):
        return AllocationService(base_scene)

    def _request(self, placements, index, **kwargs):
        return AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[index]
            ),
            power_budget=kwargs.pop("power_budget", 1.2),
            **kwargs,
        )

    def test_repeat_requests_hit_both_caches(self, service, placements):
        first = service.handle(self._request(placements, 1))
        second = service.handle(self._request(placements, 1))
        assert not first.channel_cached and not first.allocation_cached
        assert second.channel_cached and second.allocation_cached
        np.testing.assert_array_equal(first.swings, second.swings)
        assert service.channel_hit_rate > 0
        assert service.allocation_hit_rate > 0

    def test_cached_result_matches_direct_solve(self, service, placements):
        result = service.handle(self._request(placements, 2))
        moved = service.scene.with_receivers_at(
            [(float(x), float(y)) for x, y in placements[2]]
        )
        problem = AllocationProblem(
            channel=channel_matrix(moved),
            power_budget=1.2,
            led=service.scene.led,
            photodiode=service.scene.receivers[0].photodiode,
            noise=service.noise,
        )
        direct = RankingHeuristic().solve(problem)
        np.testing.assert_allclose(result.swings, direct.swings, atol=1e-9)
        np.testing.assert_allclose(
            result.per_rx_throughput, direct.throughput, rtol=1e-9
        )
        assert result.system_throughput == pytest.approx(
            direct.system_throughput, rel=1e-9
        )

    def test_budget_is_part_of_allocation_key(self, service, placements):
        low = service.handle(self._request(placements, 0, power_budget=0.3))
        high = service.handle(self._request(placements, 0, power_budget=1.8))
        assert not high.allocation_cached  # same placement, new budget
        assert high.channel_cached  # channel reused across budgets
        assert np.count_nonzero(high.swings) >= np.count_nonzero(low.swings)

    def test_batch_matches_singles(self, base_scene, placements):
        singles = AllocationService(base_scene)
        batched = AllocationService(base_scene)
        requests = [self._request(placements, i % 3) for i in range(6)]
        expected = [singles.handle(r) for r in requests]
        actual = batched.handle_batch(requests)
        for e, a in zip(expected, actual):
            np.testing.assert_allclose(a.swings, e.swings, atol=1e-9)
            assert a.system_throughput == pytest.approx(
                e.system_throughput, rel=1e-9
            )

    def test_metrics_snapshot_shape(self, service, placements):
        service.handle(self._request(placements, 0))
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["service.requests"] == 1
        assert "channel" in snapshot["caches"]
        assert "allocation" in snapshot["caches"]
        assert snapshot["histograms"]["service.latency_seconds"]["count"] == 1
        assert snapshot["gauges"]["service.channel_cache_size"] == 1

    def test_eviction_bounded_by_capacity(self, base_scene, placements):
        options = ServiceOptions(
            channel_cache_capacity=2, allocation_cache_capacity=2
        )
        service = AllocationService(base_scene, options=options)
        for i in range(len(placements)):
            service.handle(self._request(placements, i))
        snapshot = service.metrics_snapshot()
        assert snapshot["gauges"]["service.channel_cache_size"] <= 2
        assert snapshot["caches"]["channel"]["evictions"] > 0

    def test_invalid_request_rejected(self, placements):
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(rx_positions_xy=(), power_budget=1.0)
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(
                rx_positions_xy=((1.0, 1.0),), power_budget=-1.0
            )
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(
                rx_positions_xy=((1.0, 1.0),), power_budget=1.0, solver="nope"
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("position", float("nan")),
            ("position", float("inf")),
            ("power_budget", float("nan")),
            ("power_budget", float("inf")),
            ("kappa", -1.0),
            ("kappa", 0.0),
            ("kappa", float("nan")),
            ("kappa", float("inf")),
        ],
    )
    def test_non_finite_or_invalid_inputs_rejected(self, field, value):
        # Rejected at construction, so one bad request can never reach
        # handle_batch: NaN/inf positions break the placement fingerprint,
        # a bad budget or kappa would fail the whole batch inside the
        # solve, and a NaN kappa makes an allocation key that never
        # compares equal, so every such request adds a cache entry.
        kwargs = {"rx_positions_xy": ((1.0, 1.0), (2.0, 2.0)), "power_budget": 1.0}
        if field == "position":
            kwargs["rx_positions_xy"] = ((1.0, 1.0), (value, 2.0))
        else:
            kwargs[field] = value
        with pytest.raises(RuntimeEngineError):
            AllocationRequest(**kwargs)

    def test_recomputed_placement_is_remembered_where_computed(self):
        # The third request recomputes the first key (evicted from the
        # one-entry channel cache) at positions 0.3 mm away, in the same
        # quantum cell; the fourth then moves one receiver of that key.
        # Remembering the key's first positions reused a column computed
        # at the wrong place (served throughput off by ~4e-7 relative).
        scene = simulation_scene([(1.0, 1.0), (2.0, 2.0)])
        service = AllocationService(
            scene, options=ServiceOptions(channel_cache_capacity=1)
        )
        sequence = [
            ((1.0, 1.0), (2.0, 2.0)),
            ((0.5, 2.5), (2.5, 0.5)),
            ((1.0003, 1.0), (2.0, 2.0)),
            ((1.0, 1.0), (2.3, 2.0)),
        ]
        for positions in sequence:
            result = service.handle(
                AllocationRequest(rx_positions_xy=positions, power_budget=1.2)
            )
            expected = channel_matrix_stack(scene, np.array([positions]))[0]
            cached = service._channel_cache.peek(result.fingerprint)
            assert np.array_equal(cached, expected)

    def test_metric_totals_per_batch(self):
        """Counters are incremented once per batch; their totals are those
        of per-request accounting.  Only the incremental/computed split
        differs from per-miss lookups: a miss no longer finds a neighbour
        computed earlier in its own batch (G after C below)."""
        a = ((1.0, 1.0), (2.0, 2.0), (1.5, 2.5))
        b = ((1.0, 1.0), (2.5, 2.0), (1.5, 2.5))
        c = ((1.5, 1.0), (2.0, 2.0), (1.5, 2.5))
        d = ((0.5, 0.5), (2.8, 2.8), (0.4, 2.6))
        e = ((1.5, 1.0), (2.5, 2.0), (1.5, 2.5))
        f = ((0.5, 0.5), (2.8, 2.8), (2.0, 0.6))
        g = ((1.5, 1.0), (0.7, 2.2), (2.2, 0.7))

        def request(positions, solver="heuristic", budget=1.2):
            return AllocationRequest(
                rx_positions_xy=positions, power_budget=budget, solver=solver
            )

        batches = [
            [request(a), request(a), request(b)],
            [request(a), request(c), request(g), request(d),
             request(c, solver="greedy")],
            [request(b, budget=0.6), request(e), request(f), request(e),
             request(a)],
            [request(c, solver="greedy"), request(f, budget=0.9),
             request(d, solver="greedy")],
        ]
        service = AllocationService(simulation_scene(list(a)))
        for batch in batches:
            service.handle_batch(batch)
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        expected = {
            "service.requests": 16,
            "service.channel_hits": 6,
            "service.channel_misses": 7,
            'service.channel_outcomes{outcome="hit"}': 6,
            "service.allocation_hits": 3,
            "service.allocation_misses": 11,
            'service.allocation_outcomes{outcome="hit"}': 3,
            'service.allocation_outcomes{outcome="miss"}': 13,
            "pool.tasks": 11,
            'pool.solves{solver="heuristic"}': 9,
            'pool.solves{solver="greedy"}': 2,
            # Per-miss lookups gave 4 incremental placements (6 requests)
            # and 4 computed requests.
            "service.channel_incremental": 3,
            'service.channel_outcomes{outcome="incremental"}': 5,
            'service.channel_outcomes{outcome="computed"}': 5,
        }
        assert {name: counters.get(name) for name in expected} == expected
        histograms = snapshot["histograms"]
        assert histograms["pool.solve_seconds"]["count"] == 11
        assert histograms["service.latency_seconds"]["count"] == 16

    def test_non_finite_deadline_rejected(self):
        # Pre-fix, a NaN deadline sailed through request validation and
        # turned into a never-expiring Deadline downstream.
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(RuntimeEngineError):
                AllocationRequest(
                    rx_positions_xy=((1.0, 1.0),),
                    power_budget=1.0,
                    deadline_seconds=bad,
                )


# ----------------------------------------------------------------------
# incremental-channel neighbor lookup
# ----------------------------------------------------------------------


def _reference_neighbor(entries, key, positions, cached):
    """Brute-force scan: fewest moved receivers, most recent among ties.

    *entries* is the remembered ``(key, positions)`` list, oldest first.
    """
    best = None
    for other_key, other in reversed(entries):
        if other_key == key or other_key not in cached:
            continue
        moved = np.flatnonzero(np.any(other != positions, axis=1))
        if 0 < moved.size < len(positions) and (
            best is None or moved.size < best[1].size
        ):
            best = (other_key, moved)
    return best


class TestPlacementMemory:
    def test_touch_refreshes_recency_but_keeps_positions(self):
        memory = PlacementMemory(capacity=2, num_receivers=2)
        first = np.array([[1.0, 1.0], [2.0, 2.0]])
        memory.remember("a", first)
        memory.remember("b", first + [[0.0, 0.0], [0.5, 0.0]])
        memory.touch("a")  # a cache hit: recency only
        memory.touch("z")  # never remembered: nothing to refresh
        memory.remember("c", first + [[0.5, 0.0], [0.0, 0.0]])  # evicts b
        query = first + [[0.0, 0.0], [0.1, 0.0]]
        (candidates,) = memory.neighbors(["q"], query[None])
        found = [(k, moved.tolist()) for k, moved in candidates]
        # c moved both receivers, so only a (at its positions) qualifies.
        assert found == [("a", [1])]

    def test_remember_replaces_positions_of_a_recompute(self):
        memory = PlacementMemory(capacity=4, num_receivers=2)
        first = np.array([[1.0, 1.0], [2.0, 2.0]])
        memory.remember("a", first)
        memory.remember("a", first + [[0.0003, 0.0], [0.0, 0.0]])
        (candidates,) = memory.neighbors(
            ["q"], (first + [[0.0, 0.0], [0.3, 0.0]])[None]
        )
        # The recomputed positions differ from the query in both receivers.
        assert list(candidates) == []

    def test_receiver_count_mismatch_finds_nothing(self):
        memory = PlacementMemory(capacity=4, num_receivers=2)
        memory.remember("a", np.array([[1.0, 1.0], [2.0, 2.0]]))
        found = memory.neighbors(["q", "r"], np.ones((2, 1, 2)))
        assert [list(candidates) for candidates in found] == [[], []]

    def test_property_matches_brute_force_scan(self):
        """Seeded sweep: each query's first cached neighbour in one batched
        lookup equals a full scan of that query alone."""
        rng = np.random.default_rng(23)
        grid = np.arange(4, dtype=float)
        for trial in range(40):
            capacity = int(rng.integers(1, 12))
            num_rx = int(rng.integers(1, 5))
            memory = PlacementMemory(capacity, num_rx)
            entries = []
            for step in range(int(rng.integers(0, 30))):
                key = f"k{int(rng.integers(0, 10))}"
                index = next(
                    (i for i, (k, _) in enumerate(entries) if k == key), None
                )
                if rng.uniform() < 0.3:
                    memory.touch(key)
                    if index is not None:
                        entries.append(entries.pop(index))
                    continue
                # Few distinct coordinates, so partial moves are common.
                positions = rng.choice(grid, size=(num_rx, 2))
                memory.remember(key, positions)
                if index is not None:
                    del entries[index]
                entries.append((key, positions))
                del entries[:-capacity]
            cached = {k for k, _ in entries if rng.uniform() < 0.7}
            num_queries = int(rng.integers(1, 6))
            queries = rng.choice(grid, size=(num_queries, num_rx, 2))
            keys = [f"k{int(rng.integers(0, 12))}" for _ in range(num_queries)]
            lookups = memory.neighbors(keys, queries)
            assert len(lookups) == num_queries
            for key, query, candidates in zip(keys, queries, lookups):
                expected = _reference_neighbor(entries, key, query, cached)
                found = next(
                    ((k, moved) for k, moved in candidates if k in cached),
                    None,
                )
                if expected is None:
                    assert found is None
                else:
                    assert found[0] == expected[0]
                    assert found[1].tolist() == expected[1].tolist()


# ----------------------------------------------------------------------
# health snapshots
# ----------------------------------------------------------------------


class TestHealthSnapshot:
    def _request(self, placements, index, **kwargs):
        return AllocationRequest(
            rx_positions_xy=tuple(
                (float(x), float(y)) for x, y in placements[index]
            ),
            power_budget=1.2,
            **kwargs,
        )

    def test_health_reports_cache_occupancy_and_breaker(
        self, base_scene, placements
    ):
        service = AllocationService(base_scene)
        service.handle(self._request(placements, 0))
        health = service.health()
        assert health["status"] == "ok"
        assert health["circuit"]["state"] == "closed"
        for block in health["caches"].values():
            assert block["size"] >= 0
            assert block["capacity"] > 0
            assert block["occupancy"] == pytest.approx(
                block["size"] / block["capacity"]
            )
            assert block["hits"] + block["misses"] >= 0

    def test_health_snapshot_is_atomic_under_concurrent_traffic(
        self, base_scene, placements
    ):
        import threading

        service = AllocationService(
            base_scene,
            options=ServiceOptions(
                channel_cache_capacity=4, allocation_cache_capacity=8
            ),
        )
        stop = threading.Event()
        errors = []

        def serve(worker):
            index = worker
            while not stop.is_set():
                service.handle(self._request(placements, index % 6))
                index += 1

        def poll():
            while not stop.is_set():
                health = service.health()
                for block in health["caches"].values():
                    # size/occupancy come from one locked read: a torn
                    # snapshot would let occupancy drift from size.
                    if block["occupancy"] != block["size"] / block["capacity"]:
                        errors.append(("torn occupancy", block))
                    if block["size"] > block["capacity"]:
                        errors.append(("overfull cache", block))
                if health["status"] not in ("ok", "degraded"):
                    errors.append(("bad status", health["status"]))

        threads = [
            threading.Thread(target=serve, args=(n,)) for n in range(2)
        ] + [threading.Thread(target=poll) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]


# ----------------------------------------------------------------------
# bench entry point
# ----------------------------------------------------------------------


class TestBench:
    def test_run_benchmark_reports_cache_hits(self):
        report = run_benchmark(requests=12, distinct_placements=3, seed=1)
        assert report.requests == 12
        assert report.requests_per_second > 0
        assert report.channel_hit_rate > 0
        assert report.allocation_hit_rate > 0
        assert report.p95_latency_ms >= report.p50_latency_ms
        assert any("hit-rate" in line for line in report.lines())

    def test_cli_bench_smoke(self, capsys):
        exit_code = cli_main(
            ["bench", "--requests", "8", "--distinct", "2", "--seed", "2"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "channel hit-rate" in captured.out

    def test_cli_rejects_unknown_solver(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench", "--solver", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_solver_choices_match_registry(self):
        # The argparse choices come from repro.constants (cli keeps heavy
        # imports lazy); this pins that tuple to the actual solver registry.
        assert set(SOLVERS) == {"greedy", "heuristic", "optimal", "swing"}
        assert SOLVER_NAMES == tuple(sorted(SOLVERS))

    def test_cli_metrics_prometheus_stdout(self, capsys):
        code = cli_main(["metrics", "--requests", "6", "--distinct", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE repro_service_requests_total counter" in captured.out
        assert "repro_service_latency_seconds" in captured.out

    def test_cli_metrics_json_to_file(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        code = cli_main(
            [
                "metrics",
                "--requests",
                "6",
                "--distinct",
                "2",
                "--format",
                "json",
                "--output",
                str(path),
            ]
        )
        assert code == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["service.requests"] == 6.0
        assert "service.latency_seconds" in snapshot["histograms"]
