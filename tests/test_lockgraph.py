"""Tests for the runtime lock-order race detector (repro.analysis.lockgraph).

Exercises edge recording, cycle detection, blocking-call detection (both
explicit and via the patched time.sleep), the zero-cost disabled path,
and a concurrency hammer over the real runtime locks asserting the
engine's lock graph stays acyclic.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.analysis.lockgraph as lockgraph
from repro.analysis.lockgraph import (
    InstrumentedLock,
    LockOrderMonitor,
    lock_order_monitor,
    monitored_lock,
)
from repro.runtime import AllocationRequest, AllocationService, LRUCache
from repro.system import simulation_scene


class TestMonitorCore:
    def test_nested_acquire_records_edge_and_stack(self):
        monitor = LockOrderMonitor()
        a, b = monitor.wrap("a"), monitor.wrap("b")
        with a:
            assert monitor.held_locks() == ("a",)
            with b:
                assert monitor.held_locks() == ("a", "b")
        assert monitor.held_locks() == ()
        assert monitor.edges() == {("a", "b"): 1}
        assert monitor.acquisitions == 2
        assert monitor.find_cycle() is None
        monitor.assert_acyclic()

    def test_opposite_orders_form_a_cycle(self):
        monitor = LockOrderMonitor()
        a, b = monitor.wrap("a"), monitor.wrap("b")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        cycle = monitor.find_cycle()
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        assert {"a", "b"} <= set(cycle)
        with pytest.raises(AssertionError, match="lock-order cycle"):
            monitor.assert_acyclic()

    def test_same_name_reacquisition_is_a_self_edge(self):
        monitor = LockOrderMonitor()
        first, second = monitor.wrap("shard"), monitor.wrap("shard")
        with first:
            with second:
                pass
        assert monitor.find_cycle() == ["shard", "shard"]

    def test_out_of_lifo_release_keeps_stack_consistent(self):
        monitor = LockOrderMonitor()
        a, b = monitor.wrap("a"), monitor.wrap("b")
        a.acquire()
        b.acquire()
        a.release()
        assert monitor.held_locks() == ("b",)
        b.release()
        assert monitor.held_locks() == ()

    def test_edges_recorded_per_thread_not_across_threads(self):
        monitor = LockOrderMonitor()
        a, b = monitor.wrap("a"), monitor.wrap("b")
        barrier = threading.Barrier(2)

        def hold(lock):
            with lock:
                barrier.wait(timeout=5)
                barrier.wait(timeout=5)

        threads = [
            threading.Thread(target=hold, args=(lock,)) for lock in (a, b)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        # Both locks were held simultaneously, but by different threads:
        # that is not an ordering edge.
        assert monitor.edges() == {}

    def test_graph_is_sorted_and_deterministic(self):
        monitor = LockOrderMonitor()
        a, b, c = monitor.wrap("a"), monitor.wrap("b"), monitor.wrap("c")
        with a:
            with c:
                pass
            with b:
                pass
        assert monitor.graph() == {"a": ("b", "c"), "b": (), "c": ()}

    def test_snapshot_is_json_serializable(self):
        monitor = LockOrderMonitor()
        a, b = monitor.wrap("a"), monitor.wrap("b")
        with a:
            with b:
                monitor.record_blocking_call("fixture stall")
        payload = json.loads(json.dumps(monitor.snapshot()))
        assert payload["acquisitions"] == 2
        assert payload["edges"] == {"a -> b": 1}
        assert payload["cycle"] is None
        (violation,) = payload["blocking_violations"]
        assert violation["description"] == "fixture stall"
        assert violation["held"] == ["a", "b"]


class TestBlockingDetection:
    def test_blocking_call_without_held_locks_is_fine(self):
        monitor = LockOrderMonitor()
        assert monitor.record_blocking_call("free sleep") is False
        assert monitor.blocking_violations() == []

    def test_blocking_call_under_lock_is_a_violation(self):
        monitor = LockOrderMonitor()
        guard = monitor.wrap("guard")
        with guard:
            assert monitor.record_blocking_call("io under lock") is True
        (violation,) = monitor.blocking_violations()
        assert violation.held == ("guard",)
        with pytest.raises(AssertionError, match="blocking call under lock"):
            monitor.assert_acyclic()

    def test_patched_sleep_flags_sleep_under_lock(self):
        original_sleep = time.sleep
        with lock_order_monitor(patch_sleep=True) as monitor:
            assert time.sleep is not original_sleep
            time.sleep(0)  # no lock held -> not a violation
            guard = monitor.wrap("guard")
            with guard:
                time.sleep(0)
            (violation,) = monitor.blocking_violations()
            assert "time.sleep" in violation.description
        assert time.sleep is original_sleep


class TestActivation:
    def test_disabled_monitor_returns_plain_lock(self, monkeypatch):
        monkeypatch.setattr(lockgraph, "_MONITOR", None)
        lock = monitored_lock("anything")
        assert isinstance(lock, type(threading.Lock()))

    def test_enabled_monitor_returns_instrumented_lock(self):
        with lock_order_monitor():
            lock = monitored_lock("cache.lru")
        assert isinstance(lock, InstrumentedLock)
        assert lock.name == "cache.lru"

    def test_context_manager_restores_previous_monitor(self):
        previous = lockgraph.get_lock_monitor()
        with lock_order_monitor() as outer:
            assert lockgraph.get_lock_monitor() is outer
            with lock_order_monitor() as inner:
                assert lockgraph.get_lock_monitor() is inner
            assert lockgraph.get_lock_monitor() is outer
        assert lockgraph.get_lock_monitor() is previous

    def test_instrumented_lock_supports_lock_protocol(self):
        monitor = LockOrderMonitor()
        lock = monitor.wrap("l")
        assert not lock.locked()
        assert lock.acquire() is True
        assert lock.locked()
        lock.release()
        assert not lock.locked()


class TestRuntimeUnderMonitor:
    def test_cache_hammer_stays_acyclic(self):
        with lock_order_monitor() as monitor:
            cache = LRUCache(capacity=16)

            def work(i):
                key = i % 8
                value = cache.get(key)
                if value is None:
                    value = np.full(4, float(key))
                    cache.put(key, value)
                cache.peek(key)
                return value

            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(work, range(200)))
            assert all(isinstance(r, np.ndarray) for r in results)
            assert cache.stats.lookups == 200
            assert monitor.acquisitions > 0
            assert monitor.find_cycle() is None
            assert monitor.blocking_violations() == []

    def test_service_lock_graph_acyclic_under_concurrency(self):
        placements = [(0.5, 0.5), (2.5, 1.0), (1.5, 2.5)]
        scene = simulation_scene(placements)
        requests = [
            AllocationRequest(
                rx_positions_xy=tuple(
                    (x + 0.05 * (i % 4), y) for x, y in placements
                ),
                power_budget=1.2,
            )
            for i in range(12)
        ]
        with lock_order_monitor() as monitor:
            service = AllocationService(scene)
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(service.handle, requests))
            assert len(results) == 12
            assert monitor.acquisitions > 0
            monitor.assert_acyclic()

    def test_disabled_detector_results_bit_identical(self):
        placements = [(0.5, 0.5), (2.5, 1.0), (1.5, 2.5)]
        request = AllocationRequest(
            rx_positions_xy=tuple(placements), power_budget=1.2
        )

        def swings(service):
            return service.handle(request).swings

        plain = swings(AllocationService(simulation_scene(placements)))
        with lock_order_monitor():
            monitored = swings(
                AllocationService(simulation_scene(placements))
            )
        assert np.array_equal(plain, monitored)


class TestAsyncioFrontendHandoff:
    """The cluster front door hands batches from the event loop to an
    executor thread; locks touched on both sides (metrics registries,
    caches, the breaker) must not pick up opposite-order edges from
    that handoff."""

    def test_frontend_cycle_free_under_detector(self):
        import asyncio

        from repro.cluster import (
            ClusterController,
            ClusterFrontend,
            ClusterOptions,
            FrontendOptions,
        )
        from repro.runtime import PoolOptions, ServiceOptions

        placements = [(0.5, 0.5), (2.5, 1.0), (1.5, 2.5)]
        scene = simulation_scene(placements)
        options = ClusterOptions(
            shards=2,
            service=ServiceOptions(
                pool=PoolOptions(max_workers=0),
                channel_cache_capacity=16,
                allocation_cache_capacity=32,
            ),
        )
        requests = [
            AllocationRequest(
                rx_positions_xy=tuple(
                    (x + 0.05 * (i % 3), y) for x, y in placements
                ),
                power_budget=1.2,
            )
            for i in range(6)
        ]

        with lock_order_monitor() as monitor:
            controller = ClusterController(scene, options=options)

            async def _cycle():
                frontend = ClusterFrontend(controller, FrontendOptions())
                await frontend.start()
                try:
                    return await asyncio.gather(
                        *(frontend.submit(request) for request in requests)
                    )
                finally:
                    await frontend.stop()

            results = asyncio.run(_cycle())
            assert len(results) == len(requests)
            assert monitor.acquisitions > 0
            # The executor handoff must not register as opposite-order
            # acquisition (a false-positive deadlock) or as blocking
            # work under a held lock.
            assert monitor.find_cycle() is None
            assert monitor.blocking_violations() == []
            monitor.assert_acyclic()
