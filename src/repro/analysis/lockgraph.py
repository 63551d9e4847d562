"""Runtime lock-order race detector for the serving runtime.

The static side of :mod:`repro.analysis` proves properties of the
*source*; this module watches the *execution*.  Every lock in the
runtime engine is created through :func:`monitored_lock`, which returns
a plain :class:`threading.Lock` while the monitor is disabled -- the
hot path is bit-identical to uninstrumented code -- and an
:class:`InstrumentedLock` while a :class:`LockOrderMonitor` is active.

An instrumented lock records, per thread, the stack of monitored locks
currently held.  Acquiring lock ``B`` while holding lock ``A`` adds the
directed edge ``A -> B`` to the process-wide lock graph.  After a chaos
or concurrency run:

- :meth:`LockOrderMonitor.find_cycle` reports any cycle in the graph --
  two threads taking the same pair of locks in opposite orders is the
  classic deadlock recipe, and shows up as a cycle even when the run
  happened not to deadlock;
- :meth:`LockOrderMonitor.blocking_violations` reports blocking calls
  (``time.sleep`` while the monitor patches it, or explicit
  :meth:`LockOrderMonitor.record_blocking_call` markers) executed while
  holding any monitored lock -- the "numpy percentile math under the
  registry lock" class of bug from PR 3/4, caught at runtime.

Activation is explicit (:func:`enable_lock_monitor` /
:func:`lock_order_monitor`) or environmental: setting
``REPRO_LOCK_MONITOR=1`` before the first import enables a process-wide
monitor, which is how CI runs the chaos suite under the detector.

This module is stdlib-only (like :mod:`repro.tracecontext`) so the
runtime can import it without the analysis engine's AST machinery.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "BlockingViolation",
    "InstrumentedLock",
    "LockOrderMonitor",
    "disable_lock_monitor",
    "enable_lock_monitor",
    "get_lock_monitor",
    "lock_order_monitor",
    "monitored_lock",
]


class BlockingViolation:
    """One blocking call executed while holding monitored locks."""

    __slots__ = ("description", "held", "thread")

    def __init__(
        self, description: str, held: Tuple[str, ...], thread: str
    ) -> None:
        self.description = description
        self.held = held
        self.thread = thread

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BlockingViolation({self.description!r}, held={self.held!r}, "
            f"thread={self.thread!r})"
        )

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "held": list(self.held),
            "thread": self.thread,
        }


class InstrumentedLock:
    """A :class:`threading.Lock` that reports acquisitions to a monitor.

    The wrapper preserves the full context-manager / acquire / release
    protocol.  Edge recording happens *before* the blocking acquire so
    an actual deadlock still leaves its edge in the graph.
    """

    __slots__ = ("name", "_lock", "_monitor")

    def __init__(self, name: str, monitor: "LockOrderMonitor") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._monitor = monitor

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor._before_acquire(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._monitor._after_acquire(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self._monitor._after_release(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class LockOrderMonitor:
    """Process-wide lock-acquisition recorder and graph analyzer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (held, acquired) -> number of times the edge was observed.
        self._edges: Dict[Tuple[str, str], int] = {}
        self._held = threading.local()
        self._blocking: List[BlockingViolation] = []
        self._acquisitions = 0
        self._patched_sleep: Optional[Callable[[float], None]] = None

    # -- instrumentation hooks (called from InstrumentedLock) ----------

    def _stack(self) -> List[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _before_acquire(self, name: str) -> None:
        stack = self._stack()
        if stack:
            with self._lock:
                for held in stack:
                    key = (held, name)
                    self._edges[key] = self._edges.get(key, 0) + 1

    def _after_acquire(self, name: str) -> None:
        self._stack().append(name)
        with self._lock:
            self._acquisitions += 1

    def _after_release(self, name: str) -> None:
        stack = self._stack()
        # Locks may be released out of LIFO order; drop the most recent
        # matching entry.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break

    # -- public API ----------------------------------------------------

    def wrap(self, name: str) -> InstrumentedLock:
        """A new instrumented lock reporting to this monitor."""
        return InstrumentedLock(name, self)

    def held_locks(self) -> Tuple[str, ...]:
        """Monitored locks held by the calling thread, oldest first."""
        return tuple(self._stack())

    def record_blocking_call(self, description: str) -> bool:
        """Record *description* as a blocking call if any lock is held.

        Returns True when a violation was recorded.  Instrumentable
        call sites (and the patched ``time.sleep``) use this to catch
        I/O or stalls inside critical sections.
        """
        held = self.held_locks()
        if not held:
            return False
        with self._lock:
            self._blocking.append(
                BlockingViolation(
                    description, held, threading.current_thread().name
                )
            )
        return True

    @property
    def acquisitions(self) -> int:
        with self._lock:
            return self._acquisitions

    def blocking_violations(self) -> List[BlockingViolation]:
        with self._lock:
            return list(self._blocking)

    def edges(self) -> Dict[Tuple[str, str], int]:
        """Observed acquisition edges: (held, acquired) -> count."""
        with self._lock:
            return dict(self._edges)

    def graph(self) -> Dict[str, Tuple[str, ...]]:
        """Adjacency view of the lock graph (sorted, deterministic)."""
        adjacency: Dict[str, List[str]] = {}
        for held, acquired in self.edges():
            adjacency.setdefault(held, []).append(acquired)
            adjacency.setdefault(acquired, [])
        return {
            node: tuple(sorted(set(successors)))
            for node, successors in sorted(adjacency.items())
        }

    def find_cycle(self) -> Optional[List[str]]:
        """A lock-order cycle as ``[a, b, ..., a]``, or None.

        Any cycle -- including a self-edge from re-acquiring a
        same-named lock -- means two code paths can take the same locks
        in conflicting orders, i.e. a latent deadlock.
        """
        graph = self.graph()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {node: WHITE for node in graph}
        path: List[str] = []

        def visit(node: str) -> Optional[List[str]]:
            color[node] = GRAY
            path.append(node)
            for successor in graph.get(node, ()):
                if color.get(successor, WHITE) == GRAY:
                    start = path.index(successor)
                    return path[start:] + [successor]
                if color.get(successor, WHITE) == WHITE:
                    cycle = visit(successor)
                    if cycle is not None:
                        return cycle
            path.pop()
            color[node] = BLACK
            return None

        for node in sorted(graph):
            if color[node] == WHITE:
                cycle = visit(node)
                if cycle is not None:
                    return cycle
        return None

    def assert_acyclic(self) -> None:
        """Raise ``AssertionError`` naming the cycle, if there is one."""
        cycle = self.find_cycle()
        if cycle is not None:
            raise AssertionError(
                "lock-order cycle detected: " + " -> ".join(cycle)
            )
        if self._blocking:
            worst = self._blocking[0]
            raise AssertionError(
                f"blocking call under lock: {worst.description} while "
                f"holding {list(worst.held)} ({len(self._blocking)} total)"
            )

    def snapshot(self) -> dict:
        """A JSON-serializable report of the observed lock behavior."""
        return {
            "acquisitions": self.acquisitions,
            "edges": {
                f"{held} -> {acquired}": count
                for (held, acquired), count in sorted(self.edges().items())
            },
            "cycle": self.find_cycle(),
            "blocking_violations": [
                violation.as_dict()
                for violation in self.blocking_violations()
            ],
        }

    # -- time.sleep patching -------------------------------------------

    def patch_sleep(self) -> None:
        """Route ``time.sleep`` through :meth:`record_blocking_call`.

        Sleeping while holding a lock serializes every other consumer
        of that lock behind the stall; while the monitor is active the
        patched sleep records exactly that.  The original sleep still
        runs, so timing-sensitive code behaves the same.
        """
        if self._patched_sleep is not None:
            return
        original = time.sleep

        def monitored_sleep(seconds: float) -> None:
            self.record_blocking_call(f"time.sleep({seconds!r})")
            original(seconds)

        self._patched_sleep = original
        time.sleep = monitored_sleep

    def unpatch_sleep(self) -> None:
        if self._patched_sleep is not None:
            time.sleep = self._patched_sleep
            self._patched_sleep = None


_MONITOR: Optional[LockOrderMonitor] = None


def get_lock_monitor() -> Optional[LockOrderMonitor]:
    """The active process-wide monitor, or None when disabled."""
    return _MONITOR


def enable_lock_monitor(patch_sleep: bool = False) -> LockOrderMonitor:
    """Install (or return) the process-wide monitor.

    Only locks created *after* enabling are instrumented: the runtime
    creates its locks at object construction, so build services inside
    the monitored window.
    """
    global _MONITOR
    if _MONITOR is None:
        _MONITOR = LockOrderMonitor()
    if patch_sleep:
        _MONITOR.patch_sleep()
    return _MONITOR


def disable_lock_monitor() -> None:
    """Remove the process-wide monitor (existing wrapped locks keep
    reporting to it, but new locks are plain again)."""
    global _MONITOR
    if _MONITOR is not None:
        _MONITOR.unpatch_sleep()
    _MONITOR = None


class lock_order_monitor:
    """Context manager scoping a *fresh* monitor::

        with lock_order_monitor() as monitor:
            service = AllocationService(scene)   # locks instrumented
            hammer(service)
        assert monitor.find_cycle() is None

    The previous process-wide monitor (e.g. one installed by
    ``REPRO_LOCK_MONITOR=1``) is restored on exit, so scoped monitoring
    in one test never pollutes the session-wide graph.
    """

    def __init__(self, patch_sleep: bool = False) -> None:
        self._patch_sleep = patch_sleep
        self._monitor: Optional[LockOrderMonitor] = None
        self._previous: Optional[LockOrderMonitor] = None

    def __enter__(self) -> LockOrderMonitor:
        global _MONITOR
        self._previous = _MONITOR
        self._monitor = LockOrderMonitor()
        _MONITOR = self._monitor
        if self._patch_sleep:
            self._monitor.patch_sleep()
        return self._monitor

    def __exit__(self, *exc_info: object) -> None:
        global _MONITOR
        if self._monitor is not None:
            self._monitor.unpatch_sleep()
        _MONITOR = self._previous


def monitored_lock(name: str) -> "threading.Lock | InstrumentedLock":
    """A lock for runtime hot paths: plain when unmonitored.

    With no monitor active this *is* ``threading.Lock()`` -- zero
    per-acquisition overhead and bit-identical behavior, mirroring how
    disabled tracing stays off the hot path.  Under an active monitor
    the returned lock reports its acquisition edges.
    """
    monitor = _MONITOR
    if monitor is None:
        return threading.Lock()
    return monitor.wrap(name)


if os.environ.get("REPRO_LOCK_MONITOR", "") == "1":  # pragma: no cover
    enable_lock_monitor(patch_sleep=True)
