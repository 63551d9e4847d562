"""Timed spans around the calls into each layer, from outside the program.

:class:`LayerTracer` replaces each layer's entry point *at the name its
caller looks up* (``repro.runtime.service.channel_matrix_stack`` is the
``runtime.batch`` re-export the service calls; ``repro.runtime.pool.
solve_swing`` is the pool's import) with a wrapper that records a
:class:`~stats.Span`, and puts the originals back on exit.  Parents
come from a per-thread stack; the pool runs deadline-bounded solves on
a helper thread, so the pool's ``ThreadPoolExecutor`` name is swapped
for one that hands the submitting thread's open span to the helper.

After a traced run, :meth:`LayerTracer.missing` names every target a
workload relies on that recorded no call: a refactor that moves a call
away from a wrapped name fails the run instead of reporting 0 ms.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import repro.cluster.controller as controller_module
import repro.core.greedy as greedy_module
import repro.core.heuristic as heuristic_module
import repro.runtime.cache as cache_module
import repro.runtime.pool as pool_module
import repro.runtime.service as service_module
from repro.errors import DeadlineExceeded

from stats import Span


def _first_len(args: Tuple[Any, ...]) -> int:
    return len(args[1])


def _placements(args: Tuple[Any, ...]) -> int:
    return int(args[1].shape[0])


def _tags(args: Tuple[Any, ...]) -> List[str]:
    return [request.tag for request in args[1]]


def _expired(outcomes: List[Any]) -> int:
    return sum(1 for outcome in outcomes if outcome.deadline_exceeded)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``name`` is the row the calls are counted under, ``layer`` the
    self-time row they fold into.  ``units`` maps the call's positional
    arguments (``self`` first for methods) to the work it was asked to
    do; ``note`` keeps a per-call record next to the call's start time.
    ``timeouts`` counts the timed-out tasks in a call's return value; a
    call that raises ``DeadlineExceeded`` timed out all of its units.
    """

    name: str
    layer: str
    owner: Any
    attribute: str
    units: Optional[Callable[[Tuple[Any, ...]], int]] = None
    note: Optional[Callable[[Tuple[Any, ...]], Any]] = None
    timeouts: Optional[Callable[[Any], int]] = None


TARGETS: Tuple[Target, ...] = (
    Target("service.handle_batch", "repro.runtime.service",
           service_module.AllocationService, "handle_batch",
           units=_first_len, note=_tags),
    Target("channel.channel_matrix_stack", "repro.channel",
           service_module, "channel_matrix_stack", units=_placements),
    Target("channel.channel_matrix_update", "repro.channel",
           service_module, "channel_matrix_update"),
    Target("stacks.throughput_stack", "repro.channel.stacks",
           service_module, "throughput_stack"),
    Target("cache.get", "repro.runtime.cache", cache_module.LRUCache, "get"),
    Target("cache.put", "repro.runtime.cache", cache_module.LRUCache, "put"),
    Target("cache.peek", "repro.runtime.cache", cache_module.LRUCache, "peek"),
    Target("pool.solve_outcomes", "repro.runtime.pool",
           pool_module.SolverPool, "solve_outcomes", units=_first_len,
           timeouts=_expired),
    Target("swingsearch.solve_swing", "repro.core.swingsearch",
           pool_module, "solve_swing"),
    Target("heuristic.solve", "repro.core.heuristic",
           heuristic_module.RankingHeuristic, "solve"),
    Target("greedy.solve", "repro.core.greedy",
           greedy_module.GreedyMarginalHeuristic, "solve"),
    Target("controller.route", "repro.cluster.controller",
           controller_module.ClusterController, "route"),
)

TARGET_NAMES = tuple(target.name for target in TARGETS)


class LayerTracer:
    """Records spans while installed (``with tracer: ...``)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Dict[str, int] = {name: 0 for name in TARGET_NAMES}
        self.units: Dict[str, int] = {name: 0 for name in TARGET_NAMES}
        self.notes: Dict[str, List[Tuple[float, Any]]] = {}
        self.timeouts = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        """The innermost open span on this thread (or the adopted one)."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    def adopt(self, parent: Optional[int], fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run *fn* on this thread with *parent* as its spans' parent."""
        self._local.adopted = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.adopted = None

    def _wrap(self, target: Target, original: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = self.current()
            start = time.perf_counter()
            with self._lock:
                index = len(self.spans)
                self.spans.append(Span(target.layer, start, start, parent))
                self.calls[target.name] += 1
                self.units[target.name] += (
                    target.units(args) if target.units else 1
                )
                if target.note is not None:
                    self.notes.setdefault(target.name, []).append(
                        (start, target.note(args))
                    )
            stack = self._stack()
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            except DeadlineExceeded:
                if target.timeouts is not None:
                    with self._lock:
                        self.timeouts += target.units(args) if target.units else 1
                raise
            else:
                if target.timeouts is not None:
                    expired = target.timeouts(result)
                    with self._lock:
                        self.timeouts += expired
                return result
            finally:
                stack.pop()
                self.spans[index].end = time.perf_counter()

        timed.__wrapped__ = original  # type: ignore[attr-defined]
        return timed

    # -- install / restore ----------------------------------------------

    def __enter__(self) -> "LayerTracer":
        tracer = self

        class AdoptingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):  # type: ignore[override]
                return super().submit(
                    tracer.adopt, tracer.current(), fn, *args, **kwargs
                )

        self._patch(pool_module, "ThreadPoolExecutor", AdoptingExecutor)
        for target in TARGETS:
            original = getattr(target.owner, target.attribute)
            self._patch(target.owner, target.attribute, self._wrap(target, original))
        return self

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    # -- reading --------------------------------------------------------

    def missing(self, required: Iterable[str]) -> List[str]:
        """Required targets that recorded no call."""
        return [name for name in required if self.calls[name] == 0]
