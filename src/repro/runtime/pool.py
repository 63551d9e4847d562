"""Process-pool fan-out for allocation solves.

Allocation solves are embarrassingly parallel across requests: every
task is a pure function of ``(channel, budget, solver, parameters)``.
:class:`SolverPool` fans :class:`SolveTask` batches across a
``ProcessPoolExecutor`` with a per-task timeout, bounded retries when a
worker crashes or times out, and results returned in submission order
-- so parallel output is bit-identical to a serial run.

With a :class:`~repro.runtime.resilience.ResiliencePolicy` attached the
pool additionally honors per-task deadlines, backs off between retries
(deterministic jitter), routes whole batches to the in-process serial
path while the circuit breaker is open, and falls down the solver
degradation chain (``optimal -> swing -> greedy -> heuristic``) when a
solve times out or fails to converge -- callers get the best cheaper
allocation, flagged as degraded, instead of an exception.

Solvers are looked up by name in :data:`SOLVERS` (``"heuristic"``,
``"greedy"``, ``"optimal"``, ``"swing"``) so tasks stay picklable.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FutureTimeout,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from .. import constants
from ..channel import AWGNNoise
from ..core import (
    Allocation,
    AllocationProblem,
    GreedyMarginalHeuristic,
    OptimizerOptions,
    RankingHeuristic,
    SwingSearchOptions,
    solve_optimal,
    solve_swing,
)
from ..errors import DeadlineExceeded, OptimizationError, RuntimeEngineError
from ..optics import LEDModel, Photodiode, cree_xte_paper_power, s5971
from .faults import FaultPlan
from .metrics import MetricsRegistry
from .resilience import Deadline, ResiliencePolicy, degradation_fallbacks
from .tracing import SpanRecorder, shift_payload


@dataclass(frozen=True)
class SolveTask:
    """One allocation solve: a problem instance plus solver selection.

    Everything is a plain dataclass/ndarray so tasks cross process
    boundaries without custom reducers.  The ``optimal`` and ``swing``
    solvers always run their SJR-pruned reduced programs (with automatic
    full-dimension fallback) and start cold.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp (the
    request's remaining budget, set by the service); it is enforced by
    the submitting process, never by workers.  ``faults``/``fault_key``
    hook the seedable chaos harness (:class:`FaultPlan`) into the solve.

    ``traced`` asks for a span payload: the solve runs inside a
    :class:`~repro.runtime.tracing.SpanRecorder` span (in-process or in
    the worker), and :class:`SolveOutcome.spans` carries the captured
    spans back so the service can attach them to the request trace.
    Untraced tasks take exactly the pre-tracing code path.
    """

    channel: np.ndarray
    power_budget: float
    solver: str = "heuristic"
    kappa: float = constants.DEFAULT_KAPPA
    seed: int = 0
    led: LEDModel = field(default_factory=cree_xte_paper_power)
    photodiode: Photodiode = field(default_factory=s5971)
    noise: AWGNNoise = field(default_factory=AWGNNoise)
    deadline: Optional[float] = None
    faults: Optional[FaultPlan] = None
    fault_key: Hashable = 0
    traced: bool = False

    def problem(self) -> AllocationProblem:
        return AllocationProblem(
            channel=self.channel,
            power_budget=self.power_budget,
            led=self.led,
            photodiode=self.photodiode,
            noise=self.noise,
        )

    def optimizer_options(self) -> OptimizerOptions:
        return OptimizerOptions(restarts=0, seed=self.seed, reduce=True)

    def swing_options(self) -> SwingSearchOptions:
        return SwingSearchOptions(kappa=self.kappa, seed=self.seed, reduce=True)

    def deadline_object(self) -> Deadline:
        return Deadline() if self.deadline is None else Deadline(self.deadline)


@dataclass(frozen=True)
class SolveOutcome:
    """One solved task plus its resilience provenance.

    Attributes:
        swings: the solved (N, M) swing matrix [A].
        solver: the solver that actually produced *swings*.
        requested_solver: the solver the task asked for.
        degraded: True when *solver* is a degradation-chain fallback.
        retries: solve attempts beyond the first.
        deadline_exceeded: the task's deadline expired along the way
            (the result is the best allocation the remaining budget
            could buy).
        circuit_open: the batch was routed to the in-process serial
            path because the circuit breaker refused the pool.
        spans: span payload dicts captured around every solve attempt
            (only for ``traced`` tasks; times are on the submitting
            process's ``perf_counter`` clock).
    """

    swings: np.ndarray
    solver: str
    requested_solver: str
    degraded: bool = False
    retries: int = 0
    deadline_exceeded: bool = False
    circuit_open: bool = False
    spans: "tuple[dict, ...]" = ()


def _solve_heuristic(task: SolveTask, metrics=None) -> Allocation:
    return RankingHeuristic(kappa=task.kappa).solve(task.problem())


def _solve_greedy(task: SolveTask, metrics=None) -> Allocation:
    return GreedyMarginalHeuristic().solve(task.problem())


def _solve_optimal(task: SolveTask, metrics=None) -> Allocation:
    return solve_optimal(task.problem(), task.optimizer_options(), metrics=metrics)


def _solve_swing(task: SolveTask, metrics=None) -> Allocation:
    return solve_swing(task.problem(), task.swing_options(), metrics=metrics)


#: Solver name -> callable; tasks reference solvers by name so they pickle.
SOLVERS: Dict[str, Callable[..., Allocation]] = {
    "heuristic": _solve_heuristic,
    "greedy": _solve_greedy,
    "optimal": _solve_optimal,
    "swing": _solve_swing,
}


def solve_task(
    task: SolveTask,
    metrics: Optional[MetricsRegistry] = None,
    attempt: int = 0,
) -> np.ndarray:
    """Execute one task, returning the solved swing matrix.

    Module-level so worker processes can unpickle the reference.  The
    optional *metrics* registry receives the optimizer's per-stage
    timings; it is only threaded through on the serial in-process path
    (worker processes would record into a throwaway registry).
    *attempt* numbers re-executions of the same task so the fault plan
    can fire on first attempts and clear on retries.
    """
    try:
        solver = SOLVERS[task.solver]
    except KeyError:
        raise RuntimeEngineError(
            f"unknown solver {task.solver!r}; available: {sorted(SOLVERS)}"
        ) from None
    if task.faults is not None:
        task.faults.maybe_crash_worker(task.fault_key, attempt)
        task.faults.maybe_slow_solve(task.fault_key, attempt)
    return solver(task, metrics=metrics).swings


def solve_task_traced(
    task: SolveTask,
    metrics: Optional[MetricsRegistry] = None,
    attempt: int = 0,
) -> "tuple[np.ndarray, list]":
    """Execute one task inside a recorded span; returns (swings, payload).

    Module-level so worker processes can unpickle the reference.  The
    payload is a list of plain span dicts with times relative to this
    call (see :class:`~repro.runtime.tracing.SpanRecorder`); the
    submitting process shifts them onto its own clock.  Running inside
    the recorder's span also routes optimizer introspection
    (:func:`repro.tracecontext.add_span_attributes`) into the payload.
    """
    recorder = SpanRecorder()
    with recorder.span("solve", solver=task.solver, attempt=attempt):
        swings = solve_task(task, metrics=metrics, attempt=attempt)
    return swings, recorder.payload()


@dataclass(frozen=True)
class PoolOptions:
    """Knobs for :class:`SolverPool`.

    Attributes:
        max_workers: worker processes; 0 or 1 solves serially in-process
            (the right choice on single-core hosts and for tiny batches).
        task_timeout: per-task wall-clock limit [s] before the bounded
            retry/degradation path kicks in.

    A batch of one task always runs serially: the pool spawn cost would
    dominate it.
    """

    max_workers: int = 0
    task_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.max_workers < 0:
            raise RuntimeEngineError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        if self.task_timeout <= 0:
            raise RuntimeEngineError(
                f"task timeout must be positive, got {self.task_timeout}"
            )


class SolverPool:
    """Deterministic fan-out of :class:`SolveTask` batches.

    Results are ordered by task index regardless of completion order,
    and every solver is a pure function of its task, so
    ``SolverPool(PoolOptions(max_workers=k)).solve_many(tasks)`` returns
    the same swing matrices for every ``k``.
    """

    def __init__(
        self,
        options: Optional[PoolOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        self.options = options if options is not None else PoolOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.resilience = resilience
        self._solve_seconds = self.metrics.histogram("pool.solve_seconds")

    def solve_many(self, tasks: Sequence[SolveTask]) -> List[np.ndarray]:
        """Solve every task, preserving submission order."""
        return [outcome.swings for outcome in self.solve_outcomes(tasks)]

    def solve_outcomes(self, tasks: Sequence[SolveTask]) -> List[SolveOutcome]:
        """Solve every task, returning swings plus resilience provenance."""
        tasks = list(tasks)
        self.metrics.counter("pool.tasks").increment(len(tasks))
        for solver, count in Counter(task.solver for task in tasks).items():
            self.metrics.counter("pool.solves", solver=solver).increment(count)
        use_pool = self.options.max_workers > 1 and len(tasks) > 1
        short_circuited = False
        if (
            use_pool
            and self.resilience is not None
            and not self.resilience.breaker.allow()
        ):
            # Circuit open: fall back to the in-process path instead of
            # feeding more batches into a broken pool.
            self.resilience.count("circuit_short_circuits")
            use_pool = False
            short_circuited = True
        if not use_pool:
            outcomes = [self._serial_outcome(task) for task in tasks]
            if short_circuited:
                outcomes = [
                    replace(outcome, circuit_open=True) for outcome in outcomes
                ]
            return outcomes
        return self._parallel_outcomes(tasks)

    # ------------------------------------------------------------------

    def _call_bounded(
        self,
        task: SolveTask,
        timeout: Optional[float],
        attempt: int,
        spans: Optional[List[dict]] = None,
    ) -> np.ndarray:
        """Run one solve, bounded by *timeout* seconds when finite.

        The bounded path runs the solve on a helper thread and abandons
        it on expiry (raising :class:`DeadlineExceeded`); a genuinely
        wedged solve leaks its thread -- the price of preemption-free
        Python -- but the batch keeps making progress.

        For traced tasks each attempt's span payload is shifted onto
        this process's clock and collected into *spans*; a timed-out
        attempt contributes a synthetic span flagged ``timed_out``
        (the real one is stranded on the abandoned thread).
        """
        traced = task.traced and spans is not None
        call_start = time.perf_counter()

        def _run() -> np.ndarray:
            if traced:
                swings, payload = solve_task_traced(
                    task, metrics=self.metrics, attempt=attempt
                )
                spans.extend(shift_payload(payload, call_start))
                return swings
            return solve_task(task, metrics=self.metrics, attempt=attempt)

        if timeout is None or timeout == float("inf"):
            start = time.perf_counter()
            try:
                return _run()
            finally:
                self._solve_seconds.observe(time.perf_counter() - start)
        if timeout <= 0:
            raise DeadlineExceeded(
                f"no time left for solver {task.solver!r} (attempt {attempt})"
            )
        executor = ThreadPoolExecutor(max_workers=1)
        future = executor.submit(_run)
        try:
            start = time.perf_counter()
            try:
                return future.result(timeout=timeout)
            finally:
                self._solve_seconds.observe(time.perf_counter() - start)
        except FutureTimeout:
            if traced:
                spans.append(
                    {
                        "name": "solve",
                        "span_id": "",
                        "parent_id": None,
                        "start": call_start,
                        "end": call_start + timeout,
                        "attributes": {
                            "solver": task.solver,
                            "attempt": attempt,
                            "timed_out": True,
                        },
                    }
                )
            raise DeadlineExceeded(
                f"solver {task.solver!r} exceeded {timeout:.3f}s "
                f"(attempt {attempt})"
            ) from None
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    def _degraded_outcome(
        self,
        task: SolveTask,
        deadline: Deadline,
        timed_out: bool,
        retries: int,
        first_attempt: int,
        cause: Exception,
        spans: Optional[List[dict]] = None,
    ) -> SolveOutcome:
        """Fall down the degradation chain and return the best cheaper solve."""
        policy = self.resilience
        if policy is None or not policy.options.degrade:
            raise cause
        attempt = first_attempt
        deadline_hit = timed_out and deadline.expired
        fallbacks = degradation_fallbacks(task.solver)
        if not fallbacks and timed_out:
            # Nothing is cheaper than the floor solver: it re-runs as its
            # own last resort, so an expired deadline still gets an answer.
            fallbacks = (task.solver,)
        for position, fallback in enumerate(fallbacks):
            degraded_task = replace(task, solver=fallback)
            last = position == len(fallbacks) - 1
            timeout = deadline.cap(self.options.task_timeout)
            if timeout is not None and timeout <= 0 and not last:
                attempt += 1
                continue
            if last and deadline.bounded:
                # Last resort: the caller must get an answer even when
                # the budget is spent (or nearly so) -- run the cheapest
                # solver bounded by the task timeout alone and flag the
                # overrun instead of enforcing it.
                if timeout is not None and timeout <= 0:
                    deadline_hit = True
                timeout = self.options.task_timeout
            try:
                swings = self._call_bounded(
                    degraded_task, timeout, attempt, spans=spans
                )
            except (DeadlineExceeded, OptimizationError):
                deadline_hit = deadline_hit or deadline.expired
                attempt += 1
                continue
            policy.count("degraded_solves")
            self.metrics.counter(
                "pool.degraded", requested=task.solver, fallback=fallback
            ).increment()
            if deadline_hit or deadline.expired:
                policy.count("deadline_expirations")
            return SolveOutcome(
                swings=swings,
                solver=fallback,
                requested_solver=task.solver,
                degraded=True,
                retries=retries,
                deadline_exceeded=deadline_hit or deadline.expired,
                spans=tuple(spans) if spans else (),
            )
        policy.count("deadline_expirations")
        raise DeadlineExceeded(
            f"every fallback for solver {task.solver!r} failed within the "
            f"deadline: {cause}"
        ) from cause

    def _serial_outcome(self, task: SolveTask) -> SolveOutcome:
        deadline = task.deadline_object()
        spans: Optional[List[dict]] = [] if task.traced else None
        if deadline.expired:
            # The budget was spent before the solve started: skip
            # straight to the cheapest fallback so the caller still
            # gets an allocation.
            return self._degraded_outcome(
                task,
                deadline,
                timed_out=True,
                retries=0,
                first_attempt=0,
                cause=DeadlineExceeded("deadline expired before solve"),
                spans=spans,
            )
        # The first attempt is bounded only by the request deadline --
        # without one, this is exactly the pre-resilience serial path.
        timeout = deadline.cap(None)
        try:
            swings = self._call_bounded(task, timeout, attempt=0, spans=spans)
        except DeadlineExceeded as error:
            return self._degraded_outcome(
                task, deadline, timed_out=True, retries=0,
                first_attempt=1, cause=error, spans=spans,
            )
        except OptimizationError as error:
            return self._degraded_outcome(
                task, deadline, timed_out=False, retries=0,
                first_attempt=1, cause=error, spans=spans,
            )
        return SolveOutcome(
            swings=swings, solver=task.solver, requested_solver=task.solver,
            spans=tuple(spans) if spans else (),
        )

    def _parallel_outcomes(self, tasks: List[SolveTask]) -> List[SolveOutcome]:
        results: List[Optional[np.ndarray]] = [None] * len(tasks)
        payloads: List[Optional[List[dict]]] = [None] * len(tasks)
        retry: List[tuple] = []  # (index, timed_out)
        with self.metrics.timer("pool.batch_seconds"):
            executor = ProcessPoolExecutor(max_workers=self.options.max_workers)
            try:
                # Traced tasks ship through solve_task_traced so the
                # worker records its solve span; payload times are
                # relative to the worker's capture origin, re-based here
                # on the submit timestamp (this process's clock).
                submit_times: Dict[int, float] = {}
                futures = {}
                for index, task in enumerate(tasks):
                    if task.traced:
                        submit_times[index] = time.perf_counter()
                        futures[index] = executor.submit(
                            solve_task_traced, task, None, 0
                        )
                    else:
                        futures[index] = executor.submit(solve_task, task, None, 0)
                for index, future in futures.items():
                    timeout = tasks[index].deadline_object().cap(
                        self.options.task_timeout
                    )
                    try:
                        value = future.result(timeout=timeout)
                    except FutureTimeout:
                        retry.append((index, True))
                    except (BrokenProcessPool, OSError):
                        retry.append((index, False))
                    else:
                        if tasks[index].traced:
                            swings, payload = value
                            results[index] = swings
                            payloads[index] = shift_payload(
                                payload, submit_times[index]
                            )
                        else:
                            results[index] = value
            finally:
                # Do not block the batch on timed-out workers still
                # chewing on abandoned tasks.
                executor.shutdown(wait=False, cancel_futures=True)
        if self.resilience is not None:
            if retry:
                for _ in retry:
                    self.resilience.breaker.record_failure()
                self.resilience.count("pool_failures", len(retry))
            else:
                self.resilience.breaker.record_success()
        outcomes: List[Optional[SolveOutcome]] = [
            None
            if results[index] is None
            else SolveOutcome(
                swings=results[index],
                solver=task.solver,
                requested_solver=task.solver,
                spans=tuple(payloads[index]) if payloads[index] else (),
            )
            for index, task in enumerate(tasks)
        ]
        # Retry crashed/timed-out tasks in this process -- bounded by
        # task_timeout (a hung solve must not block the batch forever)
        # and by the task deadline, with backoff + degradation when a
        # resilience policy is attached.  Serial re-execution keeps the
        # batch deterministic and always makes progress.
        for index, timed_out in retry:
            self.metrics.counter("pool.retries").increment()
            outcomes[index] = self._retry_outcome(tasks[index], timed_out)
        if any(outcome is None for outcome in outcomes):
            raise RuntimeEngineError("pool returned incomplete results")
        return outcomes  # type: ignore[return-value]

    def _retry_outcome(self, task: SolveTask, timed_out: bool) -> SolveOutcome:
        deadline = task.deadline_object()
        policy = self.resilience
        spans: Optional[List[dict]] = [] if task.traced else None
        if timed_out:
            # The same solver just burned a full task_timeout in a
            # worker; re-running it serially would hang the batch again.
            # Degrade (with a policy) or fail explicitly (without).
            cause = DeadlineExceeded(
                f"solver {task.solver!r} exceeded the "
                f"{self.options.task_timeout:.3f}s task timeout in the pool"
            )
            if policy is not None and policy.options.degrade:
                return self._degraded_outcome(
                    task, deadline, timed_out=True, retries=1,
                    first_attempt=1, cause=cause, spans=spans,
                )
            try:
                swings = self._call_bounded(
                    task, deadline.cap(self.options.task_timeout), attempt=1,
                    spans=spans,
                )
            except Exception as error:
                self.metrics.counter("pool.failures").increment()
                raise RuntimeEngineError(
                    f"task failed after bounded serial retry: {error}"
                ) from error
            return SolveOutcome(
                swings=swings, solver=task.solver,
                requested_solver=task.solver, retries=1,
                spans=tuple(spans) if spans else (),
            )
        # Worker crash: the task itself is usually fine, so retry it
        # serially -- with backoff between attempts under a policy.
        attempts = 1 if policy is None else max(1, policy.retry.max_attempts)
        last_error: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            if policy is not None and attempt > 1:
                delay = deadline.cap(policy.retry.delay(task.fault_key, attempt - 2))
                if delay and delay > 0 and delay != float("inf"):
                    time.sleep(delay)
            if policy is not None:
                policy.count("retries")
            try:
                swings = self._call_bounded(
                    task, deadline.cap(self.options.task_timeout), attempt,
                    spans=spans,
                )
            except (DeadlineExceeded, OptimizationError) as error:
                last_error = error
                if isinstance(error, DeadlineExceeded):
                    break
                continue
            except Exception as error:
                self.metrics.counter("pool.failures").increment()
                raise RuntimeEngineError(
                    f"task failed after serial retry: {error}"
                ) from error
            return SolveOutcome(
                swings=swings, solver=task.solver,
                requested_solver=task.solver, retries=attempt,
                spans=tuple(spans) if spans else (),
            )
        if policy is not None and policy.options.degrade:
            return self._degraded_outcome(
                task,
                deadline,
                timed_out=isinstance(last_error, DeadlineExceeded),
                retries=attempts,
                first_attempt=attempts + 1,
                cause=last_error or RuntimeEngineError("retries exhausted"),
                spans=spans,
            )
        self.metrics.counter("pool.failures").increment()
        raise RuntimeEngineError(
            f"task failed after serial retry: {last_error}"
        ) from last_error
