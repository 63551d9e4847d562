"""Fault-tolerance primitives for the allocation-serving runtime.

The fast path (cache -> batch -> pool) assumes every solve returns.  In
production it will not: SLSQP wedges on a bad conditioning, a pool
worker segfaults, a caller shows up with a latency budget.  This module
supplies the four mechanisms the service composes into "always answer,
degrade explicitly":

- :class:`Deadline` -- a per-request wall-clock budget that flows from
  :class:`~repro.runtime.service.AllocationRequest` through the
  allocation stage into :class:`~repro.runtime.pool.SolverPool` task
  timeouts;
- :class:`RetryPolicy` -- bounded retries with exponential backoff and
  *deterministic* jitter (a pure hash of seed/key/attempt, so chaos
  runs reproduce bit-for-bit);
- :class:`CircuitBreaker` -- trips after repeated pool failures
  (``BrokenProcessPool`` / timeouts) and routes traffic to the
  in-process serial path until a probe succeeds;
- the degradation chain -- ``optimal -> swing -> greedy -> heuristic``:
  a timed-out or non-converged solve falls down the chain and returns
  the best cheaper allocation instead of raising.

Everything reports through ``resilience.*`` counters/gauges in the
metrics registry; :meth:`AllocationService.health` summarizes the
current state.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Tuple

from ..analysis.lockgraph import monitored_lock
from ..errors import CircuitOpenError, ConfigurationError, DeadlineExceeded
from .faults import hash_unit
from .metrics import MetricsRegistry

#: Solver fallback order: each entry degrades to the ones after it.
DEGRADATION_CHAIN: Tuple[str, ...] = ("optimal", "swing", "greedy", "heuristic")


def degradation_fallbacks(solver: str) -> Tuple[str, ...]:
    """The solvers to fall back to, in chain order.

    For a solver outside the chain there is nothing cheaper that is
    known-compatible, so the only fallback is the heuristic.  Only
    ``optimal`` runs SLSQP; every fallback after it is combinatorial
    and runs in milliseconds, so a timed-out ``optimal`` still gets the
    near-optimal ``swing`` answer before the heuristic floor.
    """
    try:
        position = DEGRADATION_CHAIN.index(solver)
    except ValueError:
        return ("heuristic",) if solver != "heuristic" else ()
    return DEGRADATION_CHAIN[position + 1 :]


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Deadline:
    """An absolute wall-clock budget on the monotonic clock.

    ``expires_at`` is a :func:`time.monotonic` timestamp (``inf`` means
    unbounded).  Deadlines are enforced entirely in the parent process
    -- workers never read them -- so they need no cross-process clock
    agreement.

    ``expired`` and :meth:`remaining` are two views of the same clock
    read: ``expired`` is exactly ``remaining() == 0.0`` for a bounded
    deadline, so callers can never observe a request that reports zero
    budget while claiming not to be expired (or the reverse).  The clock
    is injectable for boundary tests.
    """

    expires_at: float = float("inf")
    clock: Callable[[], float] = field(
        default=time.monotonic, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if math.isnan(self.expires_at):
            raise ConfigurationError("deadline expires_at must not be NaN")

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> "Deadline":
        """A deadline *seconds* from now (None -> unbounded).

        The budget must be a positive, finite number: zero and negative
        budgets are rejected here (a deadline born expired would enter
        queues only to be shed at dispatch), and NaN/inf are rejected
        rather than silently producing a deadline that never expires
        but reports a NaN remaining budget.
        """
        if seconds is None:
            return cls(clock=clock)
        if not math.isfinite(seconds) or seconds <= 0:
            raise ConfigurationError(
                f"deadline must be positive and finite, got {seconds}"
            )
        return cls(expires_at=clock() + seconds, clock=clock)

    @property
    def bounded(self) -> bool:
        return self.expires_at != float("inf")

    def _left(self) -> float:
        """Raw signed budget from one clock read (``inf`` if unbounded)."""
        if not self.bounded:
            return float("inf")
        return self.expires_at - self.clock()

    def remaining(self) -> float:
        """Seconds left (clamped at 0; ``inf`` when unbounded)."""
        return max(0.0, self._left())

    @property
    def expired(self) -> bool:
        return self._left() <= 0.0

    def require(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(f"deadline expired before {what}")

    def cap(self, timeout: Optional[float]) -> Optional[float]:
        """*timeout* tightened by the remaining budget (None = no cap).

        An expired deadline caps to exactly ``0.0``; callers treat that
        as an immediate timeout, never as "no timeout".
        """
        if not self.bounded:
            return timeout
        remaining = self.remaining()
        if timeout is None:
            return remaining
        return min(timeout, remaining)


# ----------------------------------------------------------------------
# Retry with deterministic jitter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seedable jitter.

    ``delay(key, attempt)`` is a pure function: jitter comes from a
    hash of ``(seed, key, attempt)``, not a global RNG, so a replayed
    chaos run backs off identically.  Attempt numbers are 0-based and
    count *retries* (the first try is not an attempt).
    """

    max_attempts: int = 2
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 0:
            raise ConfigurationError(
                f"max_attempts must be >= 0, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ConfigurationError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, key: Hashable, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based) of task *key*."""
        base = min(self.max_delay, self.base_delay * self.multiplier**attempt)
        fraction = hash_unit(self.seed, "backoff", key, attempt)
        return base * (1.0 + self.jitter * (fraction - 0.5))


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Closed -> open -> half-open failure gate for the process pool.

    ``failure_threshold`` consecutive pool-level failures (worker crash
    or task timeout) open the circuit; while open, :meth:`allow` returns
    False so the pool routes batches to the in-process serial path (and
    :meth:`check` raises :class:`CircuitOpenError` for callers that
    cannot degrade).  After ``reset_seconds`` the breaker half-opens and
    admits a single probe: success closes it, failure reopens it.

    The clock is injectable for tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    #: Numeric encoding for the ``resilience.circuit_state`` gauge.
    STATE_CODES = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds < 0:
            raise ConfigurationError(
                f"reset seconds must be >= 0, got {reset_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = monitored_lock("resilience.breaker")
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probe_inflight = False
        self.open_events = 0

    # -- state ----------------------------------------------------------

    def _refresh_locked(self) -> None:
        if (
            self._state == self.OPEN
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_seconds
        ):
            self._state = self.HALF_OPEN
            self._probe_inflight = False

    @property
    def state(self) -> str:
        with self._lock:
            self._refresh_locked()
            return self._state

    @property
    def failures(self) -> int:
        with self._lock:
            return self._failures

    @property
    def available(self) -> bool:
        """Whether dispatches may currently reach this breaker's pool.

        ``closed`` and ``half-open`` both count as available (half-open
        is probing its way back); only a fully ``open`` breaker is
        unavailable.  The cluster shard router uses this to spill a
        broken shard's keys to the next ring position.
        """
        return self.state != self.OPEN

    def allow(self) -> bool:
        """Whether a pool dispatch may proceed right now.

        Half-open admits exactly one in-flight probe; concurrent
        dispatches are refused until the probe reports back.
        """
        with self._lock:
            self._refresh_locked()
            if self._state == self.CLOSED:
                return True
            if self._state == self.HALF_OPEN and not self._probe_inflight:
                self._probe_inflight = True
                return True
            return False

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` unless a dispatch may proceed."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker is {self.state} after "
                f"{self._failures} consecutive pool failures"
            )

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probe_inflight = False
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._refresh_locked()
            self._failures += 1
            self._probe_inflight = False
            if (
                self._state == self.HALF_OPEN
                or self._failures >= self.failure_threshold
            ):
                if self._state != self.OPEN:
                    self.open_events += 1
                self._state = self.OPEN
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        with self._lock:
            self._refresh_locked()
            return {
                "state": self._state,
                "failures": self._failures,
                "open_events": self.open_events,
            }


# ----------------------------------------------------------------------
# Policy bundle
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceOptions:
    """Knobs for the service/pool fault-tolerance layer.

    Attributes:
        retry: backoff policy for crashed-worker retries.
        breaker_failure_threshold / breaker_reset_seconds: circuit
            breaker trip point and cool-down.
        degrade: fall down :data:`DEGRADATION_CHAIN` on timeout or
            non-convergence instead of raising (disable to surface
            :class:`DeadlineExceeded` / solver errors to the caller).
        default_deadline_seconds: per-request budget applied when a
            request does not carry its own (None = unbounded).
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 30.0
    degrade: bool = True
    default_deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.default_deadline_seconds is not None and (
            not math.isfinite(self.default_deadline_seconds)
            or self.default_deadline_seconds <= 0
        ):
            raise ConfigurationError(
                f"default deadline must be positive and finite, got "
                f"{self.default_deadline_seconds}"
            )


class ResiliencePolicy:
    """One breaker + retry policy + metrics wiring, shared pool-wide."""

    def __init__(
        self,
        options: Optional[ResilienceOptions] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.options = options if options is not None else ResilienceOptions()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.breaker = CircuitBreaker(
            failure_threshold=self.options.breaker_failure_threshold,
            reset_seconds=self.options.breaker_reset_seconds,
            clock=clock,
        )
        self.retry = self.options.retry

    def deadline_for(self, seconds: Optional[float]) -> Deadline:
        """A request deadline: explicit seconds, else the default."""
        if seconds is None:
            seconds = self.options.default_deadline_seconds
        return Deadline.after(seconds)

    def count(self, name: str, amount: float = 1.0, **labels: str) -> None:
        """Bump ``resilience.<name>``, optionally with metric labels.

        Labeled variants render as ``resilience.<name>{k="v"}`` and are
        picked up by :meth:`snapshot` alongside the plain counters.
        """
        self.metrics.counter(f"resilience.{name}", **labels).increment(amount)

    def refresh_gauges(self) -> None:
        self.metrics.gauge("resilience.circuit_state").set(
            CircuitBreaker.STATE_CODES[self.breaker.state]
        )

    def snapshot(self) -> dict:
        """Breaker state plus the resilience counters, one dict.

        Reads only the ``resilience.*`` counters (each an atomic locked
        read) instead of a full registry snapshot -- a full snapshot
        computes percentiles for every histogram, which is far too heavy
        for the cluster controller's per-rollup health polling.
        """
        counters = self.metrics.counters_with_prefix("resilience.")
        return {"circuit": self.breaker.snapshot(), "counters": counters}
