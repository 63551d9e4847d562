"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

- :func:`percentile` applies the tail-sample rule: a percentile is
  reported only when at least :data:`MIN_BEYOND` samples lie beyond it.
- :func:`fold_self_times` turns timed spans into per-layer self time
  plus an explicit ``unattributed`` residual row.
- :func:`sustained_rps` applies the open-loop ladder rule.
- :func:`queue_waits` matches each request in a shard batch to its
  submission.
- :class:`Tally` counts requests sent, served, failed and degraded, one
  request at a time, so an exception that sinks a whole batch counts
  once for every request the batch carried.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly after the nearest-rank *q*-th percentile."""
    if count < 1:
        return 0
    return count - max(1, math.ceil(q / 100.0 * count))


def min_samples(q: float) -> int:
    """The smallest sample count that supports the *q*-th percentile."""
    count = 1
    while samples_beyond(count, q) < MIN_BEYOND:
        count += 1
    return count


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-th percentile of *samples*.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a tail is one or two outliers, not a percentile.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    beyond = samples_beyond(len(samples), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(samples)} samples leave {beyond}"
        )
    ordered = sorted(samples)
    return float(ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1])


# ----------------------------------------------------------------------
# Self-time folding
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer.

    ``parent`` is the index of the enclosing span in the same recording
    (``None`` for a top-level call).
    """

    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def fold_self_times(
    spans: Sequence[Span], windows: Sequence[Tuple[float, float]]
) -> Dict[str, float]:
    """Per-layer self seconds plus ``unattributed``, from *spans*.

    A span's self time is its duration minus the part of its interval
    that its children cover (children may run on other threads, so they
    are clipped to the parent's interval and merged, never subtracted
    twice).  ``unattributed`` is the part of the timed *windows* that no
    top-level span covers: harness and loop time the layers do not own.
    With one thread the layer rows plus ``unattributed`` sum to the
    windows' total length exactly.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        self_time = span.duration - covered(children.get(index, ()))
        totals[span.layer] = totals.get(span.layer, 0.0) + self_time
    top = [(span.start, span.end) for span in spans if span.parent is None]
    residual = 0.0
    for lo, hi in windows:
        inside = [(max(a, lo), min(b, hi)) for a, b in top if min(b, hi) > max(a, lo)]
        residual += (hi - lo) - covered(inside)
    totals["unattributed"] = residual
    return totals


# ----------------------------------------------------------------------
# Open-loop ladder
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One open-loop rate step.

    ``within_limit`` counts requests served within the latency limit,
    timed from their due send time; shed and failed requests are not in
    it, so they count as misses.  ``backlog_grew`` is set when the step
    ended with more work queued than the limit allows to drain.
    """

    rate: float
    sent: int
    within_limit: int
    backlog_grew: bool

    @property
    def met_share(self) -> float:
        return self.within_limit / self.sent if self.sent else 0.0

    def passes(self, share: float) -> bool:
        return self.sent > 0 and self.met_share >= share and not self.backlog_grew


def sustained_rps(steps: Sequence[Step], share: float = 0.99) -> float:
    """The highest rate whose step, and every slower step, passed.

    0.0 when the slowest step already fails.
    """
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.passes(share):
            break
        best = step.rate
    return best


# ----------------------------------------------------------------------
# Front-door queue wait
# ----------------------------------------------------------------------


def queue_waits(
    submissions: Iterable[Tuple[str, float]],
    batch_starts: Iterable[Tuple[float, Sequence[str]]],
) -> List[float]:
    """Seconds from each request's submit to the start of its shard batch.

    *submissions* are ``(tag, time)`` pairs in submission order.  A tag
    can come round again within one stretch, so each batch entry is
    matched with the latest submission of its tag before the batch
    began; an entry with none (submitted before the stretch) is skipped.
    """
    submitted: Dict[str, List[float]] = {}
    for tag, at in submissions:
        submitted.setdefault(tag, []).append(at)
    waits = []
    for start, tags in batch_starts:
        for tag in tags:
            times = submitted.get(tag, [])
            index = bisect.bisect_right(times, start)
            if index:
                waits.append(start - times[index - 1])
    return waits


# ----------------------------------------------------------------------
# Per-request accounting
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """Requests sent, served, failed (raised or shed) and degraded."""

    sent: int = 0
    served: int = 0
    failed: int = 0
    degraded: int = 0

    def served_batch(self, degraded_flags: Sequence[bool]) -> None:
        """A call that returned one result per request."""
        self.sent += len(degraded_flags)
        self.served += len(degraded_flags)
        self.degraded += sum(1 for flag in degraded_flags if flag)

    def failed_batch(self, requests: int) -> None:
        """A call that raised or was shed: every request it carried failed."""
        self.sent += requests
        self.failed += requests

    def add(self, other: "Tally") -> None:
        self.sent += other.sent
        self.served += other.served
        self.failed += other.failed
        self.degraded += other.degraded

    @property
    def failed_frac(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    @property
    def degraded_frac(self) -> float:
        return self.degraded / self.sent if self.sent else 0.0
