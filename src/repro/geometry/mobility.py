"""Receiver mobility models.

The paper targets mobile receivers ("Fast adaptation", Sec. 2.1) and moves
its receivers with OpenBuilds ACRO rigs; channel dynamics are the reason
the heuristic must be fast.  These models generate receiver trajectories
for the mobility examples and the adaptation benchmarks:

- :class:`WaypointPath` -- piecewise-linear motion through fixed waypoints
  (what an ACRO rig executes).
- :class:`RandomWaypointModel` -- the classic random-waypoint model inside
  the room footprint.
- :class:`RandomWalkModel` -- a bounded Gauss-Markov-style random walk.
- :class:`HotspotModel` -- dwell near attraction points (desks, exhibits),
  hop between them; the clustered arrivals behind cache/coalescing wins.

All models expose ``position_at(t)`` (a single RX) and ``sample(times)``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .room import Room


class MobilityModel:
    """Interface: a time-parameterized XY trajectory inside a room."""

    def position_at(self, t: float) -> Tuple[float, float]:
        """XY position [m] at time *t* [s]."""
        raise NotImplementedError

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Positions at each time, as an ``(len(times), 2)`` array."""
        return np.array([self.position_at(float(t)) for t in times])


@dataclass
class WaypointPath(MobilityModel):
    """Piecewise-linear motion through waypoints at constant speed.

    Attributes:
        waypoints: sequence of XY positions [m]; at least two.
        speed: movement speed [m/s].
        loop: whether to return to the first waypoint and repeat.
    """

    waypoints: Sequence[Tuple[float, float]]
    speed: float = 0.5
    loop: bool = False

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise GeometryError("a waypoint path needs at least two waypoints")
        if self.speed <= 0:
            raise GeometryError(f"speed must be positive, got {self.speed}")
        points = [np.asarray(w, dtype=float) for w in self.waypoints]
        if self.loop:
            points.append(points[0])
        self._points = points
        self._segment_lengths = [
            float(np.linalg.norm(points[i + 1] - points[i]))
            for i in range(len(points) - 1)
        ]
        self._total_length = sum(self._segment_lengths)

    @property
    def duration(self) -> float:
        """Time [s] to traverse the whole path once."""
        return self._total_length / self.speed

    def position_at(self, t: float) -> Tuple[float, float]:
        if t < 0:
            raise GeometryError(f"time must be >= 0, got {t}")
        travelled = self.speed * t
        if self.loop and self._total_length > 0:
            travelled = travelled % self._total_length
        elif travelled >= self._total_length:
            end = self._points[-1]
            return (float(end[0]), float(end[1]))
        for length, start, end in zip(
            self._segment_lengths, self._points[:-1], self._points[1:]
        ):
            if travelled <= length or length == 0.0:
                frac = 0.0 if length == 0.0 else travelled / length
                pos = start + frac * (end - start)
                return (float(pos[0]), float(pos[1]))
            travelled -= length
        end = self._points[-1]
        return (float(end[0]), float(end[1]))


@dataclass
class RandomWaypointModel(MobilityModel):
    """Random-waypoint mobility: move to a random target, repeat.

    Pauses are not modeled (the paper's rigs move continuously).  The
    trajectory is deterministic given the seed, which keeps experiments
    reproducible.
    """

    room: Room
    speed: float = 0.5
    seed: Optional[int] = None
    margin: float = 0.2

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise GeometryError(f"speed must be positive, got {self.speed}")
        if not 0 <= self.margin < min(self.room.width, self.room.depth) / 2:
            raise GeometryError(f"margin {self.margin} does not fit the room")
        rng = np.random.default_rng(self.seed)
        self._rng = rng
        self._waypoints: List[np.ndarray] = [self._draw_point()]
        self._times: List[float] = [0.0]

    def _draw_point(self) -> np.ndarray:
        x = self._rng.uniform(self.margin, self.room.width - self.margin)
        y = self._rng.uniform(self.margin, self.room.depth - self.margin)
        return np.array([x, y])

    def _extend_until(self, t: float) -> None:
        while len(self._times) < 2 or self._times[-1] < t + 1e-12:
            target = self._draw_point()
            leg = float(np.linalg.norm(target - self._waypoints[-1]))
            if leg < 1e-9:
                continue  # same point drawn twice; redraw
            self._waypoints.append(target)
            self._times.append(self._times[-1] + leg / self.speed)

    def position_at(self, t: float) -> Tuple[float, float]:
        if t < 0:
            raise GeometryError(f"time must be >= 0, got {t}")
        self._extend_until(t)
        idx = bisect_right(self._times, t) - 1
        idx = max(0, min(idx, len(self._times) - 2))
        t0, t1 = self._times[idx], self._times[idx + 1]
        frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        frac = min(max(frac, 0.0), 1.0)
        pos = self._waypoints[idx] + frac * (self._waypoints[idx + 1] - self._waypoints[idx])
        return (float(pos[0]), float(pos[1]))


@dataclass
class HotspotModel(MobilityModel):
    """Hotspot mobility: dwell near attraction points, hop between them.

    Receivers spend ``dwell_seconds`` (exponentially jittered) parked at
    a Gaussian offset around one of the *hotspots*, then walk at *speed*
    to an offset around another hotspot.  Deterministic given the seed;
    the lazily extended anchor schedule mirrors
    :class:`RandomWaypointModel`.

    Attributes:
        room: the room footprint; anchors are clamped *margin* inside it.
        hotspots: XY attraction centers [m]; at least one.
        sigma: std-dev of the Gaussian offset around a hotspot [m].
        dwell_seconds: mean dwell time at an anchor before hopping [s].
        speed: hop movement speed [m/s].
        seed: RNG seed (None -> nondeterministic; scenarios always set it).
        margin: minimum distance kept from the walls [m].
    """

    room: Room
    hotspots: Sequence[Tuple[float, float]]
    sigma: float = 0.3
    dwell_seconds: float = 4.0
    speed: float = 0.8
    seed: Optional[int] = None
    margin: float = 0.2

    def __post_init__(self) -> None:
        if not self.hotspots:
            raise GeometryError("a hotspot model needs at least one hotspot")
        if self.sigma < 0:
            raise GeometryError(f"sigma must be >= 0, got {self.sigma}")
        if self.dwell_seconds <= 0 or self.speed <= 0:
            raise GeometryError("dwell_seconds and speed must be positive")
        for x, y in self.hotspots:
            if not self.room.contains_xy(float(x), float(y)):
                raise GeometryError(
                    f"hotspot ({x}, {y}) outside the room footprint"
                )
        self._rng = np.random.default_rng(self.seed)
        # Segments: (start_time, end_time, start_xy, end_xy); a dwell is
        # a segment whose endpoints coincide.
        first = self._draw_anchor()
        self._anchors: List[np.ndarray] = [first]
        self._times: List[float] = [0.0]
        self._dwelling = True

    def _draw_anchor(self) -> np.ndarray:
        index = int(self._rng.integers(0, len(self.hotspots)))
        center = np.asarray(self.hotspots[index], dtype=float)
        offset = self._rng.normal(0.0, self.sigma, size=2)
        x = float(np.clip(center[0] + offset[0], self.margin, self.room.width - self.margin))
        y = float(np.clip(center[1] + offset[1], self.margin, self.room.depth - self.margin))
        return np.array([x, y])

    def _extend_until(self, t: float) -> None:
        # Alternate dwell segments (anchor repeated) and travel segments.
        while len(self._times) < 2 or self._times[-1] < t + 1e-12:
            if self._dwelling:
                dwell = float(self._rng.exponential(self.dwell_seconds))
                self._anchors.append(self._anchors[-1])
                self._times.append(self._times[-1] + max(dwell, 1e-6))
                self._dwelling = False
            else:
                target = self._draw_anchor()
                leg = float(np.linalg.norm(target - self._anchors[-1]))
                if leg < 1e-9:
                    continue  # same anchor drawn twice; redraw
                self._anchors.append(target)
                self._times.append(self._times[-1] + leg / self.speed)
                self._dwelling = True

    def position_at(self, t: float) -> Tuple[float, float]:
        if t < 0:
            raise GeometryError(f"time must be >= 0, got {t}")
        self._extend_until(t)
        idx = bisect_right(self._times, t) - 1
        idx = max(0, min(idx, len(self._times) - 2))
        t0, t1 = self._times[idx], self._times[idx + 1]
        frac = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        frac = min(max(frac, 0.0), 1.0)
        pos = self._anchors[idx] + frac * (self._anchors[idx + 1] - self._anchors[idx])
        return (float(pos[0]), float(pos[1]))


@dataclass
class RandomWalkModel(MobilityModel):
    """Bounded random walk with momentum (Gauss-Markov flavored).

    Each step the heading is perturbed by Gaussian noise; the walker
    reflects off the room (inset by *margin*).  Positions between steps are
    linearly interpolated.
    """

    room: Room
    speed: float = 0.5
    step_interval: float = 0.5
    heading_sigma: float = 0.6
    seed: Optional[int] = None
    margin: float = 0.2
    start: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.speed <= 0 or self.step_interval <= 0:
            raise GeometryError("speed and step_interval must be positive")
        rng = np.random.default_rng(self.seed)
        self._rng = rng
        if self.start is None:
            x = rng.uniform(self.margin, self.room.width - self.margin)
            y = rng.uniform(self.margin, self.room.depth - self.margin)
        else:
            x, y = self.start
            if not self.room.contains_xy(x, y):
                raise GeometryError(f"start {self.start} outside the room")
        self._positions: List[np.ndarray] = [np.array([x, y], dtype=float)]
        self._heading = float(rng.uniform(0.0, 2.0 * np.pi))

    def _bounds(self) -> Tuple[float, float, float, float]:
        return (
            self.margin,
            self.room.width - self.margin,
            self.margin,
            self.room.depth - self.margin,
        )

    def _step(self) -> None:
        self._heading += float(self._rng.normal(0.0, self.heading_sigma))
        step = self.speed * self.step_interval
        pos = self._positions[-1] + step * np.array(
            [np.cos(self._heading), np.sin(self._heading)]
        )
        x0, x1, y0, y1 = self._bounds()
        # Reflect off the walls, flipping the heading component that hit.
        if pos[0] < x0 or pos[0] > x1:
            pos[0] = float(np.clip(2 * np.clip(pos[0], x0, x1) - pos[0], x0, x1))
            self._heading = np.pi - self._heading
        if pos[1] < y0 or pos[1] > y1:
            pos[1] = float(np.clip(2 * np.clip(pos[1], y0, y1) - pos[1], y0, y1))
            self._heading = -self._heading
        self._positions.append(pos)

    def position_at(self, t: float) -> Tuple[float, float]:
        if t < 0:
            raise GeometryError(f"time must be >= 0, got {t}")
        step_index = t / self.step_interval
        needed = int(np.ceil(step_index)) + 1
        while len(self._positions) < needed + 1:
            self._step()
        idx = int(step_index)
        frac = step_index - idx
        pos = self._positions[idx] + frac * (self._positions[idx + 1] - self._positions[idx])
        return (float(pos[0]), float(pos[1]))
