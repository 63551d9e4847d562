"""Validate every served allocation against an independent channel.

The reference channel is rebuilt from the request's exact receiver
positions with :func:`repro.channel.channel_matrix` on a moved copy of
the scene, a path that shares nothing with the service's caches, its
incremental column update or ``runtime.batch``.  Each result must:

- satisfy the power constraints, Eqs. 6-7 (``AllocationProblem.is_feasible``);
- report per-receiver throughputs equal to ``problem.throughput(swings)``
  on that channel, within :data:`RTOL`;
- when it is a non-degraded ``swing`` result, score at least the
  ``RankingHeuristic`` (SJR) utility on the same channel.

Tolerance.  The service caches channels under keys quantized to
``FINGERPRINT_QUANTUM`` (1 mm), and its incremental update reuses the
columns of receivers it considers unmoved, so a receiver's column may
legitimately come from any earlier position in the same quantum cell.
The checker therefore matches each receiver against every exact position
seen in its cell; with the channel pinned down that way, the only
remaining difference is floating-point summation order (below 1e-14
relative here), while moving a receiver by one quantum moves throughputs
by 3e-4 to 6e-3 relative (hotspot-fleet placements).  ``RTOL = 1e-6``
sits between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.channel import AWGNNoise, channel_matrix
from repro.core import AllocationProblem, RankingHeuristic
from repro.core.problem import UTILITY_FLOOR
from repro.system import FINGERPRINT_QUANTUM

RTOL = 1e-6
#: Absolute slack [bit/s] for receivers the allocation leaves unserved.
ATOL_BPS = 1e-3
#: Relative slack on "swing utility >= SJR seed utility".
UTILITY_RTOL = 1e-9

Positions = Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class Verdict:
    """One checked result: its score on the reference channel, and faults."""

    utility: float
    throughput_bps: float
    violations: Tuple[str, ...] = ()


class OutputChecker:
    """Checks results served over one scene; remembers what it verified.

    One checker may see results from several services over the same
    scene.  :meth:`observe` every request sent, served or not, before
    checking results: a failed call can still have filled the channel
    cache.  A result identical in every field to one already verified (a
    replayed scenario, a cache hit) gets the same verdict.
    """

    def __init__(self, scene) -> None:
        self.scene = scene
        self.noise = AWGNNoise()
        self._problems: Dict[Tuple[Positions, float], AllocationProblem] = {}
        self._seed_utility: Dict[Tuple[Positions, float, float], float] = {}
        # Quantum cell -> exact receiver positions seen in it.
        self._cells: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        self._verified: Dict[tuple, Verdict] = {}

    @staticmethod
    def _cell(xy: Tuple[float, float]) -> Tuple[int, int]:
        return (int(round(xy[0] / FINGERPRINT_QUANTUM)), int(round(xy[1] / FINGERPRINT_QUANTUM)))

    def observe(self, request) -> None:
        """Record where *request*'s receivers were."""
        for xy in request.rx_positions_xy:
            seen = self._cells.setdefault(self._cell(xy), [])
            if xy not in seen:
                seen.append(xy)

    def _problem(self, positions: Positions, budget: float) -> AllocationProblem:
        key = (positions, budget)
        problem = self._problems.get(key)
        if problem is None:
            problem = AllocationProblem(
                channel=channel_matrix(self.scene.with_receivers_at(positions)),
                power_budget=budget,
                led=self.scene.led,
                photodiode=self.scene.receivers[0].photodiode,
                noise=self.noise,
            )
            self._problems[key] = problem
        return problem

    def check(self, request, result) -> Verdict:
        """Check one result served for *request*."""
        positions = request.rx_positions_xy
        budget = float(request.power_budget)
        tag = request.tag
        # A coalesced result carries the request it was solved for, which
        # must ask for the same allocation.
        served_for = result.request
        if (served_for.rx_positions_xy, float(served_for.power_budget), served_for.solver,
                float(served_for.kappa)) != (positions, budget, request.solver, float(request.kappa)):
            return Verdict(0.0, 0.0, (f"{tag}: result was solved for {served_for.tag!r}",))
        key = (
            positions, budget, request.solver, float(request.kappa),
            result.degraded, result.system_throughput,
            np.asarray(result.swings).tobytes(), np.asarray(result.per_rx_throughput).tobytes(),
        )
        verdict = self._verified.get(key)
        if verdict is None:
            verdict = self._verify(request, result)
            if not verdict.violations:
                self._verified[key] = verdict
        return verdict

    def _served_positions(self, positions: Positions, budget: float, swings, reported) -> Positions:
        """The placement whose channel explains *reported*, receiver by receiver.

        Receiver ``m``'s throughput depends only on column ``m`` of the
        channel, so each mismatching receiver is tried at every exact
        position seen in its quantum cell.  Unexplained receivers keep
        the request's position (and fail the comparison).
        """
        rates = self._problem(positions, budget).throughput(swings)
        served = list(positions)
        for m, xy in enumerate(positions):
            if np.isclose(reported[m], rates[m], rtol=RTOL, atol=ATOL_BPS):
                continue
            for other in self._cells.get(self._cell(xy), ()):
                moved = positions[:m] + (other,) + positions[m + 1:]
                if np.isclose(
                    reported[m], self._problem(moved, budget).throughput(swings)[m],
                    rtol=RTOL, atol=ATOL_BPS,
                ):
                    served[m] = other
                    break
        return tuple(served)

    def _verify(self, request, result) -> Verdict:
        tag = request.tag
        budget = float(request.power_budget)
        violations = []
        swings = np.asarray(result.swings, dtype=float)
        reported = np.asarray(result.per_rx_throughput, dtype=float)
        positions = self._served_positions(request.rx_positions_xy, budget, swings, reported)
        problem = self._problem(positions, budget)
        if not problem.is_feasible(swings):
            violations.append(f"{tag}: infeasible allocation (Eqs. 6-7)")
        reference = problem.throughput(swings)
        if not np.allclose(reported, reference, rtol=RTOL, atol=ATOL_BPS):
            violations.append(f"{tag}: per-RX throughput differs from the reference channel")
        if not np.isclose(
            result.system_throughput, float(reported.sum()), rtol=RTOL, atol=ATOL_BPS
        ):
            violations.append(f"{tag}: system throughput != sum of per-RX")
        utility = float(np.sum(np.log(np.maximum(reference, UTILITY_FLOOR))))
        if request.solver == "swing" and not result.degraded:
            floor = self._sjr_utility(problem, positions, budget, float(request.kappa))
            if utility < floor - UTILITY_RTOL * abs(floor):
                violations.append(f"{tag}: swing utility {utility:.9f} < SJR seed {floor:.9f}")
        return Verdict(utility, float(reference.sum()), tuple(violations))

    def _sjr_utility(
        self, problem: AllocationProblem, positions: Positions, budget: float, kappa: float
    ) -> float:
        key = (positions, budget, kappa)
        value = self._seed_utility.get(key)
        if value is None:
            seed = RankingHeuristic(kappa=kappa).solve(problem).swings
            value = self._seed_utility[key] = problem.utility(seed)
        return value


@dataclass
class CheckTotals:
    """Checked results, their violations and reference-channel scores."""

    checked: int = 0
    violations: List[str] = field(default_factory=list)
    utility_sum: float = 0.0
    throughput_sum_bps: float = 0.0

    def add(self, verdict: Verdict) -> None:
        self.checked += 1
        self.violations.extend(verdict.violations)
        self.utility_sum += verdict.utility
        self.throughput_sum_bps += verdict.throughput_bps

    def merge(self, other: "CheckTotals") -> None:
        self.checked += other.checked
        self.violations.extend(other.violations)
        self.utility_sum += other.utility_sum
        self.throughput_sum_bps += other.throughput_sum_bps
