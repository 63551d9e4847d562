"""Pinned digests of swing allocations and served results.

The swing search and the service's channel path are pure functions of
their inputs, so a refactor that keeps their behaviour must reproduce
these digests bit for bit.  The swing cases cover the
``BENCH_optimizer`` scenes, seeded real 36x4 rooms and small random
problems whose duplicated, quantised channel rows force exact ties
between candidate moves, each cold and warm-started, with the SJR
reduction on and off.  The served cases replay two streaming scenario
traces through :meth:`AllocationService.handle_batch`.
"""

from __future__ import annotations

import hashlib
from itertools import groupby

import numpy as np
import pytest

from repro.channel import channel_matrix
from repro.core import (
    AllocationProblem,
    RankingHeuristic,
    SwingSearchOptions,
    solve_swing,
)
from repro.core import swingsearch
from repro.experiments.config import default_config
from repro.experiments.scenarios import fig7_instance
from repro.runtime.pool import PoolOptions
from repro.runtime.service import AllocationService, ServiceOptions
from repro.scenarios import build_scenario

SWING_DIGEST = "c3938ed9c871d8d5"
SERVED_DIGESTS = {
    "waypoint-fleet": "194709425e09556a",
    "hotspot-fleet": "d5e3ce3fbc53ac96",
}


def _problems():
    """(problem, warm_start) pairs: pinned rooms, seeded rooms, tie-rich toys."""
    cfg = default_config()

    def _problem(channel, budget):
        return AllocationProblem(
            channel=channel,
            power_budget=budget,
            led=cfg.led,
            photodiode=cfg.photodiode,
            noise=cfg.noise,
        )

    fig7 = channel_matrix(cfg.simulation_scene_at(fig7_instance()))
    rng = np.random.default_rng(7)
    shifted = channel_matrix(
        cfg.simulation_scene_at(
            [(float(x), float(y)) for x, y in rng.uniform(0.4, 2.6, size=(4, 2))]
        )
    )
    rooms = [_problem(fig7, 1.2), _problem(fig7, 0.8), _problem(shifted, 1.2)]
    for seed in range(12):
        placement = np.random.default_rng(100 + seed).uniform(0.3, 2.7, size=(4, 2))
        channel = channel_matrix(
            cfg.simulation_scene_at([(float(x), float(y)) for x, y in placement])
        )
        rooms.append(_problem(channel, 0.4 + 0.1 * seed))

    full_power = cfg.led.dynamic_resistance * (cfg.led.max_swing / 2.0) ** 2
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        num_tx = int(rng.integers(6, 17))
        num_rx = int(rng.integers(2, 5))
        # Few distinct quantised rows, many duplicates: moves that touch
        # twin TXs score exactly equal and go to the blake2b tie-break.
        palette = rng.integers(0, 4, size=(3, num_rx)) * 5e-6
        channel = palette[rng.integers(0, 3, size=num_tx)]
        budget = float(rng.uniform(0.15, 0.6)) * num_tx * full_power
        rooms.append(_problem(channel, budget))

    cases = []
    for problem in rooms:
        cases.append((problem, None))
        # Warm start: the heuristic's allocation at double the budget,
        # which the search must repair back into this budget.
        wide = problem.with_budget(2.0 * problem.power_budget)
        cases.append((problem, RankingHeuristic().solve(wide).swings))
    return cases


def _swing_digest():
    digest = hashlib.blake2b(digest_size=8)
    for problem, warm in _problems():
        for reduce in (True, False):
            allocation = solve_swing(
                problem, SwingSearchOptions(reduce=reduce, warm_start=warm)
            )
            digest.update(np.ascontiguousarray(allocation.swings).tobytes())
            digest.update(repr(allocation.assignments).encode())
    return digest.hexdigest()


def test_swing_allocations_match_pinned_digest(monkeypatch):
    ties = []
    original = swingsearch._tie_digest

    def counting(*args):
        ties.append(args)
        return original(*args)

    monkeypatch.setattr(swingsearch, "_tie_digest", counting)
    assert _swing_digest() == SWING_DIGEST
    # The tie-rich cases really reach the blake2b tie-break.
    assert len(ties) > 100


def _served_digest(name):
    instance = build_scenario(name)
    service = AllocationService(
        instance.scene,
        options=ServiceOptions(pool=PoolOptions(max_workers=0)),
    )
    digest = hashlib.blake2b(digest_size=8)
    served = 0
    for _, entries in groupby(instance.iter_trace(), key=lambda t: t.arrival_seconds):
        for result in service.handle_batch([timed.request for timed in entries]):
            digest.update(np.ascontiguousarray(result.swings).tobytes())
            digest.update(np.ascontiguousarray(result.per_rx_throughput).tobytes())
            digest.update(
                f"{result.fingerprint}|{result.solver_used}|{result.degraded}|"
                f"{result.channel_cached}|{result.allocation_cached}".encode()
            )
            served += 1
    assert served == instance.requests
    return digest.hexdigest(), service


@pytest.mark.parametrize("name", sorted(SERVED_DIGESTS))
def test_served_results_match_pinned_digest(name):
    digest, service = _served_digest(name)
    assert digest == SERVED_DIGESTS[name]
    # The incremental-channel path is exercised, not bypassed.
    assert service.metrics.counter("service.channel_incremental").value > 0
