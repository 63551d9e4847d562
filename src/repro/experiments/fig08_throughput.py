"""Fig. 8: throughput vs communication power over 100 random instances.

For the Fig. 6 workload, the optimal allocation policy is solved under a
growing power budget; the paper plots system throughput and per-RX
throughputs (mean with 95% confidence interval).  Observed properties to
reproduce:

- throughput grows with the budget but the marginal gain drops beyond
  ~1.2 W (the power-efficiency knee);
- per-RX throughputs stay balanced (the sum-log objective);
- RX3 and RX4 (more non-interfering TXs nearby) end above RX1 and RX2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..channel import channel_matrix_stack
from ..core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
)
from ..errors import ConfigurationError
from .config import ExperimentConfig, default_config
from .scenarios import fig6_instances

#: Two-sided 95% normal quantile for the confidence intervals.
_Z95: float = 1.959963984540054


@dataclass(frozen=True)
class ThroughputSweepResult:
    """The Fig. 8 curves.

    Attributes:
        budgets: power budgets [W], shape (B,).
        system_mean / system_ci: system throughput stats [bit/s], (B,).
        per_rx_mean / per_rx_ci: per-RX stats [bit/s], (B, M).
        solver: which solver produced the allocations.
    """

    budgets: np.ndarray
    system_mean: np.ndarray
    system_ci: np.ndarray
    per_rx_mean: np.ndarray
    per_rx_ci: np.ndarray
    solver: str

    @property
    def knee_budget(self) -> float:
        """Budget [W] where marginal system throughput halves.

        The paper notes growth slows markedly past ~1.2 W.  The knee is
        the first budget whose marginal gain drops below half the initial
        marginal gain.
        """
        gains = np.diff(self.system_mean) / np.diff(self.budgets)
        if gains.size == 0 or gains[0] <= 0:
            return float("nan")
        for i in range(1, gains.size):
            if gains[i] < 0.5 * gains[0]:
                return float(self.budgets[i])
        return float(self.budgets[-1])

    def fairness_spread(self) -> np.ndarray:
        """Max/min per-RX throughput ratio per budget (1 = perfectly fair)."""
        safe = np.maximum(self.per_rx_mean.min(axis=1), 1.0)
        return self.per_rx_mean.max(axis=1) / safe


def run(
    config: Optional[ExperimentConfig] = None,
    instances: int = 20,
    budgets: Optional[Sequence[float]] = None,
    solver: str = "optimal",
    seed: int = 0,
) -> ThroughputSweepResult:
    """Sweep budgets over random instances with the chosen solver.

    ``solver`` is ``"optimal"`` (SLSQP, the paper's policy -- slower) or
    ``"heuristic"`` (Algorithm 1 at kappa = 1.3 -- within ~2%).  The paper
    uses 100 instances; 20 gives the same curves with tighter runtime.
    """
    if solver not in ("optimal", "heuristic"):
        raise ConfigurationError(f"unknown solver {solver!r}")
    if instances < 2:
        raise ConfigurationError(f"need at least 2 instances, got {instances}")
    cfg = config if config is not None else default_config()
    budget_list = (
        list(budgets) if budgets is not None else list(cfg.coarse_budgets(8))
    )
    placements = fig6_instances(instances=instances, seed=seed)
    base_scene = cfg.simulation_scene_at(placements[0])
    num_rx = placements.shape[1]

    system = np.zeros((instances, len(budget_list)))
    per_rx = np.zeros((instances, len(budget_list), num_rx))
    # SJR-pruned reduced-variable solves (with full-dimension fallback)
    # keep the optimal sweep's utility while cutting most of its cost.
    optimizer = ContinuousOptimizer(
        OptimizerOptions(restarts=0, seed=seed, reduce=True)
    )
    heuristic = RankingHeuristic()
    # One batched broadcast for all instance channels (runtime engine)
    # instead of rebuilding a Scene per instance.
    channels = channel_matrix_stack(base_scene, placements)
    for t in range(instances):
        problem = AllocationProblem(
            channel=channels[t],
            power_budget=budget_list[-1],
            led=cfg.led,
            photodiode=cfg.photodiode,
            noise=cfg.noise,
        )
        if solver == "optimal":
            allocations = optimizer.sweep(problem, budget_list)
        else:
            allocations = heuristic.sweep(problem, budget_list)
        for b, allocation in enumerate(allocations):
            rates = allocation.throughput
            per_rx[t, b] = rates
            system[t, b] = float(np.sum(rates))

    def _ci(data: np.ndarray) -> np.ndarray:
        return _Z95 * data.std(axis=0, ddof=1) / np.sqrt(instances)

    return ThroughputSweepResult(
        budgets=np.asarray(budget_list, dtype=float),
        system_mean=system.mean(axis=0),
        system_ci=_ci(system),
        per_rx_mean=per_rx.mean(axis=0),
        per_rx_ci=_ci(per_rx),
        solver=solver,
    )
