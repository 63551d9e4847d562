"""Fig. 11: heuristic vs optimal -- kappa sweep and loss histograms.

Left pane: system throughput vs budget for the Fig. 7 instance, optimal
vs heuristic at kappa in {1.0, 1.2, 1.3, 1.5}.  Right panes: histograms
of the per-instance average throughput loss vs optimal over the Fig. 6
random instances.  Paper numbers: average losses 40.3% / 2.4% / 1.8% /
2.6% for kappa 1.0 / 1.2 / 1.3 / 1.5, making kappa = 1.3 the best pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..channel import channel_matrix, channel_matrix_stack
from ..core import (
    AllocationProblem,
    ContinuousOptimizer,
    OptimizerOptions,
    RankingHeuristic,
)
from ..errors import ConfigurationError
from .config import ExperimentConfig, default_config
from .scenarios import fig6_instances, fig7_instance


@dataclass(frozen=True)
class HeuristicComparisonResult:
    """The Fig. 11 data.

    Attributes:
        budgets: the sweep grid [W].
        optimal_curve: optimal system throughput on the Fig. 7 instance.
        heuristic_curves: kappa -> system throughput curve.
        losses: kappa -> per-instance average relative loss (negative =
            heuristic below optimal), over the random instances.
    """

    budgets: np.ndarray
    optimal_curve: np.ndarray
    heuristic_curves: Dict[float, np.ndarray]
    losses: Dict[float, np.ndarray]

    def average_loss(self, kappa: float) -> float:
        """Mean relative loss for a kappa (the paper's headline numbers)."""
        return float(np.mean(self.losses[kappa]))

    def best_kappa(self) -> float:
        """The kappa with the smallest average loss."""
        return min(self.losses, key=self.average_loss_magnitude)

    def average_loss_magnitude(self, kappa: float) -> float:
        return abs(self.average_loss(kappa))


def run(
    config: Optional[ExperimentConfig] = None,
    instances: int = 20,
    budgets: Optional[Sequence[float]] = None,
    kappas: Optional[Sequence[float]] = None,
    seed: int = 0,
) -> HeuristicComparisonResult:
    """Compare the heuristic against the optimal policy.

    The per-instance loss averages the relative system-throughput gap
    over the budget grid, matching the paper's histogram definition.
    """
    if instances < 1:
        raise ConfigurationError(f"need at least 1 instance, got {instances}")
    cfg = config if config is not None else default_config()
    kappa_list = list(kappas) if kappas is not None else list(cfg.kappas)
    budget_list = (
        list(budgets) if budgets is not None else list(cfg.coarse_budgets(6))
    )
    optimizer = ContinuousOptimizer(OptimizerOptions(restarts=0, seed=seed))

    # Left pane: the Fig. 7 instance.
    scene = cfg.simulation_scene_at(fig7_instance())
    problem = AllocationProblem(
        channel=channel_matrix(scene),
        power_budget=budget_list[-1],
        led=cfg.led,
        photodiode=cfg.photodiode,
        noise=cfg.noise,
    )
    optimal_curve = np.array(
        [a.system_throughput for a in optimizer.sweep(problem, budget_list)]
    )
    heuristic_curves = {}
    for kappa in kappa_list:
        sweep = RankingHeuristic(kappa=kappa).sweep(problem, budget_list)
        heuristic_curves[kappa] = np.array(
            [a.system_throughput for a in sweep]
        )

    # Right panes: loss histograms over random instances.  All instance
    # channels come from one batched broadcast (runtime engine) instead
    # of per-instance scene rebuilds.
    placements = fig6_instances(instances=instances, seed=seed)
    base_scene = cfg.simulation_scene_at(placements[0])
    channels = channel_matrix_stack(base_scene, placements)
    losses: Dict[float, List[float]] = {kappa: [] for kappa in kappa_list}
    for t in range(instances):
        inst_problem = AllocationProblem(
            channel=channels[t],
            power_budget=budget_list[-1],
            led=cfg.led,
            photodiode=cfg.photodiode,
            noise=cfg.noise,
        )
        optimal = np.array(
            [
                a.system_throughput
                for a in optimizer.sweep(inst_problem, budget_list)
            ]
        )
        optimal_mean = float(np.mean(optimal))
        for kappa in kappa_list:
            sweep = RankingHeuristic(kappa=kappa).sweep(
                inst_problem, budget_list
            )
            heuristic = np.array([a.system_throughput for a in sweep])
            # The paper reports how much the *average* throughput drops
            # ("the average throughputs ... are decreased by 40.3%,
            # 2.4%, ..."): the relative loss of the budget-averaged
            # curve, not the average of per-budget ratios (which the
            # near-zero-budget regime would dominate).
            if optimal_mean > 0:
                losses[kappa].append(
                    float((np.mean(heuristic) - optimal_mean) / optimal_mean)
                )
            else:
                losses[kappa].append(0.0)
    return HeuristicComparisonResult(
        budgets=np.asarray(budget_list, dtype=float),
        optimal_curve=optimal_curve,
        heuristic_curves=heuristic_curves,
        losses={k: np.asarray(v) for k, v in losses.items()},
    )
