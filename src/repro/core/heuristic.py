"""The ranking-based heuristic, Algorithm 1 (paper Sec. 5).

The heuristic replaces the 165-second nonlinear program with a ranking
over a custom Signal-to-Jamming Ratio:

    SJR[i, j] = H[i, j]**kappa / sum_{j'} H[i, j']           (Eq. 14)

``kappa`` trades the desired channel against the interference a TX would
cause at the other receivers (Insight 3).  Algorithm 1 repeatedly takes
the (TX, RX) pair with the maximum SJR, appends it to the ranking and
removes that TX's row; the controller then grants full swing to the
ranked TXs in order until the power budget is exhausted (Insights 1-2).

With kappa = 1.3 on the paper's setup the heuristic loses only ~1.8% of
the optimal system throughput while being ~2500x faster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import constants
from ..errors import AllocationError
from .allocation import Allocation, Assignment
from .problem import AllocationProblem


def sjr_matrix(channel: np.ndarray, kappa: float = constants.DEFAULT_KAPPA) -> np.ndarray:
    """The (N, M) Signal-to-Jamming-Ratio matrix -- Eq. 14.

    Rows whose channel sums to zero (a TX no receiver can see) get an SJR
    of zero everywhere so they rank last.
    """
    matrix = np.asarray(channel, dtype=float)
    if matrix.ndim != 2:
        raise AllocationError(f"channel must be 2-D, got shape {matrix.shape}")
    if (matrix < 0).any():
        raise AllocationError("channel gains must be non-negative")
    if not math.isfinite(kappa) or kappa <= 0:
        raise AllocationError(f"kappa must be positive and finite, got {kappa}")
    row_sums = matrix.sum(axis=1, keepdims=True)
    sjr = np.zeros_like(matrix)
    np.divide(matrix**kappa, row_sums, out=sjr, where=row_sums > 0.0)
    return sjr


def ranked_pairs(sjr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Algorithm 1's ranking as ``(tx, rx)`` index arrays, sort-based.

    Removing a TX's row never changes another row's SJR, so Algorithm 1's
    repeated masked argmax over the whole matrix is equivalent to taking
    each TX's best RX once and sorting TXs by that value.  Ties break
    toward the lower TX index (and the lower RX index within a row),
    matching the flat-argmax order of the iterative formulation.
    """
    num_tx, _ = sjr.shape
    best_rx = np.argmax(sjr, axis=1)  # first max -> lowest rx on ties
    best_val = sjr[np.arange(num_tx), best_rx]
    order = np.lexsort((np.arange(num_tx), -best_val))
    return order, best_rx[order]


def _rank_transmitters_loop(
    channel: np.ndarray, kappa: float = constants.DEFAULT_KAPPA
) -> List[Assignment]:
    """Reference O(N^2) implementation of Algorithm 1 (masked argmax).

    Kept as the ground truth for property tests of the sort-based
    :func:`rank_transmitters`.
    """
    sjr = sjr_matrix(channel, kappa).copy()
    num_tx, num_rx = sjr.shape
    ranking: List[Assignment] = []
    remaining = np.ones(num_tx, dtype=bool)
    for _ in range(num_tx):
        masked = np.where(remaining[:, None], sjr, -np.inf)
        flat_index = int(np.argmax(masked))
        tx, rx = divmod(flat_index, num_rx)
        ranking.append((int(tx), int(rx)))
        remaining[tx] = False
    return ranking


def rank_transmitters(
    channel: np.ndarray, kappa: float = constants.DEFAULT_KAPPA
) -> List[Assignment]:
    """Algorithm 1: rank every TX with its intended RX by descending SJR.

    Returns the ``RankedTX`` list: N (tx, rx) pairs, each TX exactly once.
    Ties (including all-zero rows) break toward the lower TX index, which
    keeps the ranking deterministic.
    """
    tx, rx = ranked_pairs(sjr_matrix(channel, kappa))
    return list(zip(tx.tolist(), rx.tolist()))


@dataclass(frozen=True)
class RankingHeuristic:
    """The paper's heuristic as a solver object.

    Attributes:
        kappa: SJR exponent; the paper recommends 1.3 for its setup.
    """

    kappa: float = constants.DEFAULT_KAPPA

    def ranking(self, problem: AllocationProblem) -> List[Assignment]:
        """The full ``RankedTX`` list for a problem instance."""
        return rank_transmitters(problem.channel, self.kappa)

    def solve(self, problem: AllocationProblem) -> Allocation:
        """Grant full swing down the ranking until the budget runs out."""
        tx, rx = ranked_pairs(sjr_matrix(problem.channel, self.kappa))
        return self._granted(problem, tx, rx)

    def sweep(
        self, problem: AllocationProblem, budgets: Sequence[float]
    ) -> List[Allocation]:
        """Solve the same instance under several budgets.

        The ranking is computed once (it does not depend on the budget).
        """
        tx, rx = ranked_pairs(sjr_matrix(problem.channel, self.kappa))
        return [
            self._granted(problem.with_budget(float(budget)), tx, rx)
            for budget in budgets
        ]

    def _granted(
        self, problem: AllocationProblem, tx: np.ndarray, rx: np.ndarray
    ) -> Allocation:
        """Full swing on the longest affordable prefix of the ranking.

        The array form of ``binary_allocation(problem,
        truncate_to_budget(problem, ranking))``: the ranking's TXs are
        distinct and in range, so one fancy assignment builds the matrix.
        """
        granted = min(problem.max_affordable_transmitters, tx.size)
        tx, rx = tx[:granted], rx[:granted]
        swings = np.zeros(problem.channel.shape)
        swings[tx, rx] = problem.led.max_swing
        return Allocation(
            problem=problem,
            swings=swings,
            assignments=tuple(zip(tx.tolist(), rx.tolist())),
            solver=f"heuristic(kappa={self.kappa})",
        )


def tune_kappa(
    problem: AllocationProblem,
    candidates: Sequence[float] = constants.PAPER_KAPPAS,
) -> Tuple[float, float]:
    """Pick the kappa maximizing system throughput on *problem*.

    Returns ``(best_kappa, best_system_throughput)``.  This mirrors the
    paper's offline sweep over kappa in Fig. 11; Sec. 9 discusses
    personalized/adaptive kappa as future work (see
    :func:`personalized_kappa_ranking` for that extension).
    """
    if not candidates:
        raise AllocationError("need at least one kappa candidate")
    best_kappa = None
    best_throughput = -np.inf
    for kappa in candidates:
        allocation = RankingHeuristic(kappa=float(kappa)).solve(problem)
        throughput = allocation.system_throughput
        if throughput > best_throughput:
            best_throughput = throughput
            best_kappa = float(kappa)
    return best_kappa, float(best_throughput)


def personalized_kappa_ranking(
    channel: np.ndarray, kappas: Sequence[float]
) -> List[Assignment]:
    """Sec. 9 extension: a per-RX kappa in the SJR computation.

    ``kappas[j]`` applies to RX ``j``'s column, letting receivers in
    interference-heavy spots weigh jamming differently.  Reduces to
    Algorithm 1 when all kappas are equal.
    """
    matrix = np.asarray(channel, dtype=float)
    if matrix.ndim != 2:
        raise AllocationError(f"channel must be 2-D, got shape {matrix.shape}")
    if len(kappas) != matrix.shape[1]:
        raise AllocationError(
            f"expected {matrix.shape[1]} kappas, got {len(kappas)}"
        )
    row_sums = matrix.sum(axis=1, keepdims=True)
    sjr = np.zeros_like(matrix)
    for j, kappa in enumerate(kappas):
        if not math.isfinite(kappa) or kappa <= 0:
            raise AllocationError(f"kappa must be positive and finite, got {kappa}")
        with np.errstate(divide="ignore", invalid="ignore"):
            column = np.where(
                row_sums[:, 0] > 0.0, matrix[:, j] ** kappa / row_sums[:, 0], 0.0
            )
        sjr[:, j] = column
    tx, rx = ranked_pairs(sjr)
    return list(zip(tx.tolist(), rx.tolist()))
