"""Swing-allocation containers and binary-allocation helpers.

Insight 2 of the paper (Sec. 4.2) says each TX effectively operates at
either zero swing (illumination only) or full swing (serving one RX), so
practical allocations are *assignments*: an ordered set of (TX, RX) pairs
at maximum swing.  :class:`Allocation` wraps the resulting swing matrix
together with its provenance; :func:`assignment_matrix` builds the matrix
from pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AllocationError
from .problem import AllocationProblem

#: An assignment is a (tx_index, rx_index) pair, 0-based.
Assignment = Tuple[int, int]


def assignment_matrix(
    num_transmitters: int,
    num_receivers: int,
    assignments: Sequence[Assignment],
    swing: float,
) -> np.ndarray:
    """Swing matrix with *swing* on each (TX, RX) assignment.

    Each TX may appear at most once (a TX serves one beamspot at a time in
    the binary-mode design); duplicates raise :class:`AllocationError`.
    """
    if swing < 0:
        raise AllocationError(f"swing must be >= 0, got {swing}")
    matrix = np.zeros((num_transmitters, num_receivers))
    if len(assignments) == 0:
        return matrix
    pairs = np.asarray(assignments)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise AllocationError(
            f"assignments must be (tx, rx) integer pairs, got {assignments!r}"
        )
    tx, rx = pairs[:, 0], pairs[:, 1]
    bad_tx = (tx < 0) | (tx >= num_transmitters)
    bad_rx = (rx < 0) | (rx >= num_receivers)
    repeated = np.ones(len(tx), dtype=bool)
    repeated[np.unique(tx, return_index=True)[1]] = False
    bad = bad_tx | bad_rx | repeated
    if bad.any():
        # Report the first offending pair, as a pair-by-pair scan would.
        first = int(np.argmax(bad))
        if bad_tx[first]:
            raise AllocationError(f"TX index {tx[first]} out of range")
        if bad_rx[first]:
            raise AllocationError(f"RX index {rx[first]} out of range")
        raise AllocationError(f"TX index {tx[first]} assigned twice")
    matrix[tx, rx] = swing
    return matrix


@dataclass(frozen=True)
class Allocation:
    """A solved allocation: swing matrix plus evaluation shortcuts.

    Attributes:
        problem: the instance this allocation answers.
        swings: (N, M) swing matrix [A].
        assignments: the (TX, RX) pairs at full swing, in the order they
            were granted power (empty for continuous solutions).
        solver: short name of the producing solver.
    """

    problem: AllocationProblem
    swings: np.ndarray
    assignments: Tuple[Assignment, ...] = ()
    solver: str = "unknown"

    def __post_init__(self) -> None:
        matrix = np.asarray(self.swings, dtype=float)
        if matrix.shape != self.problem.channel.shape:
            raise AllocationError(
                f"swing matrix shape {matrix.shape} does not match problem "
                f"shape {self.problem.channel.shape}"
            )
        object.__setattr__(self, "swings", matrix)
        object.__setattr__(self, "assignments", tuple(self.assignments))

    @property
    def total_power(self) -> float:
        """Communication power consumed [W]."""
        return self.problem.total_power(self.swings)

    @property
    def sinr(self) -> np.ndarray:
        """Per-RX SINR."""
        return self.problem.sinr(self.swings)

    @property
    def throughput(self) -> np.ndarray:
        """Per-RX throughput [bit/s]."""
        return self.problem.throughput(self.swings)

    @property
    def system_throughput(self) -> float:
        """Total throughput [bit/s]."""
        return self.problem.system_throughput(self.swings)

    @property
    def utility(self) -> float:
        """Sum-log objective value."""
        return self.problem.utility(self.swings)

    @property
    def is_feasible(self) -> bool:
        """Whether the allocation satisfies Eqs. 6-7."""
        return self.problem.is_feasible(self.swings)

    def served_transmitters(self, rx: int) -> List[int]:
        """TX indices with non-zero swing toward RX *rx*."""
        if not 0 <= rx < self.problem.num_receivers:
            raise AllocationError(f"RX index {rx} out of range")
        return [int(j) for j in np.nonzero(self.swings[:, rx] > 0)[0]]

    def beamspot_sizes(self) -> List[int]:
        """Number of TXs serving each RX."""
        return [
            int(np.count_nonzero(self.swings[:, k] > 0))
            for k in range(self.problem.num_receivers)
        ]


def binary_allocation(
    problem: AllocationProblem,
    assignments: Sequence[Assignment],
    solver: str,
    swing: Optional[float] = None,
) -> Allocation:
    """An :class:`Allocation` with each assigned TX at full swing."""
    level = problem.led.max_swing if swing is None else swing
    matrix = assignment_matrix(
        problem.num_transmitters, problem.num_receivers, assignments, level
    )
    return Allocation(
        problem=problem,
        swings=matrix,
        assignments=tuple(assignments),
        solver=solver,
    )


def truncate_to_budget(
    problem: AllocationProblem, ranked: Sequence[Assignment]
) -> List[Assignment]:
    """Longest prefix of *ranked* whose full-swing power fits the budget.

    This is how the controller turns a ranking into an allocation
    (Sec. 5): walk the list, grant full swing while the budget allows.
    """
    affordable = problem.max_affordable_transmitters
    prefix = list(ranked[: min(affordable, len(ranked))])
    return prefix
