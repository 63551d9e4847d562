"""Combinatorial binary-swing solver for the Eq. 5-7 program.

The paper's key structural result (Insight 2 / contribution ii) is that
the continuous optimum is near-binary: each TX ends at either zero
swing (illumination only) or full swing serving exactly one RX.  The
SLSQP tiers still pay a continuous relaxation for every uncached solve;
this module exploits the binary structure directly and searches the
discrete space of *assignments* ``a[j] in {off, 0..M-1}``:

1. **Seed** -- Algorithm 1's SJR ranking (:func:`rank_transmitters`)
   truncated to the power budget, exactly the ranking heuristic's
   allocation.  A caller's warm-start swing matrix (e.g. the previous
   solve along a trajectory) is projected onto the assignment space and
   used instead when it scores better.
2. **Steepest-ascent local search** -- every round evaluates all
   single moves (switch a TX off, switch one on toward an RX, reassign
   a TX to a different RX) plus off+on *swap* pairs, applies the best
   improving move, and stops when no move improves the Eq. 5 sum-log
   utility.  Under the binary structure the per-TX swing bound (Eq. 6)
   is satisfied by construction and the power budget (Eq. 7) collapses
   to a cardinality constraint -- at most
   ``floor(P_budget / full_swing_power)`` active TXs.
3. **Incremental delta evaluation** -- the search maintains the per-RX
   signal/total amplitude components; a move only adds or subtracts one
   TX's (scaled) channel row, so each round fills one ``(C, M)``
   signal/total stack pair and scores it in one broadcast through the
   same Eq.-12 arithmetic the runtime's vectorized stacks use
   (:func:`repro.channel.stacks.utility_from_amplitude_components`).
   Only the winner and exact ties are decoded into ``(kind, tx_out,
   tx_in, rx)`` moves, from the flat index and the block offsets.
4. **Repair** -- an over-budget state (an aggressive warm start, a
   budget shrink) is repaired by repeatedly switching off the active TX
   whose removal costs the least utility until the budget holds.

The candidate space is pruned by the SLSQP tier's selection rule
(:func:`~repro.core.reduction.reduction_pairs`): only the SJR-ranked
pairs the budget can plausibly afford are considered, a prefix that
contains the seed's pairs, plus any warm-start pairs, so the search can
never be walled off from its own starting point.  Ties between equally
good moves break by blake2b digest of the move coordinates -- fully
deterministic, never dependent on ``PYTHONHASHSEED`` or iteration order
of a set.

The result is flagged ``solver="swing-search"`` and is guaranteed never
worse (in Eq. 5 utility) than the ranking-heuristic seed; a result the
search left at the seed is returned without re-scoring it.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, ContextManager, List, NamedTuple, Optional, Tuple

import numpy as np

from .. import constants
from ..channel.stacks import utility_from_amplitude_components
from ..errors import OptimizationError
from ..tracecontext import add_span_attributes, current_span
from .allocation import Allocation, Assignment, binary_allocation
from .heuristic import RankingHeuristic
from .problem import UTILITY_FLOOR, AllocationProblem
from .reduction import reduction_pairs

#: Assignment value for a TX that only illuminates.
OFF: int = -1

#: Move-kind codes used in the blake2b tie-break digest.
_MOVE_OFF, _MOVE_ON, _MOVE_REASSIGN, _MOVE_SWAP = 0, 1, 2, 3

#: Candidate pairs of a repair round: only OFF moves are scored.
_NO_PAIRS = (np.empty(0, dtype=int), np.empty(0, dtype=int))


@dataclass(frozen=True)
class SwingSearchOptions:
    """Knobs for :class:`SwingSearchSolver`.

    Attributes:
        kappa: SJR exponent for the seeding ranking (Algorithm 1).
        max_iterations: cap on accepted moves (search rounds).
        tolerance: minimum utility gain for a move to count as improving.
        seed: tie-break seed (feeds the blake2b move digest only; the
            search itself is deterministic and RNG-free).
        utility_floor: throughput floor [bit/s] inside the log utility.
        reduce: prune the candidate (TX, RX) pairs to the SJR-ranked
            prefix the budget can afford (:func:`reduction_pairs`), as
            the SLSQP tier does; seed and warm-start pairs are always
            kept.
        reduction_margin / reduction_min_extra: forwarded to
            :func:`reduction_pairs`.
        warm_start: optional (N, M) swing matrix [A]; its binary
            projection replaces the ranking seed when it scores better.
    """

    kappa: float = constants.DEFAULT_KAPPA
    max_iterations: int = 128
    tolerance: float = 1e-10
    seed: int = 0
    utility_floor: float = UTILITY_FLOOR
    reduce: bool = True
    reduction_margin: float = 0.5
    reduction_min_extra: int = 2
    warm_start: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise OptimizationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.tolerance < 0:
            raise OptimizationError(
                f"tolerance must be >= 0, got {self.tolerance}"
            )
        if self.utility_floor <= 0:
            raise OptimizationError(
                f"utility floor must be positive, got {self.utility_floor}"
            )
        if self.warm_start is not None:
            warm = np.asarray(self.warm_start, dtype=float)
            if warm.ndim != 2:
                raise OptimizationError(
                    f"warm start must be an (N, M) swing matrix, got shape "
                    f"{warm.shape}"
                )
            object.__setattr__(self, "warm_start", warm)


class _SearchState:
    """One binary assignment plus its incremental Eq.-12 components.

    ``assignment[j]`` is the RX served by TX ``j`` (or :data:`OFF`).
    ``signal[i]`` / ``total[i]`` are RX ``i``'s own-beamspot and
    all-beamspot received amplitudes; both are linear in the active TXs'
    scaled channel rows, so every move is an O(M) update.
    ``unit[j, i]`` is ``gains[j, i]`` in slot ``i`` of an otherwise zero
    ``(M,)`` row: the change to the signals when TX ``j`` serves RX ``i``.

    The state starts with TX ``tx[k]`` serving RX ``rx[k]`` (at least one
    pair); the components are summed in pair order, exactly as switching
    the pairs on one by one would (``accumulate`` is sequential and
    ``add.at`` unbuffered).
    """

    def __init__(
        self, gains: np.ndarray, unit: np.ndarray, tx: np.ndarray, rx: np.ndarray
    ) -> None:
        self.gains = gains  # (N, M) amplitude contribution per (TX, RX)
        self.unit = unit
        self.assignment = np.full(gains.shape[0], OFF, dtype=int)
        self.assignment[tx] = rx
        self.total = np.add.accumulate(gains[tx], axis=0)[-1]
        self.signal = np.zeros(gains.shape[1])
        np.add.at(self.signal, rx, gains[tx, rx])

    def switch_on(self, tx: int, rx: int) -> None:
        self.assignment[tx] = rx
        self.total += self.gains[tx]
        self.signal[rx] += self.gains[tx, rx]

    def switch_off(self, tx: int) -> None:
        rx = int(self.assignment[tx])
        self.assignment[tx] = OFF
        self.total -= self.gains[tx]
        self.signal[rx] -= self.gains[tx, rx]

    def reassign(self, tx: int, rx: int) -> None:
        old = int(self.assignment[tx])
        self.assignment[tx] = rx
        self.signal[old] -= self.gains[tx, old]
        self.signal[rx] += self.gains[tx, rx]


def _tie_digest(seed: int, iteration: int, move: List[int]) -> bytes:
    """Deterministic tie-break key for one candidate move (blake2b)."""
    kind, tx_out, tx_in, rx = move
    payload = f"{seed}:{iteration}:{kind}:{tx_out}:{tx_in}:{rx}".encode()
    return hashlib.blake2b(payload, digest_size=8).digest()


class _Moves(NamedTuple):
    """One round's candidate moves, kept as per-block index arrays.

    Candidate rows run in blocks: OFF (one per active TX), ON (the first
    ``on_moves`` allowed inactive pairs -- all of them while the budget
    has room, none once it is full), REASSIGN, then SWAP (active-major
    over every allowed inactive pair).  :meth:`row` decodes one flat
    candidate index into its ``(kind, tx_out, tx_in, rx)`` row; only the
    winner and exact ties are ever decoded.
    """

    active: np.ndarray
    served: np.ndarray
    on_tx: np.ndarray
    on_rx: np.ndarray
    on_moves: int
    re_tx: np.ndarray
    re_rx: np.ndarray

    def row(self, index: int) -> List[int]:
        if index < self.active.size:
            return [_MOVE_OFF, int(self.active[index]), -1, int(self.served[index])]
        index -= self.active.size
        if index < self.on_moves:
            return [_MOVE_ON, -1, int(self.on_tx[index]), int(self.on_rx[index])]
        index -= self.on_moves
        if index < self.re_tx.size:
            tx = int(self.re_tx[index])
            return [_MOVE_REASSIGN, tx, tx, int(self.re_rx[index])]
        out, pair = divmod(index - self.re_tx.size, self.on_tx.size)
        tx_in, rx = int(self.on_tx[pair]), int(self.on_rx[pair])
        return [_MOVE_SWAP, int(self.active[out]), tx_in, rx]


class SwingSearchSolver:
    """Seeded steepest-ascent search over binary swing assignments.

    *metrics* is an optional
    :class:`repro.runtime.metrics.MetricsRegistry`-compatible object;
    per-stage timings land under ``optimizer.swing.*_seconds`` and the
    accepted-move/iteration counters under ``optimizer.swing.*``.  When
    a trace span is active the solve annotates it with iteration/flip
    counts and a downsampled objective trajectory, mirroring the SLSQP
    tier's solve-span attributes.
    """

    def __init__(
        self,
        options: Optional[SwingSearchOptions] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self.options = options if options is not None else SwingSearchOptions()
        self.metrics = metrics
        self._noise_power: float = 0.0
        self._bandwidth: float = 0.0

    def _timer(self, name: str) -> ContextManager[None]:
        return self.metrics.timer(name) if self.metrics is not None else nullcontext()

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment(amount)

    # ------------------------------------------------------------------

    def solve(self, problem: AllocationProblem) -> Allocation:
        """The best binary allocation the seeded local search reaches."""
        options = self.options
        self._count("optimizer.swing.solves")
        self._noise_power = problem.noise.power
        self._bandwidth = problem.noise.bandwidth
        capacity = problem.max_affordable_transmitters
        if capacity <= 0 or not np.any(problem.channel > 0.0):
            # No budget or no usable link: the only sensible binary
            # allocation is the empty one (burning swing on zero-gain
            # links costs power for floored rates).
            empty = binary_allocation(problem, (), solver="swing-search")
            return self._finish(problem, empty, None, 0, 0, 0, [])
        with self._timer("optimizer.swing.seed_seconds"):
            seed_allocation = RankingHeuristic(kappa=options.kappa).solve(problem)

        gains = self._amplitude_gains(problem)
        unit = gains[:, :, None] * np.eye(problem.num_receivers)
        allowed = self._allowed_pairs(problem)
        seed_pairs = np.array(seed_allocation.assignments).T
        seed_state = state = _SearchState(gains, unit, *seed_pairs)

        warm_pairs = self._warm_projection(problem)
        if warm_pairs is not None:
            warm_state = _SearchState(gains, unit, *warm_pairs)
            allowed[warm_pairs] = True
            with self._timer("optimizer.swing.repair_seconds"):
                self._repair(warm_state, capacity)
            if self._utility(warm_state) > self._utility(state):
                self._count("optimizer.swing.warm_seeds")
                state = warm_state

        with self._timer("optimizer.swing.search_seconds"):
            iterations, flips, swaps, trajectory = self._ascend(
                state, np.nonzero(allowed), capacity
            )
        candidate = binary_allocation(
            problem, self._ordered_assignments(state), solver="swing-search"
        )
        # An untouched seed state yields the seed's swings exactly, so
        # the seed-floor guard has nothing to compare.
        if state is seed_state and iterations == 0:
            seed_allocation = None
        return self._finish(
            problem, candidate, seed_allocation, iterations, flips, swaps, trajectory
        )

    # ------------------------------------------------------------------
    # Seeding and candidate-space construction
    # ------------------------------------------------------------------

    def _amplitude_gains(self, problem: AllocationProblem) -> np.ndarray:
        """(N, M) per-pair amplitude contribution at full swing.

        ``gains[j, i]`` is the amplitude RX ``i`` receives when TX ``j``
        runs at full swing -- the unit every incremental move adds or
        removes from the signal/total components.
        """
        led = problem.led
        scale = (
            problem.photodiode.responsivity
            * led.wall_plug_efficiency
            * led.dynamic_resistance
        )
        return scale * (led.max_swing / 2.0) ** 2 * problem.channel

    def _allowed_pairs(self, problem: AllocationProblem) -> np.ndarray:
        """(N, M) mask of candidate (TX, RX) pairs the search may use.

        With ``reduce`` the mask is the SJR-pruned pair set of
        :func:`reduction_pairs`, whose ranked prefix (``K`` >= the
        affordable count) contains every seed pair; without it, every
        pair with a usable channel gain.  Pairs with zero gain are never
        candidates -- granting them swing burns budget for nothing.
        """
        usable = problem.channel > 0.0
        if self.options.reduce:
            pairs = reduction_pairs(
                problem,
                kappa=self.options.kappa,
                margin=self.options.reduction_margin,
                min_extra=self.options.reduction_min_extra,
            )
            if pairs is not None:
                mask = np.zeros_like(usable)
                mask[pairs] = usable[pairs]
                if self.metrics is not None:
                    self.metrics.gauge("optimizer.swing.candidate_pairs").set(
                        float(np.count_nonzero(mask))
                    )
                return mask
        return usable.copy()

    def _warm_projection(
        self, problem: AllocationProblem
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The warm-start matrix projected onto the assignment space.

        Each TX with positive total swing maps to its argmax RX; TXs are
        kept in decreasing order of total swing (the repair step trims
        any budget overshoot afterwards).
        """
        warm = self.options.warm_start
        if warm is None:
            return None
        if warm.shape != problem.channel.shape:
            raise OptimizationError(
                f"warm start shape {warm.shape} does not match problem "
                f"shape {problem.channel.shape}"
            )
        per_tx = np.asarray(warm, dtype=float).sum(axis=1)
        active = np.nonzero(per_tx > 0.0)[0]
        if active.size == 0:
            return None
        order = active[np.argsort(-per_tx[active], kind="stable")]
        best_rx = np.argmax(warm[order], axis=1)
        usable = problem.channel[order, best_rx] > 0.0
        if not np.any(usable):
            return None
        return order[usable], best_rx[usable]

    # ------------------------------------------------------------------
    # Local search
    # ------------------------------------------------------------------

    def _utility(self, state: _SearchState) -> float:
        return float(self._stack_utility(state.signal, state.total))

    def _repair(self, state: _SearchState, capacity: int) -> None:
        """Switch off least-valuable TXs until the budget holds (Eq. 7).

        Each round evaluates every active TX's removal through the same
        stacked objective the search uses and drops the one whose
        removal costs the least utility (ties break by blake2b digest).
        """
        iteration = 0
        while np.count_nonzero(state.assignment != OFF) > capacity:
            signals, totals, moves = self._candidate_moves(state, _NO_PAIRS, 0)
            utilities = self._stack_utility(signals, totals)
            best = self._pick_best(utilities, moves, iteration)
            state.switch_off(moves.row(best)[1])
            self._count("optimizer.swing.repairs")
            iteration += 1

    def _stack_utility(self, signals: np.ndarray, totals: np.ndarray) -> np.ndarray:
        return np.asarray(
            utility_from_amplitude_components(
                signals,
                totals,
                self._noise_power,
                self._bandwidth,
                self.options.utility_floor,
            ),
            dtype=float,
        )

    def _pick_best(self, utilities: np.ndarray, moves: _Moves, iteration: int) -> int:
        """Index of the best candidate; exact ties break by blake2b."""
        tied = np.flatnonzero(utilities == utilities.max())
        if tied.size == 1:
            return int(tied[0])
        seed = self.options.seed
        return min(
            tied.tolist(),
            key=lambda c: _tie_digest(seed, iteration, moves.row(c)),
        )

    def _candidate_moves(
        self,
        state: _SearchState,
        allowed: Tuple[np.ndarray, np.ndarray],
        capacity: int,
    ) -> Tuple[np.ndarray, np.ndarray, _Moves]:
        """Stack every legal move's (signal, total) components.

        *allowed* holds the ``(tx, rx)`` index arrays of the candidate
        pairs in row-major order.  Returns ``(signals, totals, moves)``
        where row ``c`` holds the post-move amplitude components of
        candidate ``c`` and ``moves`` decodes ``c`` back to its move.
        """
        gains, unit, assignment = state.gains, state.unit, state.assignment
        signal, total = state.signal, state.total
        allowed_tx, allowed_rx = allowed
        active = np.flatnonzero(assignment != OFF)
        served = assignment[active]
        pair_rx = assignment[allowed_tx]
        inactive = pair_rx == OFF
        on_tx, on_rx = allowed_tx[inactive], allowed_rx[inactive]
        redirect = ~inactive & (allowed_rx != pair_rx)
        re_tx, re_rx = allowed_tx[redirect], allowed_rx[redirect]
        on_rows, on_unit = gains[on_tx], unit[on_tx, on_rx]

        # Each block applies its move to the current components in the
        # same operation order as the state updates (adding an exact zero
        # elsewhere), so a score matches the applied move bit for bit.
        # OFF: each active TX stops serving (frees budget, cuts its own
        # signal but also its interference at every other RX).
        off_signals = signal - unit[active, served]
        off_totals = total - gains[active]
        signal_blocks = [off_signals]
        total_blocks = [off_totals]

        # ON: any allowed inactive (TX, RX) pair, budget permitting.
        on_moves = on_tx.size if active.size < capacity else 0
        if on_moves:
            signal_blocks.append(signal + on_unit)
            total_blocks.append(total + on_rows)

        # REASSIGN: an active TX redirects its beamspot to another RX
        # it is allowed to serve (total interference stays put).
        signal_blocks.append(
            (signal - unit[re_tx, assignment[re_tx]]) + unit[re_tx, re_rx]
        )
        total_blocks.append(np.broadcast_to(total, (re_tx.size, total.size)))

        # SWAP: switch one active TX off and an inactive one on, as one
        # atomic move -- the escape hatch when the budget is saturated
        # and no single move improves.  Rows run active-major.
        signal_blocks.append(
            (off_signals[:, None, :] + on_unit[None, :, :]).reshape(-1, total.size)
        )
        total_blocks.append(
            (off_totals[:, None, :] + on_rows[None, :, :]).reshape(-1, total.size)
        )

        moves = _Moves(active, served, on_tx, on_rx, on_moves, re_tx, re_rx)
        return np.concatenate(signal_blocks), np.concatenate(total_blocks), moves

    def _apply(self, state: _SearchState, move: List[int]) -> None:
        kind, tx_out, tx_in, rx = move
        if kind == _MOVE_OFF:
            state.switch_off(tx_out)
        elif kind == _MOVE_ON:
            state.switch_on(tx_in, rx)
        elif kind == _MOVE_REASSIGN:
            state.reassign(tx_in, rx)
        else:
            state.switch_off(tx_out)
            state.switch_on(tx_in, rx)

    def _ascend(
        self,
        state: _SearchState,
        allowed: Tuple[np.ndarray, np.ndarray],
        capacity: int,
    ) -> Tuple[int, int, int, List[float]]:
        """Steepest-ascent rounds until no move improves the objective."""
        current = self._utility(state)
        trajectory = [current]
        iterations = flips = swaps = 0
        for _ in range(self.options.max_iterations):
            signals, totals, moves = self._candidate_moves(state, allowed, capacity)
            if not len(signals):
                break
            utilities = self._stack_utility(signals, totals)
            best = self._pick_best(utilities, moves, iterations)
            if utilities[best] - current <= self.options.tolerance:
                break
            move = moves.row(best)
            self._apply(state, move)
            current = float(utilities[best])
            trajectory.append(current)
            iterations += 1
            if move[0] == _MOVE_SWAP:
                swaps += 1
            else:
                flips += 1
        return iterations, flips, swaps, trajectory

    # ------------------------------------------------------------------
    # Result assembly
    # ------------------------------------------------------------------

    def _ordered_assignments(self, state: _SearchState) -> Tuple[Assignment, ...]:
        active = np.flatnonzero(state.assignment != OFF)
        return tuple(zip(active.tolist(), state.assignment[active].tolist()))

    def _finish(
        self,
        problem: AllocationProblem,
        candidate: Allocation,
        seed: Optional[Allocation],
        iterations: int,
        flips: int,
        swaps: int,
        trajectory: List[float],
    ) -> Allocation:
        """Guard the seed floor, record metrics and span annotations.

        *seed* is None when *candidate* cannot differ from it, which
        skips the guard's two full-path utility evaluations.
        """
        final = candidate
        if seed is not None and candidate.utility < seed.utility:
            # The incremental components agree with problem.utility() to
            # float precision, so this only fires on pathological
            # round-off -- but the "never worse than the seed" contract
            # is absolute.
            self._count("optimizer.swing.seed_floors")
            final = Allocation(
                problem=problem,
                swings=seed.swings,
                assignments=seed.assignments,
                solver="swing-search",
            )
        if self.metrics is not None:
            self.metrics.histogram("optimizer.swing.iterations").observe(
                float(iterations)
            )
            if flips:
                self.metrics.counter("optimizer.swing.flips_accepted").increment(
                    flips
                )
            if swaps:
                self.metrics.counter("optimizer.swing.swaps_accepted").increment(
                    swaps
                )
        if current_span() is not None:
            step = max(1, -(-len(trajectory) // 32))
            add_span_attributes(
                swing_iterations=iterations,
                swing_flips_accepted=flips,
                swing_swaps_accepted=swaps,
                swing_active_txs=len(final.assignments),
                objective_trajectory=[
                    round(v, 6) for v in trajectory[::step]
                ][-32:],
            )
        return final


def solve_swing(
    problem: AllocationProblem,
    options: Optional[SwingSearchOptions] = None,
    metrics: Optional[Any] = None,
) -> Allocation:
    """One-call convenience wrapper around :class:`SwingSearchSolver`."""
    return SwingSearchSolver(options, metrics=metrics).solve(problem)
