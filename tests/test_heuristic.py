"""Unit tests for repro.core.heuristic (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    RankingHeuristic,
    personalized_kappa_ranking,
    rank_transmitters,
    sjr_matrix,
    tune_kappa,
)
from repro.errors import AllocationError


class TestSJRMatrix:
    def test_formula(self):
        channel = np.array([[2.0, 1.0], [1.0, 3.0]])
        sjr = sjr_matrix(channel, kappa=2.0)
        assert sjr[0, 0] == pytest.approx(4.0 / 3.0)
        assert sjr[1, 1] == pytest.approx(9.0 / 4.0)

    def test_kappa_one_normalizes(self):
        channel = np.array([[2.0, 2.0]])
        sjr = sjr_matrix(channel, kappa=1.0)
        assert sjr[0, 0] == pytest.approx(0.5)

    def test_zero_row_gets_zero(self):
        channel = np.array([[0.0, 0.0], [1.0, 1.0]])
        sjr = sjr_matrix(channel, kappa=1.3)
        assert np.all(sjr[0] == 0.0)
        assert np.all(np.isfinite(sjr))

    def test_higher_kappa_favors_strong_channels(self):
        channel = np.array([[0.5, 0.5], [2.0, 0.1]])
        low = sjr_matrix(channel, kappa=1.0)
        high = sjr_matrix(channel, kappa=2.0)
        # Relative advantage of the strong link grows with kappa.
        assert (high[1, 0] / high[0, 0]) > (low[1, 0] / low[0, 0])

    def test_validation(self):
        with pytest.raises(AllocationError):
            sjr_matrix(np.ones((2, 2)), kappa=0.0)
        with pytest.raises(AllocationError):
            sjr_matrix(-np.ones((2, 2)))
        with pytest.raises(AllocationError):
            sjr_matrix(np.ones(4))

    @pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_kappa_rejected(self, kappa):
        # ``kappa <= 0`` alone is False for NaN.
        with pytest.raises(AllocationError):
            sjr_matrix(np.ones((2, 2)), kappa=kappa)


class TestRanking:
    def test_each_tx_once(self, fig7_channel):
        ranking = rank_transmitters(fig7_channel)
        assert len(ranking) == 36
        assert len({tx for tx, _ in ranking}) == 36

    def test_valid_rx_indices(self, fig7_channel):
        ranking = rank_transmitters(fig7_channel)
        assert all(0 <= rx < 4 for _, rx in ranking)

    def test_preferred_pairs_rank_early(self, fig7_channel):
        # The per-RX dominant TXs (TX8 -> RX1, TX10 -> RX2, Sec. 4.2) must
        # appear near the top of the ranking, paired with their RX.
        ranking = rank_transmitters(fig7_channel, kappa=1.3)
        head = ranking[:8]
        assert (7, 0) in head  # TX8 -> RX1
        assert (9, 1) in head  # TX10 -> RX2

    def test_deterministic(self, fig7_channel):
        assert rank_transmitters(fig7_channel) == rank_transmitters(fig7_channel)

    def test_interference_heavy_tx_ranked_late(self, fig7_channel):
        # TX15 (0-based 14) generates too much interference and is ranked
        # in the back half (Sec. 4.2: "TX15 is not used at all").
        ranking = rank_transmitters(fig7_channel, kappa=1.3)
        position = [tx for tx, _ in ranking].index(14)
        assert position > 18


class TestHeuristicSolver:
    def test_respects_budget(self, fig7_problem):
        allocation = RankingHeuristic().solve(fig7_problem)
        assert allocation.is_feasible
        assert allocation.total_power <= fig7_problem.power_budget + 1e-9

    def test_zero_budget(self, fig7_problem):
        allocation = RankingHeuristic().solve(fig7_problem.with_budget(0.0))
        assert allocation.total_power == 0.0
        assert np.all(allocation.swings == 0.0)

    def test_assignment_count_matches_budget(self, fig7_problem):
        allocation = RankingHeuristic().solve(fig7_problem)
        assert len(allocation.assignments) == min(
            fig7_problem.max_affordable_transmitters, 36
        )

    def test_all_txs_at_large_budget(self, fig7_problem):
        big = fig7_problem.with_budget(36 * fig7_problem.full_swing_power + 0.01)
        allocation = RankingHeuristic().solve(big)
        assert len(allocation.assignments) == 36

    def test_sweep_monotone_assignments(self, fig7_problem):
        budgets = [0.1, 0.5, 1.0, 1.5]
        sweep = RankingHeuristic().sweep(fig7_problem, budgets)
        counts = [len(a.assignments) for a in sweep]
        assert counts == sorted(counts)

    def test_sweep_prefix_property(self, fig7_problem):
        # Insight 1: a larger budget's assignment extends the smaller's.
        sweep = RankingHeuristic().sweep(fig7_problem, [0.3, 1.0])
        small, large = sweep[0].assignments, sweep[1].assignments
        assert large[: len(small)] == small

    def test_throughput_positive(self, fig7_problem):
        allocation = RankingHeuristic(kappa=1.3).solve(fig7_problem)
        assert allocation.system_throughput > 5e6  # several Mbit/s

    def test_all_receivers_served_at_midrange_budget(self, fig7_problem):
        allocation = RankingHeuristic(kappa=1.3).solve(fig7_problem)
        assert all(size > 0 for size in allocation.beamspot_sizes())


class TestKappaTuning:
    def test_tune_kappa_returns_candidate(self, fig7_problem):
        best, throughput = tune_kappa(fig7_problem, candidates=(1.0, 1.3))
        assert best in (1.0, 1.3)
        assert throughput > 0

    def test_kappa_13_beats_10_with_interference(self, fig7_problem):
        # The paper's core finding for interference-prone placements.
        t13 = RankingHeuristic(kappa=1.3).solve(fig7_problem).system_throughput
        t10 = RankingHeuristic(kappa=1.0).solve(fig7_problem).system_throughput
        assert t13 >= t10

    def test_empty_candidates_raise(self, fig7_problem):
        with pytest.raises(AllocationError):
            tune_kappa(fig7_problem, candidates=())


class TestPersonalizedKappa:
    def test_reduces_to_global(self, fig7_channel):
        uniform = personalized_kappa_ranking(fig7_channel, [1.3] * 4)
        assert uniform == rank_transmitters(fig7_channel, kappa=1.3)

    def test_each_tx_once(self, fig7_channel):
        ranking = personalized_kappa_ranking(fig7_channel, [1.0, 1.2, 1.3, 1.5])
        assert len({tx for tx, _ in ranking}) == 36

    def test_wrong_count_raises(self, fig7_channel):
        with pytest.raises(AllocationError):
            personalized_kappa_ranking(fig7_channel, [1.3, 1.3])

    def test_bad_kappa_raises(self, fig7_channel):
        with pytest.raises(AllocationError):
            personalized_kappa_ranking(fig7_channel, [1.3, 1.3, -1.0, 1.3])
        with pytest.raises(AllocationError):
            personalized_kappa_ranking(fig7_channel, [1.3, float("nan"), 1.3, 1.3])


class TestVectorizedRanking:
    """The sort-based ranking must match the reference loop exactly.

    Removing a TX's row never changes another row's SJR, so the
    iterative masked-argmax of Algorithm 1 is equivalent to sorting the
    per-TX best pairs -- including tie-breaking (lower TX index first,
    then lower RX index).
    """

    def test_matches_loop_on_random_matrices(self, rng):
        from repro.core.heuristic import _rank_transmitters_loop

        for _ in range(20):
            num_tx = int(rng.integers(2, 15))
            num_rx = int(rng.integers(1, 6))
            channel = rng.uniform(0.0, 1e-5, size=(num_tx, num_rx))
            assert rank_transmitters(channel) == _rank_transmitters_loop(
                channel
            )

    def test_matches_loop_with_forced_ties(self):
        from repro.core.heuristic import _rank_transmitters_loop

        # Identical rows -> every SJR value ties; order must fall back
        # to TX index, then RX index, in both implementations.
        channel = np.tile(np.array([[2e-6, 1e-6, 2e-6]]), (5, 1))
        assert rank_transmitters(channel) == _rank_transmitters_loop(channel)

    def test_matches_loop_with_zero_rows(self):
        from repro.core.heuristic import _rank_transmitters_loop

        channel = np.array(
            [[0.0, 0.0], [1e-6, 2e-6], [0.0, 0.0], [3e-6, 1e-6]]
        )
        assert rank_transmitters(channel) == _rank_transmitters_loop(channel)

    def test_matches_loop_on_paper_channel(self, fig7_channel):
        from repro.core.heuristic import _rank_transmitters_loop

        assert rank_transmitters(fig7_channel, kappa=1.3) == (
            _rank_transmitters_loop(fig7_channel, kappa=1.3)
        )


class TestArraySolveMatchesReference:
    """``solve``/``sweep`` build the swing matrix from the ranking's index
    arrays; they must equal the pair-list path over the reference loop."""

    @staticmethod
    def _reference(problem, kappa):
        from repro.core import binary_allocation, truncate_to_budget
        from repro.core.heuristic import _rank_transmitters_loop

        ranked = _rank_transmitters_loop(problem.channel, kappa)
        return binary_allocation(
            problem, truncate_to_budget(problem, ranked), solver="reference"
        )

    @staticmethod
    def _channels():
        rng = np.random.default_rng(41)
        for _ in range(30):
            num_tx = int(rng.integers(1, 20))
            num_rx = int(rng.integers(1, 6))
            channel = rng.uniform(0.0, 1e-5, size=(num_tx, num_rx))
            channel[rng.uniform(size=num_tx) < 0.2] = 0.0  # zero rows
            yield channel
        # Identical rows: every SJR ties exactly.
        yield np.tile(np.array([[2e-6, 1e-6, 2e-6]]), (6, 1))
        yield np.zeros((4, 2))

    def test_solve_and_sweep_match_reference(self, led, photodiode, noise):
        from repro.core import AllocationProblem

        full = led.full_swing_power
        for channel in self._channels():
            num_tx = channel.shape[0]
            budgets = [0.0, 0.5 * full, 2.0 * full, 0.4 * num_tx * full,
                       num_tx * full, 3.0 * num_tx * full]
            problem = AllocationProblem(
                channel=channel, power_budget=budgets[0], led=led,
                photodiode=photodiode, noise=noise,
            )
            for kappa in (1.0, 1.3, 2.0):
                heuristic = RankingHeuristic(kappa=kappa)
                swept = heuristic.sweep(problem, budgets)
                for budget, from_sweep in zip(budgets, swept):
                    scoped = problem.with_budget(budget)
                    solved = heuristic.solve(scoped)
                    expected = self._reference(scoped, kappa)
                    for allocation in (solved, from_sweep):
                        assert np.array_equal(allocation.swings, expected.swings)
                        assert allocation.assignments == expected.assignments
                        assert all(
                            type(tx) is int and type(rx) is int
                            for tx, rx in allocation.assignments
                        )
                        assert allocation.problem.power_budget == budget
