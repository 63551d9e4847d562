"""Unit tests for repro.core.problem and repro.core.allocation."""

import numpy as np
import pytest

from repro.core import (
    AllocationProblem,
    assignment_matrix,
    binary_allocation,
    problem_for_scene,
    truncate_to_budget,
)
from repro.errors import AllocationError


class TestProblemValidation:
    def test_dimensions(self, fig7_problem):
        assert fig7_problem.num_transmitters == 36
        assert fig7_problem.num_receivers == 4

    def test_rejects_negative_channel(self, led, photodiode, noise):
        with pytest.raises(AllocationError):
            AllocationProblem(
                channel=-np.ones((2, 2)),
                power_budget=1.0,
                led=led,
                photodiode=photodiode,
                noise=noise,
            )

    def test_rejects_nan_channel(self, led, photodiode, noise):
        channel = np.ones((2, 2))
        channel[0, 0] = np.nan
        with pytest.raises(AllocationError):
            AllocationProblem(
                channel=channel, power_budget=1.0, led=led,
                photodiode=photodiode, noise=noise,
            )

    def test_rejects_negative_budget(self, fig7_channel, led, photodiode, noise):
        with pytest.raises(AllocationError):
            AllocationProblem(
                channel=fig7_channel, power_budget=-0.1, led=led,
                photodiode=photodiode, noise=noise,
            )

    def test_rejects_1d_channel(self, led, photodiode, noise):
        with pytest.raises(AllocationError):
            AllocationProblem(
                channel=np.ones(5), power_budget=1.0, led=led,
                photodiode=photodiode, noise=noise,
            )

    def test_with_budget(self, fig7_problem):
        scoped = fig7_problem.with_budget(0.5)
        assert scoped.power_budget == 0.5
        assert fig7_problem.power_budget == 1.2


class TestPowerAccounting:
    def test_zero_allocation_zero_power(self, fig7_problem):
        assert fig7_problem.total_power(fig7_problem.zero_allocation()) == 0.0

    def test_full_swing_power(self, fig7_problem):
        swings = fig7_problem.zero_allocation()
        swings[0, 0] = fig7_problem.led.max_swing
        assert fig7_problem.total_power(swings) == pytest.approx(
            fig7_problem.full_swing_power
        )

    def test_split_tx_power_uses_total_swing(self, fig7_problem):
        # Eq. 7: the per-TX power depends on the TX's total swing.
        split = fig7_problem.zero_allocation()
        split[0, 0] = 0.45
        split[0, 1] = 0.45
        single = fig7_problem.zero_allocation()
        single[0, 0] = 0.9
        assert fig7_problem.total_power(split) == pytest.approx(
            fig7_problem.total_power(single)
        )

    def test_max_affordable(self, fig7_problem):
        expected = int(1.2 / fig7_problem.full_swing_power)
        assert fig7_problem.max_affordable_transmitters == expected

    def test_shape_mismatch_raises(self, fig7_problem):
        with pytest.raises(AllocationError):
            fig7_problem.total_power(np.zeros((3, 3)))


class TestFeasibility:
    def test_zero_feasible(self, fig7_problem):
        assert fig7_problem.is_feasible(fig7_problem.zero_allocation())

    def test_per_tx_swing_bound(self, fig7_problem):
        swings = fig7_problem.zero_allocation()
        swings[0, 0] = 0.6
        swings[0, 1] = 0.6  # total 1.2 > 0.9
        assert not fig7_problem.is_feasible(swings)

    def test_power_bound(self, fig7_channel, led, photodiode, noise):
        tight = AllocationProblem(
            channel=fig7_channel, power_budget=0.01, led=led,
            photodiode=photodiode, noise=noise,
        )
        swings = tight.zero_allocation()
        swings[0, 0] = 0.9
        assert not tight.is_feasible(swings)

    def test_negative_swing_infeasible(self, fig7_problem):
        swings = fig7_problem.zero_allocation()
        swings[0, 0] = -0.1
        assert not fig7_problem.is_feasible(swings)


class TestUtilityAndThroughput:
    def test_utility_finite_for_zero(self, fig7_problem):
        assert fig7_problem.utility(fig7_problem.zero_allocation()) == 0.0

    def test_utility_increases_with_service(self, fig7_problem):
        swings = fig7_problem.zero_allocation()
        swings[7, 0] = 0.9
        assert fig7_problem.utility(swings) > 0.0

    def test_system_throughput_sums(self, fig7_problem):
        swings = fig7_problem.zero_allocation()
        swings[7, 0] = 0.9
        swings[9, 1] = 0.9
        assert fig7_problem.system_throughput(swings) == pytest.approx(
            float(np.sum(fig7_problem.throughput(swings)))
        )

    def test_problem_for_scene(self, fig7_scene, fig7_problem):
        built = problem_for_scene(fig7_scene, power_budget=1.2)
        assert np.allclose(built.channel, fig7_problem.channel)


class TestAssignmentMatrix:
    def test_basic(self):
        matrix = assignment_matrix(4, 2, [(0, 0), (3, 1)], 0.9)
        assert matrix[0, 0] == 0.9
        assert matrix[3, 1] == 0.9
        assert matrix.sum() == pytest.approx(1.8)

    def test_duplicate_tx_rejected(self):
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(0, 0), (0, 1)], 0.9)

    def test_out_of_range(self):
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(4, 0)], 0.9)
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(0, 2)], 0.9)

    def test_negative_swing(self):
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(0, 0)], -0.9)

    def test_matches_pair_loop_reference(self):
        """The array checks accept, fill and reject exactly as a pair-by-pair
        scan does, naming the first offending pair."""

        def reference(num_tx, num_rx, assignments, swing):
            matrix = np.zeros((num_tx, num_rx))
            seen = set()
            for tx, rx in assignments:
                if not 0 <= tx < num_tx:
                    raise AllocationError(f"TX index {tx} out of range")
                if not 0 <= rx < num_rx:
                    raise AllocationError(f"RX index {rx} out of range")
                if tx in seen:
                    raise AllocationError(f"TX index {tx} assigned twice")
                seen.add(tx)
                matrix[tx, rx] = swing
            return matrix

        rng = np.random.default_rng(5)
        for _ in range(300):
            num_tx, num_rx = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            count = int(rng.integers(0, num_tx + 2))
            assignments = [
                (int(rng.integers(-1, num_tx + 1)), int(rng.integers(-1, num_rx + 1)))
                for _ in range(count)
            ]
            try:
                expected = reference(num_tx, num_rx, assignments, 0.9)
            except AllocationError as error:
                with pytest.raises(AllocationError) as raised:
                    assignment_matrix(num_tx, num_rx, assignments, 0.9)
                assert str(raised.value) == str(error)
            else:
                got = assignment_matrix(num_tx, num_rx, assignments, 0.9)
                assert np.array_equal(got, expected)

    def test_non_integer_pairs_rejected(self):
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(0.5, 0)], 0.9)
        with pytest.raises(AllocationError):
            assignment_matrix(4, 2, [(0, 0, 1)], 0.9)


class TestAllocationObject:
    def test_binary_allocation_feasible(self, fig7_problem):
        allocation = binary_allocation(
            fig7_problem, [(7, 0), (9, 1)], solver="test"
        )
        assert allocation.is_feasible
        assert allocation.total_power == pytest.approx(
            2 * fig7_problem.full_swing_power
        )

    def test_served_transmitters(self, fig7_problem):
        allocation = binary_allocation(
            fig7_problem, [(7, 0), (13, 0), (9, 1)], solver="test"
        )
        assert allocation.served_transmitters(0) == [7, 13]
        assert allocation.served_transmitters(1) == [9]
        assert allocation.beamspot_sizes() == [2, 1, 0, 0]

    def test_throughput_positive_for_served(self, fig7_problem):
        allocation = binary_allocation(fig7_problem, [(7, 0)], solver="test")
        assert allocation.throughput[0] > 0
        assert allocation.throughput[2] == 0

    def test_shape_checked(self, fig7_problem):
        from repro.core import Allocation

        with pytest.raises(AllocationError):
            Allocation(problem=fig7_problem, swings=np.zeros((2, 2)))

    def test_truncate_to_budget(self, fig7_problem):
        ranked = [(j, j % 4) for j in range(36)]
        granted = truncate_to_budget(fig7_problem, ranked)
        assert len(granted) == fig7_problem.max_affordable_transmitters
        assert granted == ranked[: len(granted)]

    def test_truncate_zero_budget(self, fig7_problem):
        scoped = fig7_problem.with_budget(0.0)
        assert truncate_to_budget(scoped, [(0, 0)]) == []
