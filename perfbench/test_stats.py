"""Tests for the benchmark's own arithmetic.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from stats import (
    MIN_BEYOND,
    Span,
    Step,
    Tally,
    covered,
    fold_self_times,
    min_samples,
    percentile,
    queue_waits,
    samples_beyond,
    sustained_rps,
)


class TestTailPercentile:
    def test_minimum_sample_counts(self):
        assert min_samples(50.0) == 20
        assert min_samples(90.0) == 100
        assert min_samples(99.0) == 1000

    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        samples = list(range(99))
        assert samples_beyond(len(samples), 90.0) < MIN_BEYOND
        with pytest.raises(ValueError, match="needs 10 samples beyond"):
            percentile(samples, 90.0)

    def test_reports_at_exactly_ten_samples_beyond(self):
        samples = [float(n) for n in range(1, 101)]
        assert percentile(samples, 90.0) == 90.0
        assert sum(1 for s in samples if s > 90.0) == MIN_BEYOND

    def test_nearest_rank_ignores_input_order(self):
        samples = [float(n) for n in range(1000, 0, -1)]
        assert percentile(samples, 99.0) == 990.0
        assert percentile(samples, 50.0) == 500.0

    def test_rejects_out_of_range_percentile(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 100, 100.0)


class TestSelfTimeFolding:
    def test_layers_plus_residual_sum_to_wall_on_one_thread(self):
        spans = [
            Span("service", 1.0, 5.0),
            Span("channel", 1.5, 2.0, parent=0),
            Span("pool", 2.0, 4.0, parent=0),
            Span("swing", 2.5, 3.5, parent=2),
            Span("service", 6.0, 7.0),
        ]
        totals = fold_self_times(spans, [(0.0, 8.0)])
        assert totals["service"] == pytest.approx(4.0 - 2.5 + 1.0)
        assert totals["channel"] == pytest.approx(0.5)
        assert totals["pool"] == pytest.approx(1.0)
        assert totals["swing"] == pytest.approx(1.0)
        assert totals["unattributed"] == pytest.approx(8.0 - 5.0)
        assert sum(totals.values()) == pytest.approx(8.0)

    def test_children_past_their_parent_are_clipped(self):
        # A solve abandoned on a helper thread outlives the pool call.
        spans = [Span("pool", 0.0, 1.0), Span("solve", 0.6, 1.6, parent=0)]
        totals = fold_self_times(spans, [(0.0, 2.0)])
        assert totals["pool"] == pytest.approx(0.6)
        assert totals["solve"] == pytest.approx(1.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            Span("frontend", 0.0, 10.0),
            Span("service", 1.0, 6.0, parent=0),
            Span("service", 4.0, 8.0, parent=0),
        ]
        assert fold_self_times(spans, [(0.0, 10.0)])["frontend"] == pytest.approx(3.0)

    def test_residual_is_summed_over_windows(self):
        spans = [Span("service", 1.0, 2.0), Span("service", 11.0, 11.5)]
        totals = fold_self_times(spans, [(0.0, 3.0), (10.0, 12.0)])
        assert totals["unattributed"] == pytest.approx(5.0 - 1.5)

    def test_covered_merges_intervals(self):
        assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == pytest.approx(4.0)
        assert covered([]) == 0.0


class TestSustainedRate:
    def test_highest_passing_rate_below_the_first_failure(self):
        steps = [
            Step(1000.0, 1000, 1000, False),
            Step(2000.0, 2000, 1995, False),
            Step(3000.0, 3000, 2900, False),
            Step(4000.0, 4000, 4000, False),
        ]
        assert sustained_rps(steps) == 2000.0

    def test_shed_and_failed_requests_are_misses(self):
        # 1000 sent, 985 served in time, 10 shed and 5 raised: 98.5% < 99%.
        assert not Step(1000.0, 1000, 985, False).passes(0.99)
        assert sustained_rps([Step(1000.0, 1000, 985, False)]) == 0.0

    def test_growing_backlog_fails_a_step(self):
        steps = [Step(1000.0, 1000, 1000, False), Step(1500.0, 1500, 1500, True)]
        assert sustained_rps(steps) == 1000.0

    def test_empty_step_never_passes(self):
        assert not Step(1000.0, 0, 0, False).passes(0.99)


class TestQueueWaits:
    def test_a_repeated_tag_is_matched_with_its_latest_earlier_submission(self):
        submissions = [("a", 1.0), ("b", 1.5), ("a", 3.0)]
        batches = [(2.0, ["a", "b"]), (3.25, ["a"])]
        assert queue_waits(submissions, batches) == [1.0, 0.5, 0.25]

    def test_an_entry_submitted_before_the_stretch_is_skipped(self):
        assert queue_waits([("a", 5.0)], [(4.0, ["a"]), (6.0, ["b"])]) == []


class TestFailureCounting:
    def test_a_raising_batch_fails_every_request_it_carried(self):
        tally = Tally()
        tally.served_batch([False, True, False])
        tally.failed_batch(3)
        assert (tally.sent, tally.served, tally.failed, tally.degraded) == (6, 3, 3, 1)
        assert tally.failed_frac == pytest.approx(0.5)
        assert tally.degraded_frac == pytest.approx(1 / 6)

    def test_add_merges_tallies(self):
        first, second = Tally(), Tally()
        first.served_batch([False])
        second.failed_batch(2)
        first.add(second)
        assert (first.sent, first.served, first.failed) == (3, 1, 2)

    def test_a_raising_handle_batch_fails_its_requests_and_the_run_goes_on(self, monkeypatch):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        import workloads
        from repro.errors import DeadlineExceeded

        class FlakyService:
            def __init__(self, scene, options):
                self.calls = 0

            def handle_batch(self, batch):
                self.calls += 1
                if self.calls == 1:
                    raise DeadlineExceeded("expired")
                return [SimpleNamespace(degraded=n == 0, deadline_exceeded=False) for n in batch]

        monkeypatch.setattr(workloads, "AllocationService", FlakyService)
        scenario = SimpleNamespace(scene=None, fault_plan=None, epochs=[[0, 1, 2], [0, 1]])
        run = workloads.ClosedLoopRun()
        run.serve(scenario)
        tally = run.tally
        assert (tally.sent, tally.failed, tally.served, tally.degraded) == (5, 3, 2, 1)
        assert len(run.latencies) == 1 and len(run.windows) == 2
        assert sum(run.errors.values()) == 3

    def test_fractions_of_nothing_are_zero(self):
        assert Tally().failed_frac == 0.0 and not math.isnan(Tally().degraded_frac)


class TestOutputChecker:
    """The quantum-cell rule of ``check.py`` on a real scene."""

    def _setup(self):
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        from check import OutputChecker
        from repro.channel import AWGNNoise, channel_matrix
        from repro.core import AllocationProblem, RankingHeuristic
        from repro.runtime.service import AllocationRequest
        from repro.system import simulation_scene

        positions = ((0.8, 0.8), (1.6, 0.9), (2.4, 1.7), (1.2, 2.2))
        scene = simulation_scene(positions)

        def served(rx_positions, reported_positions):
            request = AllocationRequest(rx_positions_xy=rx_positions, power_budget=1.2, tag="r")
            problem = AllocationProblem(
                channel_matrix(scene.with_receivers_at(reported_positions)), 1.2,
                scene.led, scene.receivers[0].photodiode, AWGNNoise(),
            )
            swings = RankingHeuristic().solve(problem).swings
            rates = problem.throughput(swings)
            result = SimpleNamespace(
                request=request, swings=swings, per_rx_throughput=rates,
                system_throughput=float(rates.sum()), degraded=False,
            )
            return request, result

        return OutputChecker(scene), positions, served

    def test_exact_channel_passes(self):
        checker, positions, served = self._setup()
        request, result = served(positions, positions)
        checker.observe(request)
        assert checker.check(request, result).violations == ()

    def test_column_from_an_earlier_position_in_the_same_cell_passes(self):
        checker, positions, served = self._setup()
        nearby = ((0.8, 0.8), (1.6003, 0.8998), (2.4, 1.7), (1.2, 2.2))
        earlier, _ = served(nearby, nearby)
        checker.observe(earlier)
        request, result = served(positions, nearby)
        checker.observe(request)
        assert checker.check(request, result).violations == ()

    def test_channel_from_another_cell_fails(self):
        checker, positions, served = self._setup()
        elsewhere = ((0.8, 0.8), (1.65, 0.9), (2.4, 1.7), (1.2, 2.2))
        earlier, _ = served(elsewhere, elsewhere)
        checker.observe(earlier)
        request, result = served(positions, elsewhere)
        checker.observe(request)
        assert any("differs" in v for v in checker.check(request, result).violations)

