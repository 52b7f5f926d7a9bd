"""Unit tests for the state space, workload-range tracker and Q-table."""

import pytest

from repro.errors import ConfigurationError, StateSpaceError
from repro.rtm.qtable import QTable
from repro.rtm.state import (
    Discretizer,
    StateSpace,
    WorkloadNormalisation,
    WorkloadRangeTracker,
)


class TestDiscretizer:
    def test_levels_partition_the_range(self):
        discretizer = Discretizer(0.0, 1.0, 5)
        assert discretizer.level(0.0) == 0
        assert discretizer.level(0.19) == 0
        assert discretizer.level(0.21) == 1
        assert discretizer.level(0.99) == 4
        assert discretizer.level(1.0) == 4  # upper edge clamps into the top level

    def test_out_of_range_values_clamp(self):
        discretizer = Discretizer(-0.5, 0.5, 5)
        assert discretizer.level(-2.0) == 0
        assert discretizer.level(2.0) == 4

    def test_midpoint_round_trips(self):
        discretizer = Discretizer(0.0, 10.0, 4)
        for level in range(4):
            assert discretizer.level(discretizer.midpoint(level)) == level
        with pytest.raises(StateSpaceError):
            discretizer.midpoint(9)

    def test_nan_rejected(self):
        with pytest.raises(StateSpaceError):
            Discretizer(0.0, 1.0, 3).level(float("nan"))

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            Discretizer(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            Discretizer(1.0, 1.0, 3)


class TestWorkloadRangeTracker:
    def test_empty_tracker_maps_to_middle(self):
        tracker = WorkloadRangeTracker()
        assert tracker.normalise(123.0) == pytest.approx(0.5)
        assert not tracker.has_observations

    def test_normalises_relative_to_observed_range(self):
        tracker = WorkloadRangeTracker(margin=0.0)
        tracker.observe(1e7)
        tracker.observe(2e7)
        assert tracker.normalise(1e7) == pytest.approx(0.0)
        assert tracker.normalise(2e7) == pytest.approx(1.0)
        assert tracker.normalise(1.5e7) == pytest.approx(0.5)

    def test_values_outside_range_clamp(self):
        tracker = WorkloadRangeTracker(margin=0.0)
        tracker.observe(1e7)
        tracker.observe(2e7)
        assert tracker.normalise(5e6) == 0.0
        assert tracker.normalise(9e7) == 1.0

    def test_margin_expands_bounds(self):
        tracker = WorkloadRangeTracker(margin=0.1)
        tracker.observe(100.0)
        tracker.observe(200.0)
        low, high = tracker.bounds
        assert low < 100.0
        assert high > 200.0

    def test_negative_observation_rejected(self):
        with pytest.raises(StateSpaceError):
            WorkloadRangeTracker().observe(-1.0)

    def test_reset(self):
        tracker = WorkloadRangeTracker()
        tracker.observe(1.0)
        tracker.reset()
        assert not tracker.has_observations


class TestStateSpace:
    def test_size_matches_paper_defaults(self):
        space = StateSpace()
        assert space.workload_levels == 5
        assert space.slack_levels == 5
        assert space.num_states == 25

    def test_state_index_bijective_over_levels(self):
        space = StateSpace(workload_levels=4, slack_levels=3)
        seen = set()
        for workload_level in range(4):
            for slack_level in range(3):
                workload = space.workload_discretizer.midpoint(workload_level)
                slack = space.slack_discretizer.midpoint(slack_level)
                index = space.state_index(workload, slack)
                assert space.decompose(index) == (workload_level, slack_level)
                seen.add(index)
        assert seen == set(range(space.num_states))

    def test_decompose_rejects_out_of_range(self):
        with pytest.raises(StateSpaceError):
            StateSpace().decompose(999)

    def test_capacity_normalisation(self):
        space = StateSpace(normalisation=WorkloadNormalisation.CAPACITY)
        assert space.normalise_workload(5e7, capacity_cycles=1e8) == pytest.approx(0.5)
        assert space.normalise_workload(2e8, capacity_cycles=1e8) == 1.0
        with pytest.raises(StateSpaceError):
            space.normalise_workload(1e7, capacity_cycles=0.0)

    def test_total_share_normalisation_is_equation_7(self):
        space = StateSpace(normalisation=WorkloadNormalisation.TOTAL_SHARE)
        predictions = [1e7, 2e7, 3e7, 4e7]
        share = space.normalise_workload(2e7, capacity_cycles=1e9, all_core_predictions=predictions)
        assert share == pytest.approx(0.2)
        # Shares over all cores sum to 1.
        total = sum(
            space.normalise_workload(p, capacity_cycles=1e9, all_core_predictions=predictions)
            for p in predictions
        )
        assert total == pytest.approx(1.0)

    def test_total_share_with_zero_total(self):
        space = StateSpace(normalisation=WorkloadNormalisation.TOTAL_SHARE)
        assert space.normalise_workload(0.0, 1e9, [0.0, 0.0]) == 0.0

    def test_negative_workload_rejected(self):
        with pytest.raises(StateSpaceError):
            StateSpace().normalise_workload(-1.0, 1e8)


class TestQTable:
    def test_initial_values(self):
        table = QTable(num_states=4, num_actions=3, initial_value=0.5)
        assert table.size == 12
        assert table.get(0, 0) == 0.5
        assert max(table.row(2)) == 0.5

    def test_set_get_and_bounds(self):
        table = QTable(3, 2)
        table.set(1, 1, 2.5)
        assert table.get(1, 1) == 2.5
        with pytest.raises(StateSpaceError):
            table.get(5, 0)
        with pytest.raises(StateSpaceError):
            table.set(0, 9, 1.0)

    def test_best_action_and_tie_breaking(self):
        table = QTable(1, 4)
        # All zero: tie-break selects the fastest (highest-index) action.
        assert table.best_action(0) == 3
        table.set(0, 1, 1.0)
        assert table.best_action(0) == 1

    def test_visit_counters(self):
        table = QTable(2, 2)
        table.record_visit(0, 1)
        table.record_visit(0, 1)
        table.record_visit(1, 0)
        assert table.visit_count(0, 1) == 2
        assert table.visit_count(1, 0) == 1
        assert table.visit_count(1, 1) == 0

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            QTable(0, 5)
