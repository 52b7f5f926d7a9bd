"""Unit tests for the DVFS actuator and the RC thermal model."""

import pytest

from repro.errors import ConfigurationError, InvalidOperatingPointError
from repro.platform.dvfs import DVFSActuator
from repro.platform.thermal import ThermalModel, ThermalParameters


class TestDVFSActuator:
    def test_starts_at_fastest_point_by_default(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        assert actuator.current_index == len(small_vf_table) - 1

    def test_explicit_initial_index(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table, initial_index=1)
        assert actuator.current_point.frequency_hz == pytest.approx(1000e6)

    def test_invalid_initial_index_rejected(self, small_vf_table):
        with pytest.raises(InvalidOperatingPointError):
            DVFSActuator(table=small_vf_table, initial_index=9)

    def test_transition_is_recorded_with_costs(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table, transition_latency_s=1e-4,
                                transition_energy_j=2e-4)
        transition = actuator.request(0, timestamp_s=1.0)
        assert transition.from_index == 3
        assert transition.to_index == 0
        assert transition.latency_s == pytest.approx(1e-4)
        assert transition.energy_j == pytest.approx(2e-4)
        assert actuator.transitions == [transition]

    def test_same_point_request_is_free_and_unrecorded(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        current = actuator.current_index
        transition = actuator.request(current)
        assert transition.latency_s == 0.0
        assert transition.energy_j == 0.0
        assert actuator.transitions == []

    def test_out_of_range_request_rejected(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        with pytest.raises(InvalidOperatingPointError):
            actuator.request(17)

    def test_cumulative_costs(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table, transition_latency_s=1e-4,
                                transition_energy_j=1e-4)
        actuator.request(0)
        actuator.request(2)
        actuator.request(1)
        assert actuator.total_transition_time_s == pytest.approx(3e-4)
        assert actuator.total_transition_energy_j == pytest.approx(3e-4)

    def test_reset_clears_history(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        actuator.request(0)
        actuator.reset(index=2)
        assert actuator.transitions == []
        assert actuator.current_index == 2

    def test_negative_costs_rejected(self, small_vf_table):
        with pytest.raises(ConfigurationError):
            DVFSActuator(table=small_vf_table, transition_latency_s=-1.0)

    def test_absorbed_transitions_follow_the_requested_ones(self, small_vf_table):
        requested = DVFSActuator(table=small_vf_table, transition_latency_s=1e-4,
                                 transition_energy_j=2e-4)
        first = requested.request(1, timestamp_s=0.5)
        second = requested.request(2, timestamp_s=1.0)
        absorbed = DVFSActuator(table=small_vf_table, transition_latency_s=1e-4,
                                transition_energy_j=2e-4)
        absorbed.absorb_transitions([first], final_index=1)
        absorbed.absorb_transitions([second], final_index=2)
        assert absorbed.transitions == requested.transitions
        assert absorbed.current_index == requested.current_index == 2
        assert absorbed.total_transition_time_s == requested.total_transition_time_s
        assert absorbed.total_transition_energy_j == requested.total_transition_energy_j

    def test_absorbing_no_transitions_only_moves_the_point(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        actuator.absorb_transitions([], final_index=0)
        assert actuator.transitions == []
        assert actuator.current_index == 0

    def test_absorb_rejects_out_of_range_final_point(self, small_vf_table):
        actuator = DVFSActuator(table=small_vf_table)
        with pytest.raises(InvalidOperatingPointError):
            actuator.absorb_transitions([], final_index=len(small_vf_table))
        assert actuator.current_index == len(small_vf_table) - 1


class TestThermalModel:
    def test_starts_at_initial_temperature(self):
        model = ThermalModel()
        assert model.temperature_c == pytest.approx(model.parameters.initial_c)

    def test_heats_towards_steady_state(self):
        model = ThermalModel(parameters=ThermalParameters(initial_c=40.0))
        steady = model.steady_state_c(5.0)
        for _ in range(200):
            model.step(power_w=5.0, duration_s=1.0)
        assert model.temperature_c == pytest.approx(steady, abs=0.5)
        assert model.temperature_c > 40.0

    def test_cools_when_power_removed(self):
        model = ThermalModel()
        for _ in range(50):
            model.step(5.0, 1.0)
        hot = model.temperature_c
        for _ in range(500):
            model.step(0.0, 1.0)
        assert model.temperature_c < hot
        assert model.temperature_c == pytest.approx(model.parameters.ambient_c, abs=0.5)

    def test_temperature_never_exceeds_steady_state_when_heating_from_below(self):
        model = ThermalModel(parameters=ThermalParameters(initial_c=35.0))
        steady = model.steady_state_c(3.0)
        for _ in range(1000):
            temperature = model.step(3.0, 0.5)
            assert temperature <= steady + 1e-9

    def test_disabled_model_holds_temperature(self):
        model = ThermalModel(enabled=False)
        initial = model.temperature_c
        model.step(10.0, 100.0)
        assert model.temperature_c == initial

    def test_throttle_flag(self):
        model = ThermalModel(parameters=ThermalParameters(initial_c=96.0, throttle_c=95.0))
        assert model.is_throttling

    def test_invalid_inputs_rejected(self):
        model = ThermalModel()
        with pytest.raises(ValueError):
            model.step(-1.0, 1.0)
        with pytest.raises(ValueError):
            model.step(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            ThermalParameters(resistance_c_per_w=0.0)
        with pytest.raises(ConfigurationError):
            ThermalParameters(initial_c=10.0, ambient_c=30.0)

    def test_reset(self):
        model = ThermalModel()
        model.step(5.0, 10.0)
        model.reset()
        assert model.temperature_c == pytest.approx(model.parameters.initial_c)
