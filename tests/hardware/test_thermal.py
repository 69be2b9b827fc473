"""Lumped-RC thermal model tests (Figure 14 mechanics)."""

import dataclasses

import numpy as np
import pytest

from repro.hardware.thermal import (
    DEFAULT_AMBIENT_C,
    ThermalArray,
    ThermalSimulator,
    ThermalSpec,
    hysteresis,
    rc_step_c,
)


def _passive_spec(**overrides) -> ThermalSpec:
    defaults = dict(
        r_passive_c_per_w=10.0, r_active_c_per_w=10.0, c_j_per_c=5.0,
        has_heatsink=False, has_fan=False, surface_offset_c=2.0,
    )
    defaults.update(overrides)
    return ThermalSpec(**defaults)


def _fan_spec(**overrides) -> ThermalSpec:
    defaults = dict(
        r_passive_c_per_w=10.0, r_active_c_per_w=3.0, c_j_per_c=5.0,
        has_heatsink=True, has_fan=True, fan_trigger_c=50.0, fan_stop_c=40.0,
        surface_offset_c=6.0,
    )
    defaults.update(overrides)
    return ThermalSpec(**defaults)


class TestThermalSpec:
    def test_steady_state(self):
        spec = _passive_spec()
        assert spec.steady_state_c(2.0, ambient_c=22.0) == pytest.approx(42.0)

    def test_fan_resistance_used_when_on(self):
        spec = _fan_spec()
        assert spec.steady_state_c(10.0, ambient_c=22.0, fan_on=True) == pytest.approx(52.0)

    def test_invalid_resistances_rejected(self):
        with pytest.raises(ValueError):
            ThermalSpec(r_passive_c_per_w=3.0, r_active_c_per_w=5.0, c_j_per_c=1.0)

    def test_invalid_hysteresis_rejected(self):
        with pytest.raises(ValueError):
            _fan_spec(fan_trigger_c=40.0, fan_stop_c=45.0)


class TestSimulator:
    def test_starts_at_ambient(self):
        sim = ThermalSimulator(_passive_spec(), ambient_c=25.0)
        assert sim.temperature_c == 25.0

    def test_exponential_approach(self):
        sim = ThermalSimulator(_passive_spec())
        sim.step(2.0, dt_s=1e6)  # effectively infinite time
        assert sim.temperature_c == pytest.approx(42.0, abs=0.01)

    def test_monotone_heating(self):
        sim = ThermalSimulator(_passive_spec())
        temps = [sim.step(2.0, 5.0) for _ in range(20)]
        assert temps == sorted(temps)
        assert temps[-1] <= 42.0 + 1e-9

    def test_cooling_after_load_removed(self):
        sim = ThermalSimulator(_passive_spec())
        sim.step(5.0, 1e6)
        hot = sim.temperature_c
        sim.step(0.0, 30.0)
        assert sim.temperature_c < hot

    def test_surface_reads_below_junction(self):
        sim = ThermalSimulator(_passive_spec())
        sim.step(3.0, 100.0)
        assert sim.surface_temperature_c == sim.temperature_c - 2.0

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            ThermalSimulator(_passive_spec()).step(1.0, 0.0)

    def test_fan_turns_on_with_event(self):
        sim = ThermalSimulator(_fan_spec())
        sim.run_to_steady_state(10.0, dt_s=1.0)
        kinds = [e.kind for e in sim.events]
        assert "fan_on" in kinds
        assert sim.fan_on

    def test_fan_steady_state_uses_active_resistance(self):
        sim = ThermalSimulator(_fan_spec())
        sim.run_to_steady_state(10.0, dt_s=1.0)
        assert sim.temperature_c == pytest.approx(22.0 + 10.0 * 3.0, abs=0.5)

    def test_fan_hysteresis_off_event(self):
        sim = ThermalSimulator(_fan_spec())
        sim.run_to_steady_state(10.0, dt_s=1.0)
        sim.run_to_steady_state(0.5, dt_s=1.0)  # cool down
        kinds = [e.kind for e in sim.events]
        assert "fan_off" in kinds

    def test_shutdown_trips_and_latches(self):
        sim = ThermalSimulator(_passive_spec(shutdown_c=40.0))
        trace = sim.run_to_steady_state(5.0, dt_s=1.0)
        assert sim.shutdown
        assert any(e.kind == "shutdown" for e in sim.events)
        # After shutdown the device stops drawing compute power and cools.
        sim.step(5.0, 1e6)
        assert sim.temperature_c == pytest.approx(22.0, abs=0.1)
        assert trace[-1][1] >= 40.0

    def test_no_shutdown_when_threshold_absent(self):
        sim = ThermalSimulator(_passive_spec())
        sim.run_to_steady_state(10.0, dt_s=1.0)
        assert not sim.shutdown

    def test_trace_returns_time_series(self):
        sim = ThermalSimulator(_passive_spec())
        trace = sim.run_to_steady_state(2.0, dt_s=1.0)
        times = [t for t, _ in trace]
        assert times == sorted(times)
        assert trace[0][1] == pytest.approx(22.0)

    def test_idle_temperature(self):
        sim = ThermalSimulator(_passive_spec())
        assert sim.idle_temperature_c(1.0) == pytest.approx(32.0)


def _dvfs_spec() -> ThermalSpec:
    """The Raspberry Pi with its firmware soft limit on, as
    ``ext_sustained_throughput`` builds it."""
    from repro.hardware import load_device

    return dataclasses.replace(
        load_device("Raspberry Pi 3B").thermal, throttle_c=60.0,
        throttle_stop_c=55.0, throttle_clock_factor=0.6)


class TestThermalArray:
    """``ThermalArray`` is ``ThermalSimulator.step`` elementwise: the same
    temperatures bit for bit and the same switch events, on power traces
    that cross the fan, throttle and shutdown thresholds."""

    SPECS = (
        _fan_spec(),
        _fan_spec(shutdown_c=70.0, throttle_c=60.0, throttle_clock_factor=0.5),
        _passive_spec(shutdown_c=65.0),
        _passive_spec(),
        _dvfs_spec(),
        _dvfs_spec(),
    )

    def _trace(self, seed, nodes, steps=400):
        rng = np.random.default_rng(seed)
        # Slow power swings between idle and flat out, long enough to heat
        # every spec past its thresholds and cool it back down.
        phase = np.cumsum(rng.uniform(0.0, 0.2, size=steps))
        power_w = 2.5 + 2.5 * np.sin(phase)[:, None] * rng.uniform(
            0.6, 1.4, size=nodes)
        dt_s = rng.choice([0.5, 2.0, 7.5], size=steps)
        return power_w, dt_s

    def _check_against_simulators(self, specs, seed):
        """Step a ThermalArray of ``specs`` and one ThermalSimulator per
        real spec through the same trace; returns the array."""
        power_w, dt_s = self._trace(seed, len(specs))
        array = ThermalArray(specs)
        scalars = {index: ThermalSimulator(spec)
                   for index, spec in enumerate(specs) if spec is not None}
        for watts, dt in zip(power_w, dt_s.tolist()):
            live = {index: not sim.shutdown for index, sim in scalars.items()}
            array.step(watts, dt)
            for index, sim in scalars.items():
                if not live[index]:
                    continue  # a tripped node stops integrating
                sim.step(float(watts[index]), dt)
                assert array.temperature_c[index] == sim.temperature_c
                assert array.fan_on[index] == sim.fan_on
                assert array.throttled[index] == sim.throttled
                assert array.shutdown[index] == sim.shutdown
        for index, sim in scalars.items():
            kinds = [event.kind for event in sim.events]
            assert array.fan_events[index] == kinds.count("fan_on")
            assert array.throttle_events[index] == kinds.count("throttle_on")
            assert int(array.shutdown[index]) == kinds.count("shutdown")
        # The traces do cross every threshold somewhere.
        assert array.fan_events.sum() > 0
        assert array.throttle_events.sum() > 0
        assert array.shutdown.any()
        return array

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_thermal_simulator_bit_for_bit(self, seed):
        self._check_against_simulators(self.SPECS, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_spec_less_nodes_never_heat(self, seed):
        # An HPC part has no thermal spec: its node stays at ambient with
        # every switch open, and the nodes beside it are unaffected.
        specs = (None, *self.SPECS[:3], None, *self.SPECS[3:])
        array = self._check_against_simulators(specs, seed)
        for index in (0, 4):
            assert array.temperature_c[index] == DEFAULT_AMBIENT_C
            assert not (array.fan_on[index] or array.throttled[index]
                        or array.shutdown[index])
            assert array.fan_events[index] == array.throttle_events[index] == 0
            assert array.slowdown[index] == 1.0

    def test_step_reports_the_nodes_that_tripped(self):
        array = ThermalArray([_passive_spec(shutdown_c=40.0), _passive_spec()])
        assert array.step(np.array([0.1, 0.1]), 1.0) is None
        tripped = array.step(np.array([10.0, 10.0]), 1000.0)
        assert tripped.tolist() == [True, False]
        # A tripped node is frozen: it neither cools nor trips again.
        frozen_c = array.temperature_c[0]
        assert array.step(np.array([0.0, 0.0]), 1000.0) is None
        assert array.temperature_c[0] == frozen_c

    def test_slowdown_follows_the_throttle(self):
        array = ThermalArray([_dvfs_spec(), _passive_spec()])
        array.throttled[0] = True
        assert array.slowdown.tolist() == [1.0 / 0.6, 1.0]

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            ThermalArray([_passive_spec()]).step(np.array([1.0]), 0.0)


class TestHelpers:
    def test_rc_step_relaxes_towards_the_target(self):
        assert rc_step_c(30.0, 50.0, 0.25) == 45.0

    @pytest.mark.parametrize("on, value, expected", [
        (False, 59.9, False), (False, 60.0, True),
        (True, 50.1, True), (True, 50.0, False),
    ])
    def test_hysteresis(self, on, value, expected):
        assert hysteresis(on, value, 60.0, 50.0) is expected
        assert hysteresis(np.array([on]), np.array([value]), 60.0,
                          50.0).tolist() == [expected]
