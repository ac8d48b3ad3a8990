"""The one ``Plant`` against the two device models it replaced.

``plant_step`` runs the actuator and the reservoir as one model with
different constants. The reference below keeps the two dataclasses and step
functions that ran them before, verbatim, as the oracle: on any path of
input pressures the built actuator and reservoir must give the same outputs
bit for bit, count the same clamp events, and raise the same error type.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pneurc.errors import InvalidSpecError, NumericError
from pneurc.plant import (INPUT_PRESSURE_LIMIT, ActuatorConfig, PlayOperatorStack,
                          ReservoirConfig, plant_step)

DT = 1 / 200


@dataclass
class ActuatorPlant:
    """Pneumatic bending actuator: pressure (kPa) to bend angle (deg)."""

    hysteresis: PlayOperatorStack
    lag_time_constant: float
    output_bounds: tuple
    angle_state: float = 0.0
    clamp_events: int = 0

    def __post_init__(self):
        if self.lag_time_constant <= 0.0:
            raise InvalidSpecError("lag_time_constant must be positive")
        if self.output_bounds[0] >= self.output_bounds[1]:
            raise InvalidSpecError("output_bounds must be (low, high) with low < high")


def actuator_step(plant: ActuatorPlant, p_demand: float, dt: float) -> float:
    """Advance the actuator one sample with demanded pressure, return the angle.

    Negative demands are clamped to 0 (vented actuator) and counted on the
    plant so the harness can flag them.
    """
    if not math.isfinite(p_demand):
        raise NumericError(f"actuator pressure must be finite, got {p_demand!r}")
    if not (0.0 < dt):
        raise InvalidSpecError("dt must be positive")
    if p_demand < 0.0:
        p_demand = 0.0
        plant.clamp_events += 1
    target = plant.hysteresis.step(p_demand)
    angle = plant.angle_state + (dt / plant.lag_time_constant) * (target - plant.angle_state)
    lo, hi = plant.output_bounds
    plant.angle_state = angle = float(lo if angle < lo else (hi if angle > hi else angle))
    return angle


@dataclass
class ReservoirPlant:
    """Sensing reservoir: input pressure (kPa) to internal pressure (kPa).

    Pre-pressurized to ``baseline_pressure``; the play stack adds the
    hysteretic response of the fabric-constrained chamber on top.
    """

    hysteresis: PlayOperatorStack
    lag_time_constant: float
    baseline_pressure: float
    input_limit: float
    pressure: float | None = None
    clamp_events: int = 0

    def __post_init__(self):
        if self.lag_time_constant <= 0.0:
            raise InvalidSpecError("lag_time_constant must be positive")
        if self.baseline_pressure < 0.0:
            raise InvalidSpecError("baseline_pressure must be non-negative")
        if self.input_limit <= 0.0:
            raise InvalidSpecError("input_limit must be positive")
        if self.pressure is None:
            self.pressure = float(self.baseline_pressure)


def reservoir_step(res: ReservoirPlant, p_in: float, dt: float) -> float:
    """Advance the reservoir one sample with input pressure, return P_o.

    The input is clamped to [0, input_limit] (clamp events are counted on
    the reservoir); the output pressure never drops below zero.
    """
    if not math.isfinite(p_in):
        raise NumericError(f"reservoir input pressure must be finite, got {p_in!r}")
    if not (0.0 < dt):
        raise InvalidSpecError("dt must be positive")
    clamped = min(max(p_in, 0.0), res.input_limit)
    if clamped != p_in:
        res.clamp_events += 1
    target = res.baseline_pressure + res.hysteresis.step(clamped)
    pressure = res.pressure + (dt / res.lag_time_constant) * (target - res.pressure)
    res.pressure = pressure = 0.0 if pressure < 0.0 else pressure
    return pressure


def reference_actuator(cfg: ActuatorConfig) -> ActuatorPlant:
    stack = PlayOperatorStack.uniform(cfg.n_ops, cfg.full_scale_pressure, cfg.bend_range)
    return ActuatorPlant(hysteresis=stack, lag_time_constant=cfg.lag_time_constant,
                         output_bounds=(0.0, cfg.bend_range))


def reference_reservoir(cfg: ReservoirConfig) -> ReservoirPlant:
    stack = PlayOperatorStack.uniform(cfg.n_ops, cfg.input_range, cfg.pressure_span)
    return ReservoirPlant(hysteresis=stack, lag_time_constant=cfg.lag_time_constant,
                          baseline_pressure=cfg.baseline_pressure,
                          input_limit=cfg.input_range)


def bits(x: float) -> bytes:
    assert type(x) is float
    return struct.pack("<d", x)


# pressures from below zero to past the reservoir's input range, with both zeros
PRESSURES = st.one_of(st.floats(-100.0, 1.5 * INPUT_PRESSURE_LIMIT),
                      st.sampled_from([0.0, -0.0, INPUT_PRESSURE_LIMIT, 500.0, -1e-300]))
PATHS = st.lists(PRESSURES, min_size=1, max_size=200)
ACTUATORS = st.builds(ActuatorConfig, n_ops=st.integers(1, 8),
                      bend_range=st.sampled_from([60.0, 1.0, 90.0]),
                      lag_time_constant=st.sampled_from([0.05, 0.005, 0.3]))
RESERVOIRS = st.builds(ReservoirConfig, n_ops=st.integers(1, 8),
                       input_range=st.sampled_from([INPUT_PRESSURE_LIMIT, 200.0]),
                       baseline_pressure=st.sampled_from([100.0, 0.0]),
                       lag_time_constant=st.sampled_from([0.05, 0.005, 0.3]))


@example(cfg=ActuatorConfig(), path=[0.0, -0.0, -5.0, 450.0, 600.0, -0.0])
@settings(max_examples=150)
@given(cfg=ACTUATORS, path=PATHS)
def test_actuator_matches_reference(cfg, path):
    plant, ref = cfg.build(), reference_actuator(cfg)
    for p in path:
        assert bits(plant_step(plant, p, DT)) == bits(actuator_step(ref, p, DT))
        assert plant.clamp_events == ref.clamp_events
    assert plant.hysteresis.states.tobytes() == ref.hysteresis.states.tobytes()


@example(cfg=ReservoirConfig(baseline_pressure=0.0), path=[0.0, -0.0, -5.0, 0.0])
@example(cfg=ReservoirConfig(), path=[0.0, -0.0, -5.0, 450.0, 600.0, -0.0])
@settings(max_examples=150)
@given(cfg=RESERVOIRS, path=PATHS)
def test_reservoir_matches_reference(cfg, path):
    plant, ref = cfg.build(), reference_reservoir(cfg)
    assert bits(plant.output) == bits(ref.pressure)
    for p in path:
        assert bits(plant_step(plant, p, DT)) == bits(reservoir_step(ref, p, DT))
        assert plant.clamp_events == ref.clamp_events
    assert plant.hysteresis.states.tobytes() == ref.hysteresis.states.tobytes()


@pytest.mark.parametrize("p_in, dt", [(math.nan, DT), (math.inf, DT), (-math.inf, DT),
                                       (100.0, 0.0), (100.0, -DT), (math.nan, 0.0)])
def test_bad_input_raises_as_reference(p_in, dt):
    for plant, ref, ref_step in (
            (ActuatorConfig().build(), reference_actuator(ActuatorConfig()), actuator_step),
            (ReservoirConfig().build(), reference_reservoir(ReservoirConfig()), reservoir_step)):
        with pytest.raises((NumericError, InvalidSpecError)) as expected:
            ref_step(ref, p_in, dt)
        with pytest.raises(expected.type):
            plant_step(plant, p_in, dt)
        assert plant.clamp_events == ref.clamp_events == 0
