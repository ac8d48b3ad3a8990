"""Hysteretic plant surrogates.

A stack of weighted play (backlash) operators provides rate-independent
hysteresis with memory; a first-order lag on top gives each device its
time response. Two devices are modeled: the pneumatic bending actuator
(pressure in, bend angle out) and the sensing reservoir (pressure in,
internal pressure out).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpecError, NumericError

INPUT_PRESSURE_LIMIT = 450.0  # kPa, supply-side hard limit

DISTURBANCE_MODES = ("additive-pressure", "state-kick")


@dataclass
class PlayOperatorStack:
    """Weighted stack of play operators sharing one scalar input.

    Each operator j holds an internal state s_j updated as
    s_j' = max(u - r_j, min(u + r_j, s_j)); the stack output is the
    weighted sum of the states. Radii must be ascending with r_0 >= 0.
    """

    radii: np.ndarray
    weights: np.ndarray
    states: np.ndarray = None
    input_unit: str = "kPa"
    output_unit: str = "deg"
    last_input: float = 0.0

    def __post_init__(self):
        self.radii = np.asarray(self.radii, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.radii.ndim != 1 or self.radii.size == 0:
            raise InvalidSpecError("radii must be a non-empty 1-D array")
        if self.weights.shape != self.radii.shape:
            raise InvalidSpecError("weights and radii must have equal length")
        if self.radii[0] < 0.0 or np.any(np.diff(self.radii) < 0.0):
            raise InvalidSpecError("radii must be ascending with radii[0] >= 0")
        if not np.all(np.isfinite(self.radii)) or not np.all(np.isfinite(self.weights)):
            raise InvalidSpecError("radii and weights must be finite")
        if self.states is None:
            self.states = np.zeros_like(self.radii)
        else:
            self.states = np.asarray(self.states, dtype=float)
            if self.states.shape != self.radii.shape:
                raise InvalidSpecError("states must match radii in length")

    @classmethod
    def uniform(cls, n_ops: int, input_span: float, output_span: float,
                radius_span: float | None = None, input_unit: str = "kPa",
                output_unit: str = "deg") -> "PlayOperatorStack":
        """Equal-weight stack with radii spread uniformly from 0.

        Weights are scaled so the virgin ascending branch reaches
        ``output_span`` at ``input_span``. ``radius_span`` defaults to an
        eighth of the input span, which gives loop widths proportionate
        to a pneumatic artificial muscle.
        """
        if n_ops < 1:
            raise InvalidSpecError("n_ops must be >= 1")
        if input_span <= 0.0 or output_span <= 0.0:
            raise InvalidSpecError("input_span and output_span must be positive")
        if radius_span is None:
            radius_span = input_span / 8.0
        if radius_span < 0.0 or radius_span >= input_span:
            raise InvalidSpecError("radius_span must lie in [0, input_span)")
        radii = np.linspace(0.0, radius_span, n_ops) if n_ops > 1 else np.array([0.0])
        w = output_span / float(np.sum(input_span - radii))
        return cls(radii=radii, weights=np.full(n_ops, w),
                   input_unit=input_unit, output_unit=output_unit)

    def step(self, u: float) -> float:
        """Advance all operators with input u, return the weighted output."""
        if not np.isfinite(u):
            raise NumericError(f"play stack input must be finite, got {u!r}")
        np.maximum(u - self.radii, np.minimum(u + self.radii, self.states), out=self.states)
        self.last_input = float(u)
        return float(self.weights @ self.states)

    def run(self, u_sequence) -> np.ndarray:
        """Step through a whole input sequence, returning the output path."""
        u_sequence = np.asarray(u_sequence, dtype=float)
        out = np.empty(u_sequence.size)
        for k in range(u_sequence.size):
            out[k] = self.step(u_sequence[k])
        return out

    def copy(self) -> "PlayOperatorStack":
        return PlayOperatorStack(radii=self.radii.copy(), weights=self.weights.copy(),
                                 states=self.states.copy(), input_unit=self.input_unit,
                                 output_unit=self.output_unit, last_input=self.last_input)


@dataclass
class ActuatorPlant:
    """Pneumatic bending actuator: pressure (kPa) to bend angle (deg)."""

    hysteresis: PlayOperatorStack
    lag_time_constant: float = 0.05
    angle_state: float = 0.0
    output_bounds: tuple = (0.0, 60.0)
    clamp_events: int = 0

    def __post_init__(self):
        if self.lag_time_constant <= 0.0:
            raise InvalidSpecError("lag_time_constant must be positive")
        if self.output_bounds[0] >= self.output_bounds[1]:
            raise InvalidSpecError("output_bounds must be (low, high) with low < high")

    @classmethod
    def default(cls, n_ops: int = 8, full_scale_pressure: float = 370.0,
                bend_range: float = 60.0, radius_span: float | None = None,
                lag_time_constant: float = 0.05) -> "ActuatorPlant":
        """``full_scale_pressure`` is where the virgin branch reaches ``bend_range``.

        Demands above it saturate against the output bound, mirroring how the
        physical actuator flattens out near full inflation.
        """
        stack = PlayOperatorStack.uniform(n_ops, full_scale_pressure, bend_range, radius_span,
                                          input_unit="kPa", output_unit="deg")
        return cls(hysteresis=stack, lag_time_constant=lag_time_constant,
                   output_bounds=(0.0, bend_range))


def actuator_step(plant: ActuatorPlant, p_demand: float, dt: float) -> float:
    """Advance the actuator one sample with demanded pressure, return the angle.

    Negative demands are clamped to 0 (vented actuator) and counted on the
    plant so the harness can flag them.
    """
    if not np.isfinite(p_demand):
        raise NumericError(f"actuator pressure must be finite, got {p_demand!r}")
    if not (0.0 < dt):
        raise InvalidSpecError("dt must be positive")
    if p_demand < 0.0:
        p_demand = 0.0
        plant.clamp_events += 1
    target = plant.hysteresis.step(p_demand)
    plant.angle_state += (dt / plant.lag_time_constant) * (target - plant.angle_state)
    lo, hi = plant.output_bounds
    plant.angle_state = float(min(max(plant.angle_state, lo), hi))
    return plant.angle_state


@dataclass
class ReservoirPlant:
    """Sensing reservoir: input pressure (kPa) to internal pressure (kPa).

    Pre-pressurized to ``baseline_pressure``; the play stack adds the
    hysteretic response of the fabric-constrained chamber on top.
    """

    hysteresis: PlayOperatorStack
    lag_time_constant: float = 0.05
    baseline_pressure: float = 100.0
    pressure: float = None
    input_limit: float = INPUT_PRESSURE_LIMIT
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

    @classmethod
    def default(cls, n_ops: int = 8, input_range: float = INPUT_PRESSURE_LIMIT,
                pressure_span: float = 250.0, radius_span: float | None = None,
                baseline_pressure: float = 100.0,
                lag_time_constant: float = 0.05) -> "ReservoirPlant":
        stack = PlayOperatorStack.uniform(n_ops, input_range, pressure_span, radius_span,
                                          input_unit="kPa", output_unit="kPa")
        return cls(hysteresis=stack, lag_time_constant=lag_time_constant,
                   baseline_pressure=baseline_pressure, input_limit=input_range)


def reservoir_step(res: ReservoirPlant, p_in: float, dt: float) -> float:
    """Advance the reservoir one sample with input pressure, return P_o.

    The input is clamped to [0, input_limit] (clamp events are counted on
    the reservoir); the output pressure never drops below zero.
    """
    if not np.isfinite(p_in):
        raise NumericError(f"reservoir input pressure must be finite, got {p_in!r}")
    if not (0.0 < dt):
        raise InvalidSpecError("dt must be positive")
    clamped = min(max(p_in, 0.0), res.input_limit)
    if clamped != p_in:
        res.clamp_events += 1
    target = res.baseline_pressure + res.hysteresis.step(clamped)
    res.pressure += (dt / res.lag_time_constant) * (target - res.pressure)
    res.pressure = float(max(res.pressure, 0.0))
    return res.pressure


@dataclass(frozen=True)
class DisturbanceSpec:
    """Random perturbation applied to the reservoir inside a time window."""

    window: tuple = (10.0, 25.0)
    mode: str = "additive-pressure"
    magnitude: float = 8.0
    seed: int = 123

    def __post_init__(self):
        if self.mode not in DISTURBANCE_MODES:
            raise InvalidSpecError(f"unknown disturbance mode {self.mode!r}, "
                                   f"expected one of {DISTURBANCE_MODES}")
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))
        if self.window[0] >= self.window[1]:
            raise InvalidSpecError("disturbance window must satisfy t_start < t_end")
        if self.magnitude < 0.0:
            raise InvalidSpecError("disturbance magnitude must be non-negative")


def apply_disturbance(res: ReservoirPlant, spec: DisturbanceSpec, t: float,
                      rng: np.random.Generator) -> bool:
    """Perturb the reservoir if t falls inside the disturbance window.

    Returns True when a perturbation was applied. Outside the window the
    reservoir is untouched and no random numbers are drawn, so the draw
    sequence is reproducible for a fixed seed.
    """
    if not (spec.window[0] <= t < spec.window[1]):
        return False
    if spec.mode == "additive-pressure":
        res.pressure = float(max(res.pressure + rng.uniform(-spec.magnitude, spec.magnitude), 0.0))
    else:  # state-kick
        stack = res.hysteresis
        kicks = rng.uniform(-spec.magnitude, spec.magnitude, stack.states.size)
        kicked = stack.states + kicks
        # keep each operator inside its play band around the last input
        lo = stack.last_input - stack.radii
        hi = stack.last_input + stack.radii
        stack.states = np.minimum(np.maximum(kicked, lo), hi)
    return True
