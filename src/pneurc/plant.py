"""Hysteretic plant surrogates.

A stack of weighted play (backlash) operators provides rate-independent
hysteresis with memory; a first-order lag on top gives each device its
time response. The rig uses this one device twice, with different
constants: the pneumatic bending actuator (pressure in, bend angle out)
and the sensing reservoir (pressure in, internal pressure out). The one
disturbance is an additive random kick to a plant's output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, NumericError, check_size

INPUT_PRESSURE_LIMIT = 450.0  # kPa, supply-side hard limit

# bytes one play operator takes: its float64 array entries and the step loop's
# Python floats, tuple and list slots (a build peaks at 168 on 64-bit CPython)
OPERATOR_BYTES = 256


class PlayOperatorStack:
    """Weighted stack of play operators sharing one scalar input.

    Each operator j holds an internal state s_j updated as
    s_j' = max(u - r_j, min(u + r_j, s_j)); the stack output is the
    weighted sum of the states. Radii must be ascending with r_0 >= 0.

    Radii and weights are fixed at construction. The step loop runs on
    Python floats: on a stack of eight operators, numpy's per-call overhead
    costs more than the arithmetic. ``states`` reads and sets the states
    as an array.
    """

    def __init__(self, radii, weights, states=None):
        self.radii = np.asarray(radii, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        if self.radii.ndim != 1 or self.radii.size == 0:
            raise InvalidSpecError("radii must be a non-empty 1-D array")
        if self.weights.shape != self.radii.shape:
            raise InvalidSpecError("weights and radii must have equal length")
        if self.radii[0] < 0.0 or np.any(np.diff(self.radii) < 0.0):
            raise InvalidSpecError("radii must be ascending with radii[0] >= 0")
        if not np.all(np.isfinite(self.radii)) or not np.all(np.isfinite(self.weights)):
            raise InvalidSpecError("radii and weights must be finite")
        self._ops = list(zip(self.radii.tolist(), self.weights.tolist()))
        self.states = np.zeros_like(self.radii) if states is None else states

    @property
    def states(self) -> np.ndarray:
        """The operator states, as a new array."""
        return np.array(self._states)

    @states.setter
    def states(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != self.radii.shape:
            raise InvalidSpecError("states must match radii in length")
        self._states = values.tolist()

    @classmethod
    def uniform(cls, n_ops: int, input_span: float, output_span: float) -> "PlayOperatorStack":
        """Equal-weight stack with radii spread uniformly from 0 to an eighth
        of the input span, which gives loop widths proportionate to a
        pneumatic artificial muscle.

        Weights are scaled so the virgin ascending branch reaches
        ``output_span`` at ``input_span``.
        """
        if n_ops < 1:
            raise InvalidSpecError("n_ops must be >= 1")
        if input_span <= 0.0 or output_span <= 0.0:
            raise InvalidSpecError("input_span and output_span must be positive")
        check_size(n_ops * OPERATOR_BYTES // 8, f"{n_ops} play operators need more than %s")
        radii = np.linspace(0.0, input_span / 8.0, n_ops) if n_ops > 1 else np.array([0.0])
        w = output_span / float(np.sum(input_span - radii))
        return cls(radii=radii, weights=np.full(n_ops, w))

    def step(self, u: float) -> float:
        """Advance all operators with input u, return the weighted output.

        The comparisons give the same states, bit for bit, as
        ``np.maximum(u - r, np.minimum(u + r, s))``, which also keeps s on ties.
        """
        if not math.isfinite(u):
            raise NumericError(f"play stack input must be finite, got {u!r}")
        states = self._states
        y = 0.0
        for j, (r, w) in enumerate(self._ops):
            x = states[j]
            lo = u - r
            if x < lo:
                x = lo
            else:
                hi = u + r
                if x > hi:
                    x = hi
            states[j] = x
            y += w * x
        return y

    def run(self, u_sequence) -> np.ndarray:
        """Step through a whole input sequence, returning the output path."""
        return np.array([self.step(u) for u in np.asarray(u_sequence, dtype=float).tolist()])

    def copy(self) -> "PlayOperatorStack":
        return PlayOperatorStack(radii=self.radii.copy(), weights=self.weights.copy(),
                                 states=self.states)


@dataclass
class Plant:
    """One pneumatic device: input pressure (kPa) to its output.

    Both devices of the rig are this model with different constants. The
    input is clamped to [0, ``input_limit``] and each clamp is counted in
    ``clamp_events``; the play stack's output on top of ``baseline`` is the
    target that a first-order lag follows; the output is kept inside
    ``output_bounds``. It starts at ``baseline``.
    """

    hysteresis: PlayOperatorStack
    lag_time_constant: float
    output_bounds: tuple
    input_limit: float
    baseline: float
    output: float | None = None
    clamp_events: int = 0

    def __post_init__(self):
        if self.lag_time_constant <= 0.0:
            raise InvalidSpecError("lag_time_constant must be positive")
        lo, hi = self.output_bounds
        if lo >= hi:
            raise InvalidSpecError("output_bounds must be (low, high) with low < high")
        if self.input_limit <= 0.0:
            raise InvalidSpecError("input_limit must be positive")
        if self.baseline < 0.0:
            raise InvalidSpecError("baseline must be non-negative")
        self.output_bounds = (float(lo), float(hi))
        if self.output is None:
            self.output = float(self.baseline)


@dataclass(frozen=True)
class ActuatorConfig:
    """Actuator build parameters; the defaults are the benchmarked device.

    ``full_scale_pressure`` is where the virgin branch reaches ``bend_range``.
    Demands above it saturate against the output bound, mirroring how the
    physical actuator flattens out near full inflation.
    """

    n_ops: int = 8
    full_scale_pressure: float = 370.0
    bend_range: float = 60.0
    lag_time_constant: float = 0.05

    def build(self) -> Plant:
        """The bending actuator: pressure to angle (deg), no upper input clamp."""
        stack = PlayOperatorStack.uniform(self.n_ops, self.full_scale_pressure, self.bend_range)
        return Plant(hysteresis=stack, lag_time_constant=self.lag_time_constant,
                     output_bounds=(0.0, self.bend_range), input_limit=math.inf,
                     baseline=0.0)


@dataclass(frozen=True)
class ReservoirConfig:
    """Reservoir build parameters; the defaults are the benchmarked device."""

    n_ops: int = 8
    input_range: float = INPUT_PRESSURE_LIMIT
    pressure_span: float = 250.0
    baseline_pressure: float = 100.0
    lag_time_constant: float = 0.05

    def build(self) -> Plant:
        """The sensing reservoir: pressure to internal pressure (kPa).

        Pre-pressurized to ``baseline_pressure``; the play stack adds the
        hysteretic response of the fabric-constrained chamber on top.
        """
        stack = PlayOperatorStack.uniform(self.n_ops, self.input_range, self.pressure_span)
        return Plant(hysteresis=stack, lag_time_constant=self.lag_time_constant,
                     output_bounds=(0.0, math.inf), input_limit=self.input_range,
                     baseline=self.baseline_pressure)


def plant_step(plant: Plant, p_in: float, dt: float) -> float:
    """Advance the plant one sample with input pressure p_in, return its output."""
    if not math.isfinite(p_in):
        raise NumericError(f"plant input pressure must be finite, got {p_in!r}")
    if not (0.0 < dt):
        raise InvalidSpecError("dt must be positive")
    if p_in < 0.0:
        p_in = 0.0
        plant.clamp_events += 1
    elif p_in > plant.input_limit:
        p_in = plant.input_limit
        plant.clamp_events += 1
    target = plant.baseline + plant.hysteresis.step(p_in)
    out = plant.output + (dt / plant.lag_time_constant) * (target - plant.output)
    lo, hi = plant.output_bounds
    plant.output = out = lo if out < lo else (hi if out > hi else out)
    return out


@dataclass(frozen=True)
class DisturbanceSpec:
    """Random perturbation inside a time window: before each sample, an
    additive kick drawn uniformly from [-magnitude, magnitude] to the
    plant's output."""

    t_start: float = 10.0
    t_end: float = 25.0
    magnitude: float = 8.0
    seed: int = 123

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise InvalidSpecError("disturbance window must satisfy t_start < t_end")
        if not (0.0 <= self.magnitude and math.isfinite(2.0 * self.magnitude)):
            raise InvalidSpecError(f"disturbance magnitude must be non-negative, and twice it "
                                   f"(the span of a kick) finite, got {self.magnitude!r}")
        if self.seed < 0:
            raise InvalidSpecError(f"disturbance seed must be non-negative, got {self.seed}")

    @property
    def window(self) -> tuple:
        return self.t_start, self.t_end


def apply_disturbance(plant: Plant, spec: DisturbanceSpec, t: float,
                      rng: np.random.Generator) -> bool:
    """Perturb the plant if t falls inside the disturbance window.

    Returns True when a perturbation was applied. Outside the window the
    plant is untouched and no random numbers are drawn, so the draw
    sequence is reproducible for a fixed seed.
    """
    if not (spec.t_start <= t < spec.t_end):
        return False
    lo, hi = plant.output_bounds
    kicked = plant.output + rng.uniform(-spec.magnitude, spec.magnitude)
    plant.output = float(min(max(kicked, lo), hi))
    return True


def drive(plant: Plant, pressures, dt: float, disturbance: DisturbanceSpec | None = None):
    """Drive the plant open loop with one input pressure per sample.

    With a ``disturbance`` spec the plant is perturbed before each sample
    whose time k * dt falls inside the window, from a generator seeded once
    per call with ``disturbance.seed``. Returns the arrays (outputs,
    disturbed), one entry per sample; the plant is left in its final state.
    """
    pressures = np.asarray(pressures, dtype=float).tolist()
    outputs = []
    disturbed = np.zeros(len(pressures))
    rng = np.random.default_rng(disturbance.seed) if disturbance is not None else None
    for k, p in enumerate(pressures):
        if disturbance is not None:
            disturbed[k] = apply_disturbance(plant, disturbance, k * dt, rng)
        outputs.append(plant_step(plant, p, dt))
    return np.array(outputs), disturbed
