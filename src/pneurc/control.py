"""Closed- and open-loop tracking simulation at a fixed sample rate.

The feedforward pressure for the whole reference is computed before the
loop; per tick the harness then reads the plant angle, forms the error,
adds the PD correction, and drives the plant with the clamped total
pressure. Everything is logged so runs can be replayed and compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionError, InvalidDataError, InvalidSpecError,
                     NumericError)
from .plant import (INPUT_PRESSURE_LIMIT, ActuatorPlant, DisturbanceSpec,
                    actuator_step)
from .signals import TimeSeries, format_float

RUN_LOG_COLUMNS = ("t_s", "theta_d_deg", "theta_deg", "e_theta_deg", "p_ff_kpa",
                   "p_fb_kpa", "p_d_kpa", "p_i_kpa", "p_o_kpa", "p_o_filt_kpa",
                   "disturbed")

SCENARIO_NAMES = ("sine02", "sine05", "chirp", "complex", "disturbance")
METHOD_NAMES = ("fprc", "fprc+pd", "pd")
REPORT_SCENARIOS = ("sine02", "sine05", "chirp", "complex")


@dataclass(frozen=True)
class PdGains:
    kp: float = 20.0
    kd: float = 0.2


@dataclass(frozen=True)
class PiGains:
    kp: float = 0.03
    ki: float = 0.1e-5


@dataclass(frozen=True)
class ControllerGains:
    pd: PdGains = field(default_factory=PdGains)
    pi_main: PiGains = field(default_factory=PiGains)
    pi_fprc: PiGains = field(default_factory=lambda: PiGains(kp=0.05, ki=0.1e-5))
    pi_ideal: bool = True


def pd_step(error: float, prev_error: float | None, gains: PdGains, dt: float) -> float:
    """PD law kp * e + kd * (e - e_prev) / dt, backward-difference derivative.

    On the first tick (prev_error None) the derivative term is zero.
    """
    if not (dt > 0.0):
        raise InvalidSpecError("dt must be positive")
    if prev_error is None:
        return gains.kp * error
    return gains.kp * error + gains.kd * (error - prev_error) / dt


def pi_pressure_step(p_target: float, p_actual: float, integ: float, gains: PiGains,
                     dt: float, ideal: bool = True,
                     integ_limit: float = 1e6) -> tuple[float, float]:
    """Inner pressure-regulation loop, one tick.

    In ideal mode the valve tracks perfectly: the command equals the
    target pressure and the integrator is untouched. In dynamic mode the
    PI law returns a valve command with an anti-windup clamp on the
    integral state. Returns (command, new_integ).
    """
    if not (dt > 0.0):
        raise InvalidSpecError("dt must be positive")
    if ideal:
        return p_target, integ
    err = p_target - p_actual
    integ = float(min(max(integ + err * dt, -integ_limit), integ_limit))
    return gains.kp * err + gains.ki * integ, integ


@dataclass
class RunLog:
    """Column store of one simulated run plus summary metadata."""

    t: np.ndarray
    theta_d: np.ndarray
    theta: np.ndarray
    e_theta: np.ndarray
    p_ff: np.ndarray
    p_fb: np.ndarray
    p_d: np.ndarray
    p_i: np.ndarray
    p_o: np.ndarray
    p_o_filt: np.ndarray
    disturbed: np.ndarray
    scenario: str = ""
    method: str = ""
    clamp_steps: int = 0

    def __len__(self) -> int:
        return self.t.size

    def column(self, name: str) -> np.ndarray:
        key = {"t_s": "t", "theta_d_deg": "theta_d", "theta_deg": "theta",
               "e_theta_deg": "e_theta", "p_ff_kpa": "p_ff", "p_fb_kpa": "p_fb",
               "p_d_kpa": "p_d", "p_i_kpa": "p_i", "p_o_kpa": "p_o",
               "p_o_filt_kpa": "p_o_filt", "disturbed": "disturbed"}.get(name, name)
        if not hasattr(self, key):
            raise InvalidDataError(f"unknown run log column {name!r}")
        return getattr(self, key)

    def tracking_rmse(self) -> float:
        return float(np.sqrt(np.mean(self.e_theta ** 2)))

    def to_csv(self, path) -> None:
        lines = [",".join(RUN_LOG_COLUMNS)]
        for k in range(len(self)):
            vals = (self.t[k], self.theta_d[k], self.theta[k], self.e_theta[k],
                    self.p_ff[k], self.p_fb[k], self.p_d[k], self.p_i[k],
                    self.p_o[k], self.p_o_filt[k])
            lines.append(",".join(format_float(v) for v in vals)
                         + f",{int(self.disturbed[k])}")
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != ",".join(RUN_LOG_COLUMNS):
            raise InvalidDataError(f"{path}: bad run log header")
        n = len(lines) - 1
        cols = np.empty((n, len(RUN_LOG_COLUMNS)))
        for i, ln in enumerate(lines[1:]):
            parts = ln.split(",")
            if len(parts) != len(RUN_LOG_COLUMNS):
                raise InvalidDataError(f"{path}:{i + 2}: wrong column count")
            cols[i] = [float(p) for p in parts]
        return cls(t=cols[:, 0], theta_d=cols[:, 1], theta=cols[:, 2], e_theta=cols[:, 3],
                   p_ff=cols[:, 4], p_fb=cols[:, 5], p_d=cols[:, 6], p_i=cols[:, 7],
                   p_o=cols[:, 8], p_o_filt=cols[:, 9], disturbed=cols[:, 10])


def run_closed_loop(reference: TimeSeries, model, actuator: ActuatorPlant,
                    gains: ControllerGains, feedback: bool = True,
                    disturbance: DisturbanceSpec | None = None,
                    pressure_limit: float = INPUT_PRESSURE_LIMIT,
                    scenario: str = "", method: str = "") -> RunLog:
    """Simulate one tracking run and return its log.

    ``model`` is a feedforward object, or None for pure feedback. It never
    reads the plant angle, so one call ``model.run(theta_d, dt, disturbance)``
    before the tick loop returns the arrays (p_ff, p_i, p_o, p_o_filt,
    disturbed) for the whole reference; a reservoir-backed model applies
    ``disturbance`` to its reservoir there. The loop runs PD, the pressure
    clamp and the actuator. The logged angle is the measurement available
    at the tick, so e_theta = theta_d - theta holds row by row; the
    commanded pressure p_d = p_ff + p_fb is logged unclamped and clamp
    events are counted.
    """
    if reference.unit != "deg":
        raise InvalidSpecError(f"reference must be an angle in deg, got {reference.unit!r}")
    if model is None and not feedback:
        raise InvalidSpecError("need a feedforward model, feedback, or both")
    dt = reference.dt
    n = len(reference)
    if model is None:
        ff = [np.zeros(n) for _ in range(5)]
    else:
        ff = [np.array(c, dtype=float) for c in model.run(reference.values, dt, disturbance)]
        if len(ff) != 5 or any(c.shape != (n,) for c in ff):
            raise DimensionError(f"feedforward must return 5 columns of {n} samples")
    p_ff, p_i, p_o, p_o_filt, disturbed = ff
    cols = {name: np.empty(n) for name in ("theta", "e_theta", "p_fb", "p_d")}
    theta_d = reference.values.tolist()
    p_ff_k = p_ff.tolist()
    prev_error = None
    clamp_steps = 0
    for k in range(n):
        theta = actuator.angle_state
        error = theta_d[k] - theta
        p_fb = pd_step(error, prev_error, gains.pd, dt) if feedback else 0.0
        p_d = p_ff_k[k] + p_fb
        applied = min(max(p_d, 0.0), pressure_limit)
        if applied != p_d:
            clamp_steps += 1
        theta_next = actuator_step(actuator, applied, dt)
        if not (math.isfinite(p_ff_k[k]) and math.isfinite(theta_next)):
            raise NumericError(f"run diverged at step {k} (t={k * dt:.3f} s)")
        cols["theta"][k] = theta
        cols["e_theta"][k] = error
        cols["p_fb"][k] = p_fb
        cols["p_d"][k] = p_d
        prev_error = error
    return RunLog(t=np.arange(n) * dt, theta_d=reference.values.copy(), p_ff=p_ff,
                  p_i=p_i, p_o=p_o, p_o_filt=p_o_filt, disturbed=disturbed,
                  scenario=scenario, method=method, clamp_steps=clamp_steps, **cols)


def run_open_loop(reference: TimeSeries, model, actuator: ActuatorPlant,
                  gains: ControllerGains, disturbance: DisturbanceSpec | None = None,
                  pressure_limit: float = INPUT_PRESSURE_LIMIT,
                  scenario: str = "", method: str = "") -> RunLog:
    """Feedforward-only run: P_fb is identically zero."""
    if model is None:
        raise InvalidSpecError("open-loop run needs a feedforward model")
    return run_closed_loop(reference, model, actuator, gains, feedback=False,
                           disturbance=disturbance, pressure_limit=pressure_limit,
                           scenario=scenario, method=method)


def shoelace_area(x: np.ndarray, y: np.ndarray) -> float:
    """Absolute enclosed (signed, then magnitude) area of a closed polygon."""
    if x.size != y.size or x.size < 3:
        raise InvalidDataError("polygon needs at least 3 matching points")
    return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def extract_hysteresis_loop(log: RunLog, x_column: str, y_column: str,
                            period_steps: int | None = None,
                            cycle: str = "last") -> tuple[np.ndarray, float]:
    """Pull one steady cycle from a run and measure its enclosed area.

    ``period_steps`` selects the cycle length in samples; None treats the
    whole run as one closed cycle (for non-periodic references that return
    to their start). Returns (points, area) with points shaped (n, 2).
    """
    if len(log) == 0:
        raise InvalidDataError("run log is empty")
    x = log.column(x_column)
    y = log.column(y_column)
    if period_steps is None:
        period_steps = len(log)
    if period_steps < 3:
        raise InvalidSpecError("period_steps must be at least 3 samples")
    if period_steps > len(log):
        raise InvalidDataError(f"run of {len(log)} samples holds no full "
                               f"{period_steps}-sample cycle")
    if cycle == "last":
        sl = slice(len(log) - period_steps, len(log))
    elif cycle == "first":
        sl = slice(0, period_steps)
    else:
        raise InvalidSpecError("cycle must be 'first' or 'last'")
    points = np.column_stack([x[sl], y[sl]])
    return points, shoelace_area(points[:, 0], points[:, 1])


def tracking_report(logs: dict) -> dict:
    """Tracking RMSE table: method rows by scenario columns.

    ``logs`` maps (method, scenario) to RunLog. Missing cells are NaN.
    """
    table = {}
    for method in METHOD_NAMES:
        row = {}
        for scenario in REPORT_SCENARIOS:
            log = logs.get((method, scenario))
            row[scenario] = log.tracking_rmse() if log is not None else float("nan")
        table[method] = row
    return table


def disturbance_window_rmse(log: RunLog, window: tuple, settle_time: float = 2.0) -> dict:
    """Tracking RMSE inside the disturbance window vs. the clean window.

    The clean window runs from ``settle_time`` (startup transient skipped)
    up to the disturbance onset; the disturbed window is ``window`` itself.
    Both windows must contain samples.
    """
    t = log.t
    clean = (t >= settle_time) & (t < window[0])
    dist = (t >= window[0]) & (t < window[1])
    if not np.any(clean) or not np.any(dist):
        raise InvalidDataError("run does not cover both the clean and disturbed windows")
    return {
        "clean_rmse": float(np.sqrt(np.mean(log.e_theta[clean] ** 2))),
        "disturbed_rmse": float(np.sqrt(np.mean(log.e_theta[dist] ** 2))),
        "n_perturbed_steps": int(np.sum(log.disturbed > 0)),
    }


def report_to_csv(table: dict, path) -> None:
    lines = ["method," + ",".join(REPORT_SCENARIOS)]
    for method in METHOD_NAMES:
        row = table[method]
        lines.append(method + "," + ",".join(format_float(row[s]) for s in REPORT_SCENARIOS))
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
