"""Closed- and open-loop tracking simulation at a fixed sample rate.

The feedforward pressure for the whole reference is computed before the
loop; per tick the harness then reads the plant angle, forms the error,
adds the PD correction, and drives the plant with the clamped total
pressure. Everything is logged so runs can be replayed and compared.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionError, InvalidDataError, InvalidSpecError,
                     NumericError)
from .plant import INPUT_PRESSURE_LIMIT, DisturbanceSpec, Plant, plant_step
from .signals import TimeSeries, read_csv, write_csv

# run-log CSV columns in file order, each mapped to the RunLog attribute it holds
RUN_LOG_COLUMNS = {"t_s": "t", "theta_d_deg": "theta_d", "theta_deg": "theta",
                   "e_theta_deg": "e_theta", "p_ff_kpa": "p_ff", "p_fb_kpa": "p_fb",
                   "p_d_kpa": "p_d", "p_i_kpa": "p_i", "p_o_kpa": "p_o",
                   "p_o_filt_kpa": "p_o_filt", "disturbed": "disturbed"}

SCENARIO_NAMES = ("sine02", "sine05", "chirp", "complex", "disturbance")
METHOD_NAMES = ("fprc", "fprc+pd", "pd")
REPORT_SCENARIOS = ("sine02", "sine05", "chirp", "complex")
# startup transient left out of the clean window of the disturbance scenario
SETTLE_TIME_S = 2.0


@dataclass(frozen=True)
class ControllerGains:
    """PD gains on the pressure command.

    Scaled to the surrogate plant's DC gain (~0.16 deg/kPa) so a pure PD
    baseline tracks with visible lag rather than stalling near rest.
    """

    pd_kp: float = 20.0
    pd_kd: float = 0.2


def pd_step(error: float, prev_error: float | None, gains: ControllerGains, dt: float) -> float:
    """PD law kp * e + kd * (e - e_prev) / dt, backward-difference derivative.

    On the first tick (prev_error None) the derivative term is zero.
    """
    if not (dt > 0.0):
        raise InvalidSpecError("dt must be positive")
    if prev_error is None:
        return gains.pd_kp * error
    return gains.pd_kp * error + gains.pd_kd * (error - prev_error) / dt


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
        """A column by its CSV name or its attribute name."""
        key = RUN_LOG_COLUMNS.get(name, name)
        if key not in RUN_LOG_COLUMNS.values():
            raise InvalidDataError(f"unknown run log column {name!r}")
        return getattr(self, key)

    def tracking_rmse(self) -> float:
        return float(np.sqrt(np.mean(self.e_theta ** 2)))

    def to_csv(self, path) -> None:
        write_run_logs([path], [self])

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        cols = read_csv(path, ",".join(RUN_LOG_COLUMNS))
        return cls(**{key: cols[:, j] for j, key in enumerate(RUN_LOG_COLUMNS.values())})


def write_run_logs(paths, logs) -> None:
    """Write each log to its path as ``RunLog.to_csv`` would, all in one pass.

    The logs must have one length. A scenario's runs share the clock and
    the reference, and its fprc runs share the feedforward columns, so
    writing them together turns each shared block of values into strings
    once.
    """
    write_csv([(path, ",".join(RUN_LOG_COLUMNS), [
                   log.disturbed.astype(int) if key == "disturbed" else getattr(log, key)
                   for key in RUN_LOG_COLUMNS.values()])
               for path, log in zip(paths, logs, strict=True)])


def run_closed_loop(reference: TimeSeries, model, actuator: Plant,
                    gains: ControllerGains, feedback: bool = True,
                    disturbance: DisturbanceSpec | None = None,
                    scenario: str = "", method: str = "") -> RunLog:
    """Simulate one tracking run and return its log.

    ``model`` is a feedforward function, or None for pure feedback. It never
    reads the plant angle, so one call ``model(theta_d, dt, disturbance)``
    before the tick loop returns the arrays (p_ff, p_i, p_o, p_o_filt,
    disturbed) for the whole reference; a reservoir-backed model applies
    ``disturbance`` to its reservoir there. The loop runs PD, the pressure
    clamp and the actuator. The logged angle is the measurement available
    at the tick, so e_theta = theta_d - theta holds row by row; the
    commanded pressure p_d = p_ff + p_fb is logged unclamped and clamp
    events are counted.
    """
    if model is None and not feedback:
        raise InvalidSpecError("need a feedforward model, feedback, or both")
    dt = reference.dt
    n = len(reference)
    if model is None:
        ff = [np.zeros(n) for _ in range(5)]
    else:
        ff = [np.array(c, dtype=float) for c in model(reference.values, dt, disturbance)]
        if len(ff) != 5 or any(c.shape != (n,) for c in ff):
            raise DimensionError(f"feedforward must return 5 columns of {n} samples")
    p_ff, p_i, p_o, p_o_filt, disturbed = ff
    cols = {name: [] for name in ("theta", "e_theta", "p_fb", "p_d")}
    prev_error = None
    clamp_steps = 0
    for k, (theta_d, p_ff_k) in enumerate(zip(reference.values.tolist(), p_ff.tolist())):
        theta = actuator.output
        error = theta_d - theta
        p_fb = pd_step(error, prev_error, gains, dt) if feedback else 0.0
        p_d = p_ff_k + p_fb
        applied = min(max(p_d, 0.0), INPUT_PRESSURE_LIMIT)
        if applied != p_d:
            clamp_steps += 1
        theta_next = plant_step(actuator, applied, dt)
        if not (math.isfinite(p_ff_k) and math.isfinite(theta_next)):
            raise NumericError(f"run diverged at step {k} (t={k * dt:.3f} s)")
        cols["theta"].append(theta)
        cols["e_theta"].append(error)
        cols["p_fb"].append(p_fb)
        cols["p_d"].append(p_d)
        prev_error = error
    cols = {name: np.array(values, dtype=float) for name, values in cols.items()}
    return RunLog(t=reference.times, theta_d=reference.values.copy(), p_ff=p_ff,
                  p_i=p_i, p_o=p_o, p_o_filt=p_o_filt, disturbed=disturbed,
                  scenario=scenario, method=method, clamp_steps=clamp_steps, **cols)


def run_open_loop(reference: TimeSeries, model, actuator: Plant,
                  gains: ControllerGains, disturbance: DisturbanceSpec | None = None,
                  scenario: str = "", method: str = "") -> RunLog:
    """Feedforward-only run: P_fb is identically zero."""
    if model is None:
        raise InvalidSpecError("open-loop run needs a feedforward model")
    return run_closed_loop(reference, model, actuator, gains, feedback=False,
                           disturbance=disturbance, scenario=scenario, method=method)


def shoelace_area(x: np.ndarray, y: np.ndarray) -> float:
    """Absolute enclosed (signed, then magnitude) area of a closed polygon."""
    if x.size != y.size or x.size < 3:
        raise InvalidDataError("polygon needs at least 3 matching points")
    return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def extract_hysteresis_loop(log: RunLog, x_column: str, y_column: str,
                            period_steps: int | None = None) -> tuple[np.ndarray, float]:
    """Pull the last, steadiest cycle from a run and measure its enclosed area.

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
    points = np.column_stack([x[-period_steps:], y[-period_steps:]])
    return points, shoelace_area(points[:, 0], points[:, 1])


def tracking_report(rmse: dict) -> dict:
    """Tracking RMSE table: method rows by scenario columns.

    ``rmse`` maps (method, scenario) to the tracking RMSE of that run.
    Missing cells are NaN.
    """
    return {method: {scenario: rmse.get((method, scenario), float("nan"))
                     for scenario in REPORT_SCENARIOS}
            for method in METHOD_NAMES}


def disturbance_windows(t: np.ndarray, window: tuple):
    """Masks (clean, disturbed) over the sample times ``t``.

    The clean window runs from ``SETTLE_TIME_S`` (startup transient skipped)
    up to the disturbance onset; the disturbed window is ``window`` itself.
    Both windows must contain samples.
    """
    clean = (t >= SETTLE_TIME_S) & (t < window[0])
    dist = (t >= window[0]) & (t < window[1])
    if not np.any(clean) or not np.any(dist):
        raise InvalidDataError("run does not cover both the clean and disturbed windows")
    return clean, dist


def disturbance_window_rmse(log: RunLog, window: tuple) -> dict:
    """Tracking RMSE inside the disturbance window vs. the clean window,
    as ``disturbance_windows`` delimits them."""
    clean, dist = disturbance_windows(log.t, window)
    return {
        "clean_rmse": float(np.sqrt(np.mean(log.e_theta[clean] ** 2))),
        "disturbed_rmse": float(np.sqrt(np.mean(log.e_theta[dist] ** 2))),
        "n_perturbed_steps": int(np.sum(log.disturbed > 0)),
    }


def report_to_csv(table: dict, path) -> None:
    write_csv([(path, "method," + ",".join(REPORT_SCENARIOS),
                [list(METHOD_NAMES)] + [[table[m][s] for m in METHOD_NAMES]
                                        for s in REPORT_SCENARIOS])])
