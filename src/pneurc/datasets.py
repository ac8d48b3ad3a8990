"""Dataset container and the open-loop identification experiment.

A dataset is one synchronized record of the identification rig: the
excitation pressure driving the actuator, the measured bend angle, and
the reservoir input and output pressures, all sampled on one clock.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDataError, InvalidSpecError
from .fprc import drive_reservoir
from .plant import Plant, drive
from .signals import TimeSeries, csv_line, format_float, read_csv, write_csv

CSV_HEADER = "t_s,theta_deg,p_exp_kpa,p_i_kpa,p_o_kpa"

# relative deviation of a t_s value from t_0 + k * dt that load_csv accepts
_TIME_RTOL = 1e-6


@dataclass
class Dataset:
    theta: np.ndarray
    p_exp: np.ndarray
    p_i: np.ndarray
    p_o: np.ndarray
    dt: float

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in
                  (self.theta, self.p_exp, self.p_i, self.p_o)]
        n = arrays[0].size
        if any(a.ndim != 1 or a.size != n for a in arrays):
            raise InvalidDataError("all dataset columns must be 1-D with equal length")
        if n == 0:
            raise InvalidDataError("dataset is empty")
        if not (self.dt > 0.0):
            raise InvalidSpecError("dt must be positive")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise InvalidDataError("dataset columns must be finite")
        self.theta, self.p_exp, self.p_i, self.p_o = arrays

    def __len__(self) -> int:
        return self.theta.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self), dtype=float) * self.dt

    def slice(self, lo: int, hi: int) -> "Dataset":
        if not (0 <= lo < hi <= len(self)):
            raise InvalidDataError(f"slice [{lo}, {hi}) out of range for {len(self)} rows")
        return Dataset(self.theta[lo:hi], self.p_exp[lo:hi],
                       self.p_i[lo:hi], self.p_o[lo:hi], self.dt)

    def save_csv(self, path) -> None:
        write_csv([(path, CSV_HEADER, (self.times, self.theta, self.p_exp, self.p_i, self.p_o))])

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        cols = read_csv(path, CSV_HEADER)
        n = len(cols)
        if n < 2:
            raise InvalidDataError(f"{path}: need at least 2 data rows")
        t = cols[:, 0]
        dt = float(t[1] - t[0])
        expected = t[0] + np.arange(n) * dt
        tol = _TIME_RTOL * np.maximum(np.abs(expected), dt)
        bad = np.flatnonzero(~(np.abs(t - expected) <= tol))  # NaN times are bad too
        if bad.size:
            k = int(bad[0])
            raise InvalidDataError(f"{path}:{csv_line(path, k)}: t_s={format_float(t[k])} is off "
                                   f"the uniform clock t_0 + k*dt = {format_float(expected[k])}")
        return cls(theta=cols[:, 1], p_exp=cols[:, 2], p_i=cols[:, 3],
                   p_o=cols[:, 4], dt=dt)


def generate_dataset(excitation: TimeSeries, actuator: Plant, reservoir: Plant,
                     k_in: float) -> Dataset:
    """Run the identification experiment for one excitation record.

    Per sample: the actuator is pressurized with P_exp and its angle
    measured; the measured angle record then drives the reservoir through
    the same conversion the feedforward uses, and the reservoir response
    is recorded. All columns share the sample clock of the excitation.
    """
    dt = excitation.dt
    theta, _ = drive(actuator, excitation.values, dt)
    p_i, p_o, _ = drive_reservoir(theta, reservoir, k_in, dt)
    return Dataset(theta=theta, p_exp=excitation.values.copy(), p_i=p_i, p_o=p_o, dt=dt)
