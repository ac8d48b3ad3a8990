"""Echo state network baseline.

A leaky tanh reservoir driven by the desired angle; the readout acts on
the extended state [1, recent angle taps, reservoir state] and is the only
trained part. Weight matrices are drawn once from a seeded generator and
then frozen.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InvalidDataError, InvalidSpecError, NumericError,
                     ResourceError, StateError, decoding)
from .training import ridge_solve

WEIGHT_DISTRIBUTIONS = ("uniform", "uniform-sym", "normal")

# refuse reservoirs whose dense recurrent matrix would exceed this budget
_MAX_RESERVOIR_BYTES = 4 * 1024 ** 3


@dataclass(frozen=True)
class EsnParams:
    """Reservoir hyperparameters. Defaults match the benchmarked setup."""

    reservoir_size: int = 800
    input_scaling: float = 0.02
    leak_rate: float = 0.8
    spectral_radius: float = 0.4
    washout: int = 100
    n_y: int = 5
    weight_distribution: str = "uniform"
    seed: int = 0

    def __post_init__(self):
        if self.reservoir_size < 1:
            raise InvalidSpecError("reservoir_size must be >= 1")
        if not (0.0 <= self.leak_rate <= 1.0):
            raise InvalidSpecError("leak_rate must lie in [0, 1]")
        if not (0.0 < self.spectral_radius < 1.0):
            raise InvalidSpecError("spectral_radius must lie in (0, 1)")
        if self.washout < 0:
            raise InvalidSpecError("washout must be non-negative")
        if self.n_y < 1:
            raise InvalidSpecError("n_y must be >= 1")
        if self.weight_distribution not in WEIGHT_DISTRIBUTIONS:
            raise InvalidSpecError(f"weight_distribution must be one of {WEIGHT_DISTRIBUTIONS}")

    def replace(self, **kw) -> "EsnParams":
        return replace(self, **kw)


def spectral_radius_power_iteration(w: np.ndarray, tol: float = 1e-8,
                                    max_iter: int = 10_000) -> float:
    """Largest absolute eigenvalue estimated by power iteration.

    Avoids a full eigendecomposition for the large recurrent matrix. If
    the iteration has not converged within max_iter (possible when the
    dominant eigenvalue is complex), falls back to the exact spectrum.
    """
    n = w.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = 0.0
    for _ in range(max_iter):
        wv = w @ v
        lam = float(np.linalg.norm(wv))
        if lam == 0.0:
            return 0.0
        v = wv / lam
        if abs(lam - lam_prev) <= tol * lam:
            return lam
        lam_prev = lam
    return float(np.max(np.abs(np.linalg.eigvals(w))))


@dataclass
class EsnModel:
    params: EsnParams
    w_input: np.ndarray
    w_reservoir: np.ndarray
    state: np.ndarray
    w_out: np.ndarray | None = None

    @property
    def extended_dim(self) -> int:
        return 1 + self.params.n_y + self.params.reservoir_size

    def cold_copy(self) -> "EsnModel":
        """The same frozen weights and readout with a zero reservoir state."""
        return EsnModel(params=self.params, w_input=self.w_input,
                        w_reservoir=self.w_reservoir,
                        state=np.zeros(self.params.reservoir_size), w_out=self.w_out)


def esn_init(params: EsnParams) -> EsnModel:
    """Draw the frozen input and recurrent weights and scale the spectrum.

    Entries come from the configured distribution (uniform on (0, 1) by
    default); the recurrent matrix is rescaled so its spectral radius
    equals ``params.spectral_radius``.
    """
    r = params.reservoir_size
    if r * r * 8 > _MAX_RESERVOIR_BYTES:
        raise ResourceError(f"reservoir_size {r} needs more than "
                            f"{_MAX_RESERVOIR_BYTES // 1024 ** 3} GiB for its recurrent matrix")
    rng = np.random.default_rng(params.seed)
    if params.weight_distribution == "uniform":
        w_in = rng.uniform(0.0, 1.0, r)
        w_res = rng.uniform(0.0, 1.0, (r, r))
    elif params.weight_distribution == "uniform-sym":
        w_in = rng.uniform(-1.0, 1.0, r)
        w_res = rng.uniform(-1.0, 1.0, (r, r))
    else:
        w_in = rng.standard_normal(r)
        w_res = rng.standard_normal((r, r))
    w_in = w_in * params.input_scaling
    radius = spectral_radius_power_iteration(w_res)
    if radius == 0.0:
        raise NumericError("drawn recurrent matrix has zero spectral radius")
    w_res *= params.spectral_radius / radius
    return EsnModel(params=params, w_input=w_in, w_reservoir=w_res, state=np.zeros(r))


def esn_update(model: EsnModel, theta_d: float) -> np.ndarray:
    """x <- leak * x + (1 - leak) * tanh(w_in theta_d + W x), in place."""
    if not np.isfinite(theta_d):
        raise NumericError(f"ESN input must be finite, got {theta_d!r}")
    g = model.params.leak_rate
    pre = model.w_input * theta_d + model.w_reservoir @ model.state
    model.state = g * model.state + (1.0 - g) * np.tanh(pre)
    return model.state


def esn_collect_states(model: EsnModel, theta_series) -> np.ndarray:
    """Run the reservoir over an angle record and stack extended states.

    Row k is the extended state [1, theta taps, reservoir state]: the taps
    end at theta(k), zero padded at the start, and the reservoir state
    accumulates samples 0..k-1; the update with theta(k) happens after the
    row is emitted. Every sample gives a row; callers drop the first
    ``washout`` rows where the state has not yet forgotten its
    initialization. The model state is left at its final value.
    """
    theta = np.asarray(theta_series, dtype=float)
    if theta.ndim != 1:
        raise InvalidDataError("theta_series must be 1-D")
    n_y = model.params.n_y
    taps = np.zeros(n_y)
    rows = np.empty((theta.size, model.extended_dim))
    for k in range(theta.size):
        taps[1:] = taps[:-1]
        taps[0] = theta[k]
        rows[k, 0] = 1.0
        rows[k, 1:1 + n_y] = taps
        rows[k, 1 + n_y:] = model.state
        esn_update(model, theta[k])
    return rows


def _check_washout(n: int, washout: int) -> None:
    if n <= washout:
        raise InvalidDataError(f"series of length {n} leaves no rows after washout {washout}")


class EsnTrainer:
    """Draws the frozen reservoir once, then fits the readout per fold."""

    kind = "esn"

    def __init__(self, params: EsnParams, alpha: float = 1e-3):
        self.params = params
        self.alpha = alpha
        self._template = esn_init(params)

    def fit(self, segments, fold: int = 0) -> "TrainedEsn":
        if not segments:
            raise InvalidDataError("no training segments given")
        washout = self.params.washout
        xs, ys = [], []
        for seg in segments:
            _check_washout(len(seg), washout)
            xs.append(esn_collect_states(self._template.cold_copy(), seg.theta)[washout:])
            ys.append(seg.p_exp[washout:])
        X = np.vstack(xs)
        y = np.concatenate(ys)
        fitted = self._template.cold_copy()
        fitted.w_out = ridge_solve(X, y, self.alpha)
        return TrainedEsn(fitted)


class TrainedEsn:
    """Fitted ESN with dataset evaluation and artifact round trip."""

    kind = "esn"

    def __init__(self, model: EsnModel):
        if model.w_out is None:
            raise StateError("model has no trained readout")
        self.model = model

    def _replay(self, theta) -> np.ndarray:
        """Readout over an angle record from a cold state, one value per sample."""
        return esn_collect_states(self.model.cold_copy(), theta) @ self.model.w_out

    def evaluate(self, ds) -> tuple[np.ndarray, np.ndarray]:
        """Replay a dataset from a cold state; rows before washout are
        dropped from both prediction and target."""
        washout = self.model.params.washout
        _check_washout(len(ds), washout)
        return self._replay(ds.theta)[washout:], ds.p_exp[washout:]

    def feedforward(self) -> "TrainedEsn":
        """The trained ESN drives tracking runs itself; it keeps no state
        from one run to the next."""
        return self

    def run(self, theta_d, dt: float, disturbance=None):
        """Feedforward signals for a whole reference angle record.

        Returns the arrays (p_ff, p_i, p_o, p_o_filt, disturbed); the ESN
        has no physical reservoir, so the last four are zero.
        """
        p_ff = self._replay(theta_d)
        zeros = np.zeros(p_ff.size)
        return p_ff, zeros, zeros, zeros, zeros

    def save(self, path) -> None:
        p = self.model.params
        meta = np.array([p.reservoir_size, p.input_scaling, p.leak_rate, p.spectral_radius,
                         p.washout, p.n_y, WEIGHT_DISTRIBUTIONS.index(p.weight_distribution),
                         p.seed], dtype=float)
        np.savez(path, format_version=np.array([1]), meta=meta,
                 w_input=self.model.w_input, w_reservoir=self.model.w_reservoir,
                 w_out=self.model.w_out)

    @classmethod
    def load(cls, path) -> "TrainedEsn":
        with decoding(path), np.load(path) as data:
            if "format_version" not in data or int(data["format_version"][0]) != 1:
                raise InvalidDataError(f"{path}: unsupported ESN artifact format")
            meta = data["meta"]
            params = EsnParams(reservoir_size=int(meta[0]), input_scaling=float(meta[1]),
                               leak_rate=float(meta[2]), spectral_radius=float(meta[3]),
                               washout=int(meta[4]), n_y=int(meta[5]),
                               weight_distribution=WEIGHT_DISTRIBUTIONS[int(meta[6])],
                               seed=int(meta[7]))
            model = EsnModel(params=params, w_input=data["w_input"],
                             w_reservoir=data["w_reservoir"],
                             state=np.zeros(params.reservoir_size), w_out=data["w_out"])
        return cls(model)
