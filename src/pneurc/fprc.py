"""Feedforward pressure model built around the physical reservoir.

The desired angle is converted to reservoir input pressure, the reservoir
responds hysteretically, and the fuzzy readout maps recent angle taps plus
low-pass filtered reservoir pressure taps to the feedforward pressure.
The fuzzy-linear variant drops the reservoir taps and keeps everything
else identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np
from scipy.signal import lfilter

from .errors import (DimensionError, InvalidDataError, InvalidSpecError,
                     NumericError, decoding)
from .fuzzy import (FuzzyRuleSet, fcm_cluster, fuzzy_infer_batch,
                    train_fuzzy_readout)
from .plant import (INPUT_PRESSURE_LIMIT, DisturbanceSpec, ReservoirPlant,
                    apply_disturbance, reservoir_step)

FILTER_INIT_MODES = ("first-sample", "zero")


@dataclass(frozen=True)
class FprcParams:
    """Pipeline hyperparameters. Defaults match the benchmarked setup."""

    k_in: float = 7.0
    epsilon: float = 0.01
    n_u: int = 3
    n_y: int = 5
    n_c: int = 8
    sigma: float = 2.0
    fuzziness: float = 2.0
    alpha: float = 1e-3
    fcm_tol: float = 1e-4
    fcm_max_iter: int = 300
    input_limit: float = INPUT_PRESSURE_LIMIT
    filter_init: str = "first-sample"

    def __post_init__(self):
        if self.k_in <= 0.0:
            raise InvalidSpecError("k_in must be positive")
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidSpecError("epsilon must lie in (0, 1]")
        if self.n_u < 1 or self.n_y < 1:
            raise InvalidSpecError("n_u and n_y must be >= 1")
        if self.n_c < 1:
            raise InvalidSpecError("n_c must be >= 1")
        if self.sigma <= 0.0:
            raise InvalidSpecError("sigma must be positive")
        if self.filter_init not in FILTER_INIT_MODES:
            raise InvalidSpecError(f"filter_init must be one of {FILTER_INIT_MODES}")

    def replace(self, **kw) -> "FprcParams":
        return replace(self, **kw)


def convert_angle(theta_d: float, k_in: float,
                  limit: float = INPUT_PRESSURE_LIMIT) -> float:
    """Reservoir input pressure P_i = k_in * theta_d, clamped to [0, limit]."""
    if not np.isfinite(theta_d):
        raise NumericError(f"theta_d must be finite, got {theta_d!r}")
    return float(min(max(k_in * theta_d, 0.0), limit))


def drive_reservoir(theta, reservoir: ReservoirPlant, k_in: float, input_limit: float,
                    dt: float, disturbance: DisturbanceSpec | None = None):
    """Drive the reservoir with P_i = convert_angle(theta) one sample at a time.

    With a ``disturbance`` spec the reservoir is perturbed before each
    sample whose time k * dt falls inside the window, from a generator
    seeded once per call with ``disturbance.seed``. Returns the arrays
    (p_i, p_o, disturbed), one entry per sample; the reservoir is left in
    its final state.
    """
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    p_i = np.empty(n)
    p_o = np.empty(n)
    disturbed = np.zeros(n)
    rng = np.random.default_rng(disturbance.seed) if disturbance is not None else None
    for k in range(n):
        if disturbance is not None:
            disturbed[k] = apply_disturbance(reservoir, disturbance, k * dt, rng)
        p_i[k] = convert_angle(theta[k], k_in, input_limit)
        p_o[k] = reservoir_step(reservoir, p_i[k], dt)
    return p_i, p_o, disturbed


def _lowpass_series(p_o: np.ndarray, params: FprcParams) -> np.ndarray:
    """First-order low pass p~(k) = eps p_o(k) + (1 - eps) p~(k-1).

    The filter memory starts at the first sample (or at zero, per the
    configured init mode), so there is no startup transient by default.
    """
    eps = params.epsilon
    init = p_o[0] if params.filter_init == "first-sample" else 0.0
    zi = np.array([(1.0 - eps) * init])
    out, _ = lfilter([eps], [1.0, -(1.0 - eps)], p_o, zi=zi)
    return out


def _tap_matrix(series: np.ndarray, n_taps: int) -> np.ndarray:
    """Row k holds [v(k), v(k-1), ..., v(k-n_taps+1)], zero padded."""
    padded = np.concatenate([np.zeros(n_taps - 1), series])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_taps)
    return windows[:, ::-1]


def _feature_matrix(theta: np.ndarray, p_filt: np.ndarray | None,
                    params: FprcParams) -> np.ndarray:
    """Readout states [theta taps, filtered pressure taps], one row per sample;
    angle taps only when ``p_filt`` is None (the fuzzy-linear variant)."""
    X = _tap_matrix(theta, params.n_y)
    return X if p_filt is None else np.hstack([X, _tap_matrix(p_filt, params.n_u)])


def fprc_collect_training(theta, p_exp, p_o=None, params: FprcParams = None,
                          reservoir_features: bool = True):
    """Assemble the training design matrix and targets from a record.

    The recorded reservoir pressure ``p_o`` is required when reservoir
    features are enabled. Returns (X, y).
    """
    if params is None:
        raise InvalidSpecError("params are required")
    theta = np.asarray(theta, dtype=float)
    p_exp = np.asarray(p_exp, dtype=float)
    if theta.ndim != 1 or theta.shape != p_exp.shape:
        raise InvalidDataError("theta and p_exp must be matching 1-D arrays")
    if theta.size < 1:
        raise InvalidDataError("empty training record")
    if not reservoir_features:
        return _feature_matrix(theta, None, params), p_exp
    if p_o is None:
        raise InvalidSpecError("need the recorded reservoir pressure p_o")
    p_o = np.asarray(p_o, dtype=float)
    if p_o.shape != theta.shape:
        raise InvalidDataError("p_o must match theta in length")
    return _feature_matrix(theta, _lowpass_series(p_o, params), params), p_exp


class FprcModel:
    """Trained feedforward model: params plus the fuzzy readout.

    ``reservoir_features=False`` gives the fuzzy-linear variant (angle
    taps only, no physical reservoir in the loop).
    """

    def __init__(self, params: FprcParams, ruleset: FuzzyRuleSet,
                 reservoir_features: bool = True):
        expected = params.n_y + (params.n_u if reservoir_features else 0)
        if ruleset.state_dim != expected:
            raise DimensionError(f"ruleset state dim {ruleset.state_dim} does not match "
                                 f"the {expected} configured taps")
        self.params = params
        self.ruleset = ruleset
        self.reservoir_features = reservoir_features

    @property
    def kind(self) -> str:
        return "fprc" if self.reservoir_features else "fuzzy-linear"

    def evaluate(self, ds) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized replay of a recorded dataset (uses its stored P_o)."""
        X, y = fprc_collect_training(ds.theta, ds.p_exp, p_o=ds.p_o, params=self.params,
                                     reservoir_features=self.reservoir_features)
        return fuzzy_infer_batch(self.ruleset, X), y

    def feedforward(self, reservoir: ReservoirPlant | None = None) -> "FprcFeedforward":
        if self.reservoir_features and reservoir is None:
            raise InvalidSpecError("the reservoir-backed model needs a reservoir instance")
        return FprcFeedforward(self, reservoir)

    def save(self, path) -> None:
        doc = {
            "format_version": 1,
            "kind": self.kind,
            "params": {
                "k_in": self.params.k_in, "epsilon": self.params.epsilon,
                "n_u": self.params.n_u, "n_y": self.params.n_y,
                "n_c": self.params.n_c, "sigma": self.params.sigma,
                "fuzziness": self.params.fuzziness, "alpha": self.params.alpha,
                "fcm_tol": self.params.fcm_tol, "fcm_max_iter": self.params.fcm_max_iter,
                "input_limit": self.params.input_limit,
                "filter_init": self.params.filter_init,
            },
            "centers": self.ruleset.centers.tolist(),
            "w_out": self.ruleset.w_out.tolist(),
        }
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FprcModel":
        with decoding(path):
            with open(path, "r", encoding="ascii") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("format_version") != 1:
                raise InvalidDataError(f"{path}: unsupported model artifact format")
            params = FprcParams(**doc["params"])
            ruleset = FuzzyRuleSet(centers=np.array(doc["centers"]),
                                   w_out=np.array(doc["w_out"]),
                                   sigma=params.sigma, fuzziness=params.fuzziness)
            return cls(params, ruleset, reservoir_features=(doc["kind"] == "fprc"))


class FprcFeedforward:
    """A trained model bound to the reservoir it drives during tracking runs."""

    def __init__(self, model: FprcModel, reservoir: ReservoirPlant | None):
        self.model = model
        self.reservoir = reservoir

    @property
    def kind(self) -> str:
        return self.model.kind

    def run(self, theta_d, dt: float, disturbance: DisturbanceSpec | None = None):
        """Feedforward signals for a whole reference angle record.

        Returns the arrays (p_ff, p_i, p_o, p_o_filt, disturbed). The
        reference drives the reservoir, perturbed per ``disturbance``, and
        the readout is that of ``FprcModel.evaluate``. The fuzzy-linear
        variant has no reservoir: its other four columns are zero.
        """
        params = self.model.params
        theta_d = np.asarray(theta_d, dtype=float)
        if self.model.reservoir_features:
            p_i, p_o, disturbed = drive_reservoir(theta_d, self.reservoir, params.k_in,
                                                  params.input_limit, dt, disturbance)
            p_filt = _lowpass_series(p_o, params)
            X = _feature_matrix(theta_d, p_filt, params)
        else:
            p_i = p_o = p_filt = disturbed = np.zeros(theta_d.size)
            X = _feature_matrix(theta_d, None, params)
        return fuzzy_infer_batch(self.model.ruleset, X), p_i, p_o, p_filt, disturbed


class FprcTrainer:
    """Collects pipeline features, clusters them, and fits the readout."""

    def __init__(self, params: FprcParams, seed: int = 0, reservoir_features: bool = True):
        self.params = params
        self.seed = seed
        self.reservoir_features = reservoir_features

    @property
    def kind(self) -> str:
        return "fprc" if self.reservoir_features else "fuzzy-linear"

    def fit(self, segments, fold: int = 0) -> FprcModel:
        if not segments:
            raise InvalidDataError("no training segments given")
        xs, ys = [], []
        for seg in segments:
            X, y = fprc_collect_training(seg.theta, seg.p_exp, p_o=seg.p_o,
                                         params=self.params,
                                         reservoir_features=self.reservoir_features)
            xs.append(X)
            ys.append(y)
        X = np.vstack(xs)
        y = np.concatenate(ys)
        centers, u = fcm_cluster(X, self.params.n_c, m=self.params.fuzziness,
                                 tol=self.params.fcm_tol, max_iter=self.params.fcm_max_iter,
                                 seed=[self.seed, fold])
        w_out = train_fuzzy_readout(X, y, u, self.params.alpha)
        ruleset = FuzzyRuleSet(centers=centers, w_out=w_out, sigma=self.params.sigma,
                               fuzziness=self.params.fuzziness)
        return FprcModel(self.params, ruleset, self.reservoir_features)


def fprc_weight_analysis(theta, p_exp, p_o, params: FprcParams, seed: int = 0) -> dict:
    """Readout weight shares on min-max normalized inputs.

    The angle record and the filtered reservoir pressure are each scaled
    to [0, 1] before tap assembly so the absolute weight magnitudes of the
    two groups are comparable; the target stays in engineering units.
    """
    from .training import normalize_minmax, weight_contributions

    theta = np.asarray(theta, dtype=float)
    p_o = np.asarray(p_o, dtype=float)
    p_exp = np.asarray(p_exp, dtype=float)
    theta_n = normalize_minmax(theta)
    p_filt_n = normalize_minmax(_lowpass_series(p_o, params))
    X = _feature_matrix(theta_n, p_filt_n, params)
    centers, u = fcm_cluster(X, params.n_c, m=params.fuzziness, tol=params.fcm_tol,
                             max_iter=params.fcm_max_iter, seed=[seed, 0])
    w_out = train_fuzzy_readout(X, p_exp, u, params.alpha)
    return weight_contributions(w_out, params.n_y, params.n_u)
