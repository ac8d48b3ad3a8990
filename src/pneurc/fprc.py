"""Feedforward pressure model built around the physical reservoir.

The desired angle is converted to reservoir input pressure, the reservoir
responds hysteretically, and the fuzzy readout maps recent angle taps plus
low-pass filtered reservoir pressure taps to the feedforward pressure.
The fuzzy-linear variant drops the reservoir taps and keeps everything
else identical.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (DimensionError, InvalidDataError, InvalidSpecError,
                     NumericError, decoding)
from .fuzzy import (FCM_FUZZINESS, FCM_MAX_ITER, FCM_TOL, FuzzyRuleSet, check_sigma,
                    fcm_cluster, fuzzy_infer_batch, train_fuzzy_readout)
from .plant import DisturbanceSpec, Plant, drive
from .signals import DEFAULT_N_Y, decode, tap_matrix, write_json
from .training import Trainer, normalize_minmax, weight_contributions

# the model kinds of the variants with reservoir taps and without
FPRC_KINDS = ("fprc", "fuzzy-linear")


@dataclass(frozen=True)
class FprcConfig:
    """The pipeline hyperparameters a config sets under ``model.fprc``.

    Defaults match the benchmarked setup.
    """

    k_in: float = 7.0
    epsilon: float = 0.01
    n_u: int = 3
    n_c: int = 8
    sigma: float = 2.0
    fuzziness: float = FCM_FUZZINESS
    fcm_tol: float = FCM_TOL
    fcm_max_iter: int = FCM_MAX_ITER


@dataclass(frozen=True)
class FprcParams(FprcConfig):
    """All pipeline hyperparameters: the config's plus the angle taps and
    the ridge strength, which it sets elsewhere."""

    n_y: int = DEFAULT_N_Y
    alpha: float = 1e-3

    def __post_init__(self):
        if not (self.k_in > 0.0):
            raise InvalidSpecError("k_in must be positive")
        if not (0.0 < self.epsilon <= 1.0):
            raise InvalidSpecError("epsilon must lie in (0, 1]")
        if self.n_u < 1 or self.n_y < 1:
            raise InvalidSpecError("n_u and n_y must be >= 1")
        if self.n_c < 1:
            raise InvalidSpecError("n_c must be >= 1")
        check_sigma(self.sigma)

    def replace(self, **kw) -> "FprcParams":
        return replace(self, **kw)


def convert_angle(theta_d: float, k_in: float, limit: float) -> float:
    """Reservoir input pressure P_i = k_in * theta_d, clamped to [0, limit]."""
    if not math.isfinite(theta_d):
        raise NumericError(f"theta_d must be finite, got {theta_d!r}")
    p_i = k_in * theta_d
    return float(0.0 if p_i < 0.0 else (limit if p_i > limit else p_i))


def drive_reservoir(theta, reservoir: Plant, k_in: float, dt: float,
                    disturbance: DisturbanceSpec | None = None):
    """Drive the reservoir with P_i = convert_angle(theta, k_in, its input limit).

    ``disturbance`` perturbs the reservoir as ``plant.drive`` does. Returns
    the arrays (p_i, p_o, disturbed), one entry per sample; the reservoir is
    left in its final state.
    """
    theta = np.asarray(theta, dtype=float)
    limit = reservoir.input_limit
    p_i = np.array([convert_angle(th, k_in, limit) for th in theta.tolist()])
    p_o, disturbed = drive(reservoir, p_i, dt, disturbance)
    return p_i, p_o, disturbed


def _lowpass_series(p_o: np.ndarray, params: FprcParams) -> np.ndarray:
    """First-order low pass p~(k) = eps p_o(k) + (1 - eps) p~(k-1).

    The filter memory starts at the first sample, so there is no startup
    transient. The loop makes the transposed-direct-form-II operations of
    ``scipy.signal.lfilter([eps], [1, -(1 - eps)], p_o, zi=[(1 - eps) p_o[0]])``
    in the same order, so its output is bit-identical to that call's.
    """
    eps = params.epsilon
    keep = 1.0 - eps
    samples = p_o.tolist()
    z = keep * samples[0]
    out = []
    for x in samples:
        y = z + eps * x
        out.append(y)
        z = keep * y
    return np.array(out)


def _feature_matrix(theta: np.ndarray, p_filt: np.ndarray | None,
                    params: FprcParams) -> np.ndarray:
    """Readout states [theta taps, filtered pressure taps], one row per sample;
    angle taps only when ``p_filt`` is None (the fuzzy-linear variant)."""
    X = tap_matrix(theta, params.n_y)
    return X if p_filt is None else np.hstack([X, tap_matrix(p_filt, params.n_u)])


def fprc_collect_training(theta, p_exp, p_o=None, *, params: FprcParams,
                          reservoir_features: bool = True):
    """Assemble the training design matrix and targets from a record.

    The recorded reservoir pressure ``p_o`` is required when reservoir
    features are enabled. Returns (X, y).
    """
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
    """Trained feedforward model: params plus the fuzzy readout, of width ``params.sigma``.

    ``reservoir_features=False`` gives the fuzzy-linear variant (angle
    taps only, no physical reservoir in the loop).
    """

    def __init__(self, params: FprcParams, centers, w_out, reservoir_features: bool = True):
        self.ruleset = FuzzyRuleSet(centers=centers, w_out=w_out, sigma=params.sigma)
        expected = params.n_y + (params.n_u if reservoir_features else 0)
        if self.ruleset.state_dim != expected:
            raise DimensionError(f"ruleset state dim {self.ruleset.state_dim} does not match "
                                 f"the {expected} configured taps")
        self.params = params
        self.reservoir_features = reservoir_features

    @property
    def kind(self) -> str:
        return FPRC_KINDS[not self.reservoir_features]

    def predict(self, X) -> np.ndarray:
        """Readout of state rows as ``fprc_collect_training`` assembles them."""
        return fuzzy_infer_batch(self.ruleset, X)

    def evaluate(self, ds) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized replay of a recorded dataset (uses its stored P_o)."""
        X, y = fprc_collect_training(ds.theta, ds.p_exp, p_o=ds.p_o, params=self.params,
                                     reservoir_features=self.reservoir_features)
        return self.predict(X), y

    def replay_processes(self, n: int) -> int:
        """Processes a replay of ``n`` samples runs on: this one alone."""
        return 1

    def run(self, theta_d, dt: float, disturbance: DisturbanceSpec | None = None, *,
            reservoir: Plant | None = None):
        """Feedforward signals for a whole reference angle record.

        Returns the arrays (p_ff, p_i, p_o, p_o_filt, disturbed). The
        reference drives ``reservoir``, perturbed per ``disturbance``, and
        the readout is that of ``evaluate``. The fuzzy-linear variant has
        no reservoir: its other four columns are zero.
        """
        params = self.params
        theta_d = np.asarray(theta_d, dtype=float)
        if self.reservoir_features:
            if reservoir is None:
                raise InvalidSpecError("the reservoir-backed model needs a reservoir instance")
            p_i, p_o, disturbed = drive_reservoir(theta_d, reservoir, params.k_in, dt,
                                                  disturbance)
            p_filt = _lowpass_series(p_o, params)
            X = _feature_matrix(theta_d, p_filt, params)
        else:
            p_i = p_o = p_filt = disturbed = np.zeros(theta_d.size)
            X = _feature_matrix(theta_d, None, params)
        return self.predict(X), p_i, p_o, p_filt, disturbed

    def feedforward(self, reservoir: Plant | None = None):
        """``run`` bound to the reservoir it drives during tracking runs."""
        return functools.partial(self.run, reservoir=reservoir)

    def save(self, path) -> None:
        doc = {
            "format_version": 1,
            "kind": self.kind,
            "params": asdict(self.params),
            "centers": self.ruleset.centers.tolist(),
            "w_out": self.ruleset.w_out.tolist(),
        }
        write_json(path, doc)

    @classmethod
    def load(cls, path) -> "FprcModel":
        with decoding(path):
            with open(path, "r", encoding="ascii") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict) or doc.get("format_version") != 1:
                raise InvalidDataError(f"{path}: unsupported model artifact format")
            if doc["kind"] not in FPRC_KINDS:
                raise InvalidDataError(f"{path}: unknown model kind {doc['kind']!r}")
            params = decode(FprcParams, doc["params"], "params")
            centers, w_out = np.array(doc["centers"], float), np.array(doc["w_out"], float)
            if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(w_out))):
                raise InvalidDataError(f"{path}: model weights must all be finite")
            return cls(params, centers, w_out, reservoir_features=(doc["kind"] == "fprc"))


class FprcTrainer(Trainer):
    """Collects pipeline features, clusters them, and fits the readout."""

    def __init__(self, params: FprcParams, seed: int, reservoir_features: bool = True):
        self.params = params
        self.seed = seed
        self.reservoir_features = reservoir_features

    kind = FprcModel.kind  # the model's kind, by the same reservoir_features

    def states(self, record):
        """Readout states and targets of every sample of a record (no washout)."""
        return fprc_collect_training(record.theta, record.p_exp, p_o=record.p_o,
                                     params=self.params,
                                     reservoir_features=self.reservoir_features)

    def fit_states(self, X, y, fold: int = 0) -> FprcModel:
        centers, u = fcm_cluster(X, self.params.n_c, m=self.params.fuzziness,
                                 tol=self.params.fcm_tol, max_iter=self.params.fcm_max_iter,
                                 seed=[self.seed, fold])
        w_out = train_fuzzy_readout(X, y, u, self.params.alpha)
        return FprcModel(self.params, centers, w_out, self.reservoir_features)


def fprc_weight_analysis(theta, p_exp, p_o, params: FprcParams, seed: int = 0) -> dict:
    """Readout weight shares on min-max normalized inputs.

    The angle record and the filtered reservoir pressure are each scaled
    to [0, 1] before tap assembly so the absolute weight magnitudes of the
    two groups are comparable; the target stays in engineering units.
    """
    theta = np.asarray(theta, dtype=float)
    p_o = np.asarray(p_o, dtype=float)
    p_exp = np.asarray(p_exp, dtype=float)
    theta_n = normalize_minmax(theta)
    p_filt_n = normalize_minmax(_lowpass_series(p_o, params))
    X = _feature_matrix(theta_n, p_filt_n, params)
    model = FprcTrainer(params, seed=seed).fit_states(X, p_exp)
    return weight_contributions(model.ruleset.w_out, params.n_y, params.n_u)
