"""Echo state network baseline.

A leaky tanh reservoir driven by the desired angle; the readout acts on
the extended state [1, recent angle taps, reservoir state] and is the only
trained part. Weight matrices are drawn once from a seeded generator and
then frozen.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (InvalidDataError, InvalidSpecError, NumericError,
                     ResourceError, StateError, decoding)
from .parallel import fork_map, usable_cpus
from .signals import decode, tap_matrix
from .training import Trainer, ridge_solve

WEIGHT_DISTRIBUTIONS = ("uniform", "uniform-sym", "normal")

# refuse reservoirs whose dense recurrent matrix would exceed this budget
_MAX_RESERVOIR_BYTES = 4 * 1024 ** 3

# rows of extended state a replay holds at once (about 6.6 MB at 800 units)
_REPLAY_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class EsnConfig:
    """The reservoir hyperparameters a config sets under ``model.esn``.

    Defaults match the benchmarked setup.
    """

    reservoir_size: int = 800
    input_scaling: float = 0.02
    leak_rate: float = 0.8
    spectral_radius: float = 0.4
    washout: int = 100
    weight_distribution: str = "uniform"


@dataclass(frozen=True)
class EsnParams(EsnConfig):
    """All reservoir hyperparameters: the config's plus the angle taps and
    the weight seed, which it sets elsewhere."""

    n_y: int = 5
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
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be non-negative, got {self.seed}")


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


def esn_collect_states(model: EsnModel, theta_series, start: int = 0,
                       stop: int | None = None, known=None) -> np.ndarray:
    """Run the reservoir over an angle record and stack extended states.

    Row k is the extended state [1, theta taps, reservoir state]: the taps
    end at theta(k), zero padded at the start, and the reservoir state
    accumulates samples 0..k-1; the update with theta(k) happens after the
    row is emitted. Every sample gives a row; callers drop the first
    ``washout`` rows where the state has not yet forgotten its
    initialization. The model state is left at its final value.

    ``start`` and ``stop`` return rows start..stop-1 only, driving the
    reservoir with those samples; the model must hold the state after
    samples 0..start-1, as the call for the previous block leaves it.

    ``known`` = (states, at) ends the run where it rejoins another run of
    the same reservoir: states[r] is the reservoir state that run holds at
    sample at + r of this record. The run stops at the first such
    sample where its own state has the same bytes, without updating on it,
    and returns the rows before it; the model is left holding that state.
    """
    theta = np.asarray(theta_series, dtype=float)
    if theta.ndim != 1:
        raise InvalidDataError("theta_series must be 1-D")
    stop = theta.size if stop is None else stop
    if not 0 <= start <= stop <= theta.size:
        raise InvalidSpecError(f"rows [{start}, {stop}) out of range for {theta.size} samples")
    bad = np.flatnonzero(~np.isfinite(theta[start:stop]))
    if bad.size:
        k = start + int(bad[0])
        raise NumericError(f"ESN input must be finite, got {theta[k]!r} at sample {k}")
    n_y = model.params.n_y
    rows = np.empty((stop - start, model.extended_dim))
    states = rows[:, 1 + n_y:]
    other, at = (states[:0], 0) if known is None else known
    end = stop
    for k in range(start, stop):
        if 0 <= k - at < len(other) and model.state.tobytes() == other[k - at].tobytes():
            end = k
            break
        states[k - start] = model.state
        esn_update(model, theta[k])
    rows = rows[:end - start]
    first = max(start - n_y + 1, 0)  # the taps of row start reach back n_y - 1 samples
    rows[:, 0] = 1.0
    rows[:, 1:1 + n_y] = tap_matrix(theta[first:end], n_y)[start - first:]
    return rows


def _check_washout(n: int, washout: int) -> None:
    if n <= washout:
        raise InvalidDataError(f"series of length {n} leaves no rows after washout {washout}")


class EsnTrainer(Trainer):
    """Draws the frozen reservoir once, then fits the readout per fold."""

    kind = "esn"

    def __init__(self, params: EsnParams, alpha: float = 1e-3):
        self.params = params
        self.alpha = alpha
        self._template = esn_init(params)

    def states(self, record):
        """Extended states and targets of a record driven from a cold state,
        without the first ``washout`` rows."""
        washout = self.params.washout
        _check_washout(len(record), washout)
        rows = esn_collect_states(self._template.cold_copy(), record.theta)
        return rows[washout:], record.p_exp[washout:]

    def rejoin(self, record, spine, at: int):
        """The rows of ``states(record)`` before the run rejoins the spine.

        The record is driven from a cold state and stops at the first
        sample where its reservoir state has the same bytes as the spine's
        row there, among the samples where both runs' angle taps are full:
        the two rows are then equal, and so is every later one, because
        the same state, input and weights give the same next state.
        Returns the rows before that sample, all of them if there is none.
        The run is driven in blocks of ``_REPLAY_BLOCK_ROWS`` rows, so an
        early rejoin allocates one block, not the whole record.
        """
        p = self.params
        _check_washout(len(record), p.washout)
        # spine row r, sample at + r, is compared once its taps and the record's are full
        skip = max(0, p.n_y - 1 - p.washout, p.n_y - 1 - at)
        known = (spine[0][skip:, 1 + p.n_y:], at + skip)
        model = self._template.cold_copy()
        blocks = []
        for lo in range(0, len(record), _REPLAY_BLOCK_ROWS):
            hi = min(lo + _REPLAY_BLOCK_ROWS, len(record))
            blocks.append(esn_collect_states(model, record.theta, lo, hi, known))
            if len(blocks[-1]) < hi - lo:
                break
        rows = np.vstack(blocks)
        return rows[p.washout:], record.p_exp[p.washout:len(rows)]

    def fit_states(self, X, y, fold: int = 0) -> "TrainedEsn":
        fitted = self._template.cold_copy()
        fitted.w_out = ridge_solve(X, y, self.alpha)
        return TrainedEsn(fitted)


def _replay_spans(n: int) -> list:
    """Chunks (lo, seam, hi) of a replay of ``n`` samples, one per usable
    CPU: a chunk drives the reservoir over samples lo..hi-1 and keeps the
    predictions from its seam on. Chunk 0 is (0, 0, b_1); chunk j >= 1
    warms up over the block before its seam b_j. Seams fall on block
    boundaries, so each chunk computes the same blocks as one run from
    sample 0, and each steps about (n + (p - 1) w) / p samples, warm-up
    included, for p chunks of block size w. That share is held to two
    blocks or more, so a record shorter than three blocks is one chunk.
    """
    w = _REPLAY_BLOCK_ROWS
    p = max(1, min(usable_cpus(), n // w - 1))
    share = (n + (p - 1) * w) / p
    seams = [0] + [w * math.floor((j * share - (j - 1) * w) / w + 0.5) for j in range(1, p)]
    return [(max(b - w, 0), b, hi) for b, hi in zip(seams, seams[1:] + [n])]


def _replay_chunk(trained: "TrainedEsn", theta: np.ndarray, span: tuple,
                  state: np.ndarray | None = None) -> tuple:
    """Predictions of samples seam..hi-1 of a span (lo, seam, hi), with the
    reservoir state at the seam and after sample hi - 1. The reservoir
    starts at sample lo from ``state``, a cold one if None, and runs in
    blocks of ``_REPLAY_BLOCK_ROWS`` rows, holding one at a time."""
    lo, seam, hi = span
    model = trained.model.cold_copy()
    if state is not None:
        model.state = state
    at_seam = model.state
    out = np.empty(hi - seam)
    for a in range(lo, hi, _REPLAY_BLOCK_ROWS):
        b = min(a + _REPLAY_BLOCK_ROWS, hi)
        rows = esn_collect_states(model, theta, a, b)
        if a >= seam:
            out[a - seam:b - seam] = trained.predict(rows)
        elif b == seam:
            at_seam = model.state
    return out, at_seam, model.state


class TrainedEsn:
    """Fitted ESN with dataset evaluation and artifact round trip."""

    kind = "esn"

    def __init__(self, model: EsnModel):
        if model.w_out is None:
            raise StateError("model has no trained readout")
        self.model = model

    def predict(self, X) -> np.ndarray:
        """Readout of extended-state rows."""
        return X @ self.model.w_out

    def _replay(self, theta) -> np.ndarray:
        """Readout over an angle record from a cold state, one value per
        sample, in time chunks on worker processes (``_replay_spans``).

        A later chunk starts cold one block before its seam; once its state
        there has the bytes the chunk before it ends with, the echo-state
        property makes every later state, and so its predictions, those of
        one run from sample 0. A chunk whose state differs at its seam is
        recomputed here from that final state, so the result is that of one
        run either way.
        """
        theta = np.asarray(theta, dtype=float)
        spans = _replay_spans(theta.size)
        chunks = fork_map(functools.partial(_replay_chunk, self, theta), spans)
        out, _, state = chunks[0]
        parts = [out]
        for (_, seam, hi), (out, at_seam, final) in zip(spans[1:], chunks[1:]):
            if at_seam.tobytes() != state.tobytes():
                out, _, final = _replay_chunk(self, theta, (seam, seam, hi), state)
            parts.append(out)
            state = final
        return np.concatenate(parts)

    def replay_processes(self, n: int) -> int:
        """Processes a replay of ``n`` samples runs on, one per chunk."""
        return len(_replay_spans(n))

    def evaluate(self, ds) -> tuple[np.ndarray, np.ndarray]:
        """Replay a dataset from a cold state; rows before washout are
        dropped from both prediction and target."""
        washout = self.model.params.washout
        _check_washout(len(ds), washout)
        return self._replay(ds.theta)[washout:], ds.p_exp[washout:]

    def feedforward(self):
        """``run``: the ESN keeps no state from one tracking run to the next."""
        return self.run

    def run(self, theta_d, dt: float, disturbance=None):
        """Feedforward signals for a whole reference angle record.

        Returns the arrays (p_ff, p_i, p_o, p_o_filt, disturbed); the ESN
        has no physical reservoir, so the last four are zero.
        """
        p_ff = self._replay(theta_d)
        zeros = np.zeros(p_ff.size)
        return p_ff, zeros, zeros, zeros, zeros

    def save(self, path) -> None:
        params = json.dumps(asdict(self.model.params), sort_keys=True)
        np.savez(path, format_version=np.array([2]), params=np.array(params),
                 w_input=self.model.w_input, w_reservoir=self.model.w_reservoir,
                 w_out=self.model.w_out)

    @classmethod
    def load(cls, path) -> "TrainedEsn":
        with decoding(path), np.load(path) as data:
            if "format_version" not in data or int(data["format_version"][0]) != 2:
                raise InvalidDataError(f"{path}: unsupported ESN artifact format")
            params = decode(EsnParams, json.loads(data["params"].item()), "params")
            r = params.reservoir_size
            shapes = {"w_input": (r,), "w_reservoir": (r, r), "w_out": (1 + params.n_y + r,)}
            weights = {name: data[name] for name in shapes}  # each access reads the archive
            for name, shape in shapes.items():
                if weights[name].shape != shape:
                    raise InvalidDataError(f"{path}: {name} has shape "
                                           f"{weights[name].shape}, expected {shape}")
                if not np.all(np.isfinite(weights[name])):
                    raise InvalidDataError(f"{path}: {name} weights must all be finite")
            model = EsnModel(params=params, state=np.zeros(r), **weights)
        return cls(model)
