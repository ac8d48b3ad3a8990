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
import mmap
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib import format as npy

from .errors import (InvalidDataError, InvalidSpecError, NumericError, StateError,
                     check_size, decoding)
from .parallel import fork_map, usable_cpus
from .signals import DEFAULT_N_Y, decode, tap_matrix
from .training import Trainer, ridge_solve

WEIGHT_DISTRIBUTIONS = ("uniform", "uniform-sym", "normal")

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

    n_y: int = DEFAULT_N_Y
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


def spectral_radius_power_iteration(w: np.ndarray) -> float:
    """Largest absolute eigenvalue estimated by power iteration.

    Avoids a full eigendecomposition for the large recurrent matrix. The
    iteration stops when the estimate changes by at most 1e-8 of itself;
    if it has not within 10,000 iterations (possible when the dominant
    eigenvalue is complex), it falls back to the exact spectrum.
    """
    n = w.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    lam_prev = 0.0
    for _ in range(10_000):
        wv = w @ v
        lam = float(np.linalg.norm(wv))
        if lam == 0.0:
            return 0.0
        v = wv / lam
        if abs(lam - lam_prev) <= 1e-8 * lam:
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
    check_size(r * r, f"reservoir_size {r} needs more than %s for its recurrent matrix")
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

    ``known`` rows end the run where it rejoins another run of the same
    reservoir: known[k] is that run's row for sample k of this record. The
    run stops at its first row with the bytes of known[k], without updating
    on sample k, and returns the rows before it; the model is left holding
    that row's state.
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
    first = max(start - n_y + 1, 0)  # the taps of row start reach back n_y - 1 samples
    rows[:, 0] = 1.0
    rows[:, 1:1 + n_y] = tap_matrix(theta[first:stop], n_y)[start - first:]
    states = rows[:, 1 + n_y:]
    known = rows[:0] if known is None else known
    for k in range(start, stop):
        states[k - start] = model.state
        if k < len(known) and rows[k - start].tobytes() == known[k].tobytes():
            return rows[:k - start]
        esn_update(model, theta[k])
    return rows


def _check_washout(n: int, washout: int) -> None:
    if n <= washout:
        raise InvalidDataError(f"series of length {n} leaves no rows after washout {washout}")


class EsnTrainer(Trainer):
    """Draws the frozen reservoir once, then fits the readout per fold."""

    kind = "esn"

    def __init__(self, params: EsnParams, alpha: float):
        self.params = params
        self.alpha = alpha
        self._template = esn_init(params)

    def states(self, record):
        """Extended states and targets of a record driven from a cold state
        (``_chunked_replay``), without the first ``washout`` rows."""
        washout, n, d = self.params.washout, len(record), self._template.extended_dim
        _check_washout(n, washout)
        check_size(n * d, f"{n} rows of {d} extended-state values need more than %s")
        return _chunked_replay(self._template, record.theta)[washout:], record.p_exp[washout:]

    def rejoin(self, record, spine):
        """The rows of ``states(record)`` before the record's cold run
        reaches a row with the bytes of the spine's row k for its sample k
        (``esn_collect_states(known=spine)``). The run is driven in blocks
        of ``_REPLAY_BLOCK_ROWS`` rows into one ``_mapped`` array, so an
        early rejoin commits one block of it.
        """
        washout = self.params.washout
        _check_washout(len(record), washout)
        model = self._template.cold_copy()
        rows = _mapped((len(record), self._template.extended_dim))
        for lo in range(0, len(record), _REPLAY_BLOCK_ROWS):
            hi = min(lo + _REPLAY_BLOCK_ROWS, len(record))
            block = esn_collect_states(model, record.theta, lo, hi, spine)
            end = lo + len(block)
            rows[lo:end] = block
            if end < hi:
                break
        return rows[washout:end], record.p_exp[washout:end]

    def fit_states(self, X, y, fold: int = 0) -> "TrainedEsn":
        return self.with_readout(ridge_solve(X, y, self.alpha))

    def readout(self, model: "TrainedEsn") -> np.ndarray:
        return model.model.w_out

    def with_readout(self, w_out: np.ndarray) -> "TrainedEsn":
        """The trained ESN of a readout, around this trainer's frozen weights."""
        fitted = self._template.cold_copy()
        fitted.w_out = w_out
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


def _mapped(shape) -> np.ndarray:
    """A zeroed float array in an anonymous shared mapping of its own, which
    forked workers can write to and which commits a page when first written."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)


def _replay_chunk(model: EsnModel, theta: np.ndarray, out: np.ndarray, read, span: tuple,
                  state: np.ndarray | None = None) -> tuple:
    """Drive ``model``'s reservoir over a span (lo, seam, hi) of an angle
    record from ``state`` at sample lo (cold if None): warm up over samples
    lo..seam-1 in one call, at most one block as ``_replay_spans`` sets it,
    then write the rows of samples seam..hi-1, or ``read`` of them, to
    ``out`` in blocks of ``_REPLAY_BLOCK_ROWS`` rows. Returns the states at
    the seam and at hi."""
    lo, seam, hi = span
    model = model.cold_copy()
    if state is not None:
        model.state = state
    esn_collect_states(model, theta, lo, seam)
    at_seam = model.state
    for a in range(seam, hi, _REPLAY_BLOCK_ROWS):
        b = min(a + _REPLAY_BLOCK_ROWS, hi)
        rows = esn_collect_states(model, theta, a, b)
        out[a:b] = rows if read is None else read(rows)
    return at_seam, model.state


def _chunked_replay(model: EsnModel, theta: np.ndarray, read=None) -> np.ndarray:
    """The extended-state rows of an angle record driven from a cold state,
    or ``read`` of them, one value per sample, which time chunks on worker
    processes (``_replay_spans``) write to one ``_mapped`` array.

    A later chunk starts cold one block before its seam; once its state
    there has the bytes the chunk before it ends with, the echo-state
    property makes its rows those of one run from sample 0. A chunk whose
    state differs at its seam is recomputed here from that final state, so
    the result is one run's either way.
    """
    out = _mapped((theta.size, model.extended_dim) if read is None else (theta.size,))
    spans = _replay_spans(theta.size)
    chunks = fork_map(functools.partial(_replay_chunk, model, theta, out, read), spans)
    state = chunks[0][1]
    for (_, seam, hi), (at_seam, final) in zip(spans[1:], chunks[1:]):
        if at_seam.tobytes() != state.tobytes():
            final = _replay_chunk(model, theta, out, read, (seam, seam, hi), state)[1]
        state = final
    return out


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
        sample (``_chunked_replay``)."""
        return _chunked_replay(self.model, np.asarray(theta, dtype=float), self.predict)

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
        """Write the bytes numpy's ``savez`` writes, with ``.npz`` appended
        to a path without it and no directory made, but from each array's
        own buffer: ``savez`` copies every array whole to bytes, since a zip
        member is not a real file."""
        path = os.fspath(path)
        path += "" if path.endswith(".npz") else ".npz"
        params = json.dumps(asdict(self.model.params), sort_keys=True)
        arrays = {"format_version": np.array([2]), "params": np.array(params),
                  "w_input": self.model.w_input, "w_reservoir": self.model.w_reservoir,
                  "w_out": self.model.w_out}
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            for name, array in arrays.items():
                array = np.asarray(array, order="C")
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(array))
                    member.write(array)

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
