"""Training numerics and the experiment protocol.

Contains the weighted ridge solver shared by every readout, the k-fold
cross-validation harness with contiguous time blocks, hyperparameter
sweeps, and the execution-time benchmark.
"""
from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateRangeError, DimensionError, InvalidDataError,
                     InvalidSpecError, NumericError)
from .parallel import fork_map
from .signals import write_csv

EPSILON_SWEEP = (1.0, 0.1, 0.01, 1e-3, 1e-4)
CLUSTER_SWEEP = (1, 2, 4, 8, 16)
TAP_SWEEP = tuple(range(1, 11))


def ridge_solve(X, y, alpha: float, sample_weights=None) -> np.ndarray:
    """Solve ridge regression min_w sum_k s_k (y_k - w.x_k)^2 + alpha ||w||^2.

    The d x d normal system (X^T D X + alpha I) w = X^T D y is formed
    explicitly and solved by LU factorization. All weights, including any
    bias column the caller appended, are penalized.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionError("X must be a 2-D design matrix")
    if y.ndim != 1 or y.size != X.shape[0]:
        raise DimensionError(f"y length {y.size} does not match X rows {X.shape[0]}")
    if X.shape[0] < 1:
        raise InvalidDataError("need at least one sample")
    if alpha < 0.0:
        raise InvalidSpecError(f"alpha must be non-negative, got {alpha!r}")
    if sample_weights is not None:
        s = np.asarray(sample_weights, dtype=float)
        if s.shape != (X.shape[0],):
            raise DimensionError("sample_weights must be one weight per row of X")
        if np.any(s < 0.0):
            raise InvalidDataError("sample_weights must be non-negative")
        Xw = X * s[:, None]
        yw = y * s
    else:
        Xw = X
        yw = y
    d = X.shape[1]
    A = X.T @ Xw + alpha * np.eye(d)
    b = X.T @ yw
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError("normal system is singular; use alpha > 0 to regularize") from exc
    if not np.all(np.isfinite(w)):
        raise NumericError("ridge solution is not finite")
    return w


def rmse(a, b) -> float:
    """Root-mean-square difference of two equal-length 1-D arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size != b.size:
        raise DimensionError(f"rmse needs equal-length 1-D arrays, got {a.shape} and {b.shape}")
    if a.size == 0:
        raise InvalidDataError("rmse of empty arrays is undefined")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def normalize_minmax(x) -> np.ndarray:
    """Scale a series to [0, 1] by its own min and max."""
    x = np.asarray(x, dtype=float)
    lo = float(np.min(x))
    hi = float(np.max(x))
    if hi == lo:
        raise DegenerateRangeError("normalize_minmax is undefined on a constant series")
    return (x - lo) / (hi - lo)


@dataclass(frozen=True)
class FoldResult:
    index: int
    e_train: float
    e_val: float

    @property
    def e_bar(self) -> float:
        return float(np.sqrt(self.e_train ** 2 + self.e_val ** 2))


@dataclass
class CvReport:
    """Per-fold errors plus the index selected by minimal combined error."""

    folds: list
    best_index: int

    @property
    def e_train_mean(self) -> float:
        return float(np.mean([f.e_train for f in self.folds]))

    @property
    def e_train_sd(self) -> float:
        return float(np.std([f.e_train for f in self.folds]))

    @property
    def e_val_mean(self) -> float:
        return float(np.mean([f.e_val for f in self.folds]))

    @property
    def e_val_sd(self) -> float:
        return float(np.std([f.e_val for f in self.folds]))

    def to_dict(self) -> dict:
        return {
            "folds": [{"index": f.index, "e_train": f.e_train, "e_val": f.e_val,
                       "e_bar": f.e_bar} for f in self.folds],
            "best_index": self.best_index,
            "e_train_mean": self.e_train_mean,
            "e_train_sd": self.e_train_sd,
            "e_val_mean": self.e_val_mean,
            "e_val_sd": self.e_val_sd,
        }

    def to_csv(self, path) -> None:
        rows = [(f.index, f.e_train, f.e_val, f.e_bar, int(f.index == self.best_index))
                for f in self.folds]
        write_csv([(path, "fold,e_train,e_val,e_bar,selected", list(zip(*rows)))])


def contiguous_folds(n: int, k: int) -> list:
    """Split range(n) into k contiguous (lo, hi) blocks of near-equal size."""
    if k < 2:
        raise InvalidSpecError(f"need at least 2 folds, got {k}")
    if n < k:
        raise InvalidDataError(f"cannot split {n} samples into {k} folds")
    edges = np.linspace(0, n, k + 1).astype(int)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(k)]


class Trainer:
    """Base of the readout trainers.

    A trainer splits training in three parts that cross validation and the
    benchmark compose: ``states(record)`` returns the readout's input rows
    and targets (X, y) for one record driven from a cold start, dropping
    the same number of leading rows (the washout) from every record;
    ``fit_states(X, y, fold)`` fits a model on stacked rows; the model's
    ``predict(X)`` reads rows out. States are causal: the rows of a prefix
    of a record are the first rows of the record's states.

    ``rejoin(record, spine, at)`` may return fewer rows than ``states``:
    the first rows of ``states(record)``, ending where the rest equal
    ``spine``'s rows bit for bit. ``spine`` is the ``states`` of the
    series the record was cut from; its row r holds sample ``at + r`` of
    the record (``at`` may be negative). The default never rejoins.
    """

    def rejoin(self, record, spine, at: int):
        """Rows of ``states(record)`` up to where the spine repeats them."""
        return self.states(record)

    def fit(self, segments, fold: int = 0):
        """Fit on independent records, each driven from a cold start."""
        if not segments:
            raise InvalidDataError("no training segments given")
        X, y = _stack([self.states(seg) for seg in segments])
        return self.fit_states(X, y, fold)


def _stack(parts):
    """(X, y) with the rows of the parts in order; one part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return np.vstack([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def kfold_cv(dataset, trainer, k: int = 5):
    """Blocked k-fold cross validation over a time-series dataset.

    Fold i holds out the block [e_i, e_{i+1}) between fold edges and fits
    the trainer on the segments before and after it, each an independent
    record that starts cold. Fold quality is e_bar = sqrt(e_train^2 +
    e_val^2); the fold with minimal e_bar wins, ties resolved toward the
    lower index.

    Every training segment and validation block starts cold at a fold edge
    e_j and is a prefix of run j, the run from e_j to the end. Fold i trains
    on run 0 up to e_i followed by run i+1, and validates on the first
    e_{i+1} - e_i samples of run i.

    Run 0, the spine, is the whole record driven from sample 0; it covers
    every later run. The folds are the items of one ``fork_map``, whose
    workers inherit the spine: fold i drives run i over its validation
    block (i >= 1) and run i+1 to the end (i + 1 < k) through
    ``trainer.rejoin``, which may stop a run where its rows start to equal
    the spine's bit for bit (an ESN's state forgets its cold start); the
    run's later rows are then read from the spine. Equal means equal
    bytes, so the folds are exactly those of runs driven to their ends. A
    trainer that drives a reservoir thus steps it n + sum_{j>=1} (r_j +
    min(r_j, e_{j+1} - e_j)) times, where r_j is the number of samples run
    j takes to rejoin the spine, or its length if it never does: at most
    3.8 n at k = 5. Each process holds the spine and one fold's arrays.

    Returns (best_model, CvReport).
    """
    n = len(dataset)
    edges = [lo for lo, _ in contiguous_folds(n, k)] + [n]
    spine = trainer.states(dataset)  # row r holds sample washout + r
    washout = n - len(spine[1])
    for i, size in enumerate(np.diff(edges)):
        if size <= washout:
            raise InvalidDataError(f"fold {i} holds {size} samples, which leaves no rows "
                                   f"after washout {washout}")
    folds = fork_map(functools.partial(_fold, dataset, trainer, spine, edges), range(k))
    results = [result for result, _ in folds]
    best = int(np.argmin([f.e_bar for f in results]))  # the first minimum: lowest index
    return folds[best][1], CvReport(folds=results, best_index=best)


def _fold(dataset, trainer, spine, edges, i: int):
    """(FoldResult, model) of fold i of ``kfold_cv``."""
    n = edges[-1]
    washout = n - len(spine[1])

    def rows(j, stop):
        """Run j's rows for samples [e_j + washout, stop): its own, then the spine's."""
        own = ((), ())
        if j > 0:
            own = trainer.rejoin(dataset.slice(edges[j], stop), spine, washout - edges[j])
        m = len(own[1])
        parts = [own] if m > 0 else []
        lo, hi = edges[j] + m, stop - washout
        if hi > lo:
            parts.append((spine[0][lo:hi], spine[1][lo:hi]))
        return parts

    val = _stack(rows(i, edges[i + 1]))
    X, y = _stack(rows(0, edges[i]) + (rows(i + 1, n) if edges[i + 1] < n else []))
    model = trainer.fit_states(X, y, fold=i)
    result = FoldResult(index=i, e_train=rmse(model.predict(X), y),
                        e_val=rmse(model.predict(val[0]), val[1]))
    return result, model


def weight_contributions(w_out: np.ndarray, n_y: int, n_u: int) -> dict:
    """Normalized absolute weight shares for a trained fuzzy readout.

    ``w_out`` is the rule weight matrix (n_c x (1 + n_y + n_u)) with the
    bias first, then the angle taps, then the filtered-pressure taps. Each
    rule's weights are normalized to sum to one in absolute value and then
    grouped. Returns per-rule shares and their across-rule means.
    """
    W = np.atleast_2d(np.asarray(w_out, dtype=float))
    if W.shape[1] != 1 + n_y + n_u:
        raise DimensionError(f"w_out has {W.shape[1]} columns, expected {1 + n_y + n_u}")
    totals = np.sum(np.abs(W), axis=1)
    if np.any(totals == 0.0):
        raise DegenerateRangeError("cannot normalize an all-zero rule weight vector")
    norm = np.abs(W) / totals[:, None]
    bias = norm[:, 0]
    theta = np.sum(norm[:, 1:1 + n_y], axis=1)
    reservoir = np.sum(norm[:, 1 + n_y:], axis=1)
    return {
        "per_rule": norm,
        "bias_share": bias,
        "theta_share": theta,
        "reservoir_share": reservoir,
        "mean_bias_share": float(np.mean(bias)),
        "mean_theta_share": float(np.mean(theta)),
        "mean_reservoir_share": float(np.mean(reservoir)),
    }


@dataclass
class SweepCell:
    """One grid point of a hyperparameter sweep."""

    settings: dict
    status: str = "ok"
    e_train_mean: float = float("nan")
    e_train_sd: float = float("nan")
    e_val_mean: float = float("nan")
    e_val_sd: float = float("nan")
    e_test: float = float("nan")
    train_time_s: float = float("nan")
    test_time_s: float = float("nan")
    message: str = ""


@dataclass
class SweepResult:
    axis: str
    cells: list = field(default_factory=list)

    def to_csv(self, path, include_timings: bool = False) -> None:
        # every cell of a grid has the same settings keys
        keys = list(self.cells[0].settings) if self.cells else []
        fields = ["status", "e_train_mean", "e_train_sd", "e_val_mean", "e_val_sd", "e_test"]
        if include_timings:
            fields += ["train_time_s", "test_time_s"]
        columns = ([[c.settings[k] for c in self.cells] for k in keys]
                   + [[getattr(c, f) for c in self.cells] for f in fields])
        write_csv([(path, ",".join(keys + fields), columns)])

    def to_dict(self) -> dict:
        return {"axis": self.axis, "cells": [
            {"settings": c.settings, "status": c.status, "message": c.message,
             "e_train_mean": c.e_train_mean, "e_train_sd": c.e_train_sd,
             "e_val_mean": c.e_val_mean, "e_val_sd": c.e_val_sd, "e_test": c.e_test}
            for c in self.cells]}


def _integral(axis: str, values) -> tuple:
    """The values of an integer axis as ints; a non-finite or fractional one is an error."""
    for v in values:
        if not float(v).is_integer():
            raise InvalidSpecError(f"sweep axis {axis!r} takes integer values, got {v!r}")
    return tuple(int(v) for v in values)


def _sweep_grid(axis: str, values):
    if axis == "epsilon":
        vals = EPSILON_SWEEP if values is None else tuple(values)
        return [{"epsilon": float(v)} for v in vals]
    if axis == "clusters":
        vals = CLUSTER_SWEEP if values is None else _integral(axis, values)
        return [{"model": m, "n_c": v} for m in ("fprc", "fuzzy-linear") for v in vals]
    if axis == "taps":
        vals = TAP_SWEEP if values is None else _integral(axis, values)
        return [{"n_u": u, "n_y": y} for u in vals for y in vals]
    raise InvalidSpecError(f"unknown sweep axis {axis!r}, expected epsilon, clusters, or taps")


def _sweep_cell(config, train_ds, test_ds, k: int, settings: dict) -> SweepCell:
    """Train and evaluate one grid point; a failure is recorded in the cell."""
    cell = SweepCell(settings=dict(settings))
    kind = settings.get("model", "fprc")
    overrides = {k_: v for k_, v in settings.items() if k_ != "model"}
    try:
        trainer = config.trainer(kind, **overrides)
        t0 = time.perf_counter()
        model, report = kfold_cv(train_ds, trainer, k=k)
        cell.train_time_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        yhat, y = model.evaluate(test_ds)
        cell.test_time_s = time.perf_counter() - t0
        cell.e_test = rmse(yhat, y)
        cell.e_train_mean = report.e_train_mean
        cell.e_train_sd = report.e_train_sd
        cell.e_val_mean = report.e_val_mean
        cell.e_val_sd = report.e_val_sd
    except Exception as exc:  # noqa: BLE001 - cells must not kill the sweep
        cell.status = "failed"
        cell.message = f"{type(exc).__name__}: {exc}"
    return cell


def run_sweep(axis: str, values, config, train_ds, test_ds, k: int = 5) -> SweepResult:
    """Train and evaluate across one hyperparameter axis.

    Cells are independent and run in worker processes (``fork_map``): a
    failing cell is recorded with its error message and the sweep
    continues.
    """
    grid = _sweep_grid(axis, values)
    cells = fork_map(functools.partial(_sweep_cell, config, train_ds, test_ds, k), grid)
    return SweepResult(axis=axis, cells=cells)


@dataclass
class BenchmarkResult:
    model_kind: str
    train_times_s: list
    test_times_s: list
    test_cpu_s: list
    e_train: float
    e_test: float
    n_test_steps: int
    replay_processes: int = 1

    @property
    def train_time_mean(self) -> float:
        return float(np.mean(self.train_times_s))

    @property
    def test_time_mean(self) -> float:
        return float(np.mean(self.test_times_s))

    @property
    def per_step_us(self) -> float:
        """Wall time per test step, with the replay on ``replay_processes``
        processes."""
        return 1e6 * self.test_time_mean / self.n_test_steps

    def metrics_dict(self) -> dict:
        """Deterministic (seed-reproducible) part of the benchmark."""
        return {"model": self.model_kind, "e_train": self.e_train, "e_test": self.e_test,
                "n_test_steps": self.n_test_steps}

    def timing_dict(self) -> dict:
        """Wall-clock and CPU-time part: varies run to run by nature. CPU
        time per step sums every process of the replay."""
        return {"model": self.model_kind,
                "train_time_mean_s": self.train_time_mean,
                "train_time_sd_s": float(np.std(self.train_times_s)),
                "test_time_mean_s": self.test_time_mean,
                "test_time_sd_s": float(np.std(self.test_times_s)),
                "per_step_us": self.per_step_us,
                "cpu_per_step_us": 1e6 * float(np.mean(self.test_cpu_s)) / self.n_test_steps,
                "repetitions": len(self.test_times_s),
                "replay_processes": self.replay_processes}


def benchmark_execution(trainer, train_ds, test_ds, repetitions: int = 10,
                        refit_each_rep: bool = True) -> BenchmarkResult:
    """Time the training and test procedures of one model.

    Each repetition refits the readout on the full training record and
    replays the full test record, mirroring how execution cost scales with
    the two dataset lengths. The training error is read out from the
    states the fit was built on. RMSEs come from the final repetition.
    """
    if repetitions < 1:
        raise InvalidSpecError("repetitions must be >= 1")
    train_times, test_times, test_cpu = [], [], []
    model = None
    e_train = float("nan")
    for rep in range(repetitions):
        if model is None or refit_each_rep:
            t0 = time.perf_counter()
            X, y = trainer.states(train_ds)
            model = trainer.fit_states(X, y, fold=0)
            train_times.append(time.perf_counter() - t0)
            e_train = rmse(model.predict(X), y)
            del X, y
        t0, c0 = time.perf_counter(), _cpu_seconds()
        yhat, y = model.evaluate(test_ds)
        test_times.append(time.perf_counter() - t0)
        test_cpu.append(_cpu_seconds() - c0)
    e_test = rmse(yhat, y)
    return BenchmarkResult(model_kind=trainer.kind, train_times_s=train_times,
                           test_times_s=test_times, test_cpu_s=test_cpu,
                           e_train=e_train, e_test=e_test,
                           n_test_steps=len(test_ds),
                           replay_processes=model.replay_processes(len(test_ds)))


def _cpu_seconds() -> float:
    """CPU seconds of this process (``os.times`` counts 10 ms ticks, longer
    than a short replay) and of its waited-for children, such as workers."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system
