"""Ridge solver, cross-validation harness, sweeps, and the benchmark."""
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneurc import esn, parallel
from pneurc.datasets import Dataset
from pneurc.errors import (DegenerateRangeError, DimensionError,
                           InvalidDataError, InvalidSpecError, NumericError)
from pneurc.esn import EsnParams, EsnTrainer, TrainedEsn
from pneurc.fprc import FprcTrainer
from pneurc.training import (BenchmarkResult, CvReport, FoldResult, SweepCell,
                             SweepResult, Trainer, benchmark_execution,
                             contiguous_folds, kfold_cv, normalize_minmax,
                             ridge_solve, rmse, run_sweep, weight_contributions)


def brute_force_ridge(X, y, alpha, s=None):
    """Independent reference: assemble and invert the normal system directly."""
    if s is not None:
        D = np.diag(s)
        A = X.T @ D @ X + alpha * np.eye(X.shape[1])
        b = X.T @ D @ y
    else:
        A = X.T @ X + alpha * np.eye(X.shape[1])
        b = X.T @ y
    return np.linalg.inv(A) @ b


# ---------------------------------------------------------------------------
# ridge


def test_ridge_matches_brute_force(rng):
    X = rng.normal(size=(200, 8))
    y = rng.normal(size=200)
    w = ridge_solve(X, y, alpha=1e-3)
    np.testing.assert_allclose(w, brute_force_ridge(X, y, 1e-3), rtol=1e-10)


def test_ridge_recovers_exact_linear_map(rng):
    X = rng.normal(size=(300, 5))
    w_true = np.array([2.0, -1.0, 0.5, 3.0, -0.25])
    y = X @ w_true
    w = ridge_solve(X, y, alpha=0.0)
    np.testing.assert_allclose(w, w_true, atol=1e-10)


def test_ridge_weighted_matches_brute_force(rng):
    X = rng.normal(size=(150, 6))
    y = rng.normal(size=150)
    s = rng.uniform(0.0, 2.0, size=150)
    w = ridge_solve(X, y, alpha=0.01, sample_weights=s)
    np.testing.assert_allclose(w, brute_force_ridge(X, y, 0.01, s), rtol=1e-9)


def test_ridge_zero_weight_rows_are_ignored(rng):
    X = rng.normal(size=(60, 3))
    y = rng.normal(size=60)
    s = np.ones(60)
    s[40:] = 0.0
    w_masked = ridge_solve(X, y, alpha=1e-3, sample_weights=s)
    w_sliced = ridge_solve(X[:40], y[:40], alpha=1e-3)
    np.testing.assert_allclose(w_masked, w_sliced, rtol=1e-10)


def test_ridge_singular_without_alpha_raises():
    X = np.ones((10, 3))  # rank 1
    y = np.ones(10)
    with pytest.raises(NumericError, match="alpha"):
        ridge_solve(X, y, alpha=0.0)
    # the same system is fine once regularized
    w = ridge_solve(X, y, alpha=1e-3)
    assert np.all(np.isfinite(w))


def test_ridge_validation(rng):
    X = rng.normal(size=(10, 2))
    y = rng.normal(size=10)
    with pytest.raises(InvalidSpecError):
        ridge_solve(X, y, alpha=-1.0)
    with pytest.raises(DimensionError):
        ridge_solve(X, y[:5], alpha=0.1)
    with pytest.raises(DimensionError):
        ridge_solve(X[0], y, alpha=0.1)
    with pytest.raises(DimensionError):
        ridge_solve(X, y, alpha=0.1, sample_weights=np.ones(3))
    with pytest.raises(InvalidDataError):
        ridge_solve(X, y, alpha=0.1, sample_weights=-np.ones(10))


# ---------------------------------------------------------------------------
# small numerics


def test_rmse_hand_value():
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    with pytest.raises(DimensionError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(InvalidDataError):
        rmse([], [])


def test_normalize_minmax():
    np.testing.assert_allclose(normalize_minmax([0.0, 5.0, 10.0]), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(normalize_minmax([-2.0, 0.0, 2.0]), [0.0, 0.5, 1.0])
    with pytest.raises(DegenerateRangeError):
        normalize_minmax([3.0, 3.0, 3.0])


def test_contiguous_folds_cover_range():
    folds = contiguous_folds(10, 3)
    assert folds == [(0, 3), (3, 6), (6, 10)]
    folds = contiguous_folds(1000, 5)
    assert folds[0][0] == 0 and folds[-1][1] == 1000
    for (a, b), (c, _) in zip(folds, folds[1:]):
        assert b == c
    with pytest.raises(InvalidSpecError):
        contiguous_folds(10, 1)
    with pytest.raises(InvalidDataError):
        contiguous_folds(3, 5)


def test_fold_result_e_bar():
    f = FoldResult(index=0, e_train=3.0, e_val=4.0)
    assert f.e_bar == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# cross validation with a stub trainer


class StubModel:
    """Predicts a constant; validation error depends only on the data."""

    def __init__(self, c):
        self.c = c
        self.evaluated = []  # length of every dataset evaluate() replayed

    def predict(self, X):
        return np.full(len(X), self.c)

    def evaluate(self, ds):
        self.evaluated.append(len(ds))
        return self.predict(ds.p_exp), ds.p_exp

    def replay_processes(self, n):
        return 1


class StubTrainer(Trainer):
    """Its states are the targets themselves; the model predicts their mean."""

    kind = "stub"

    def __init__(self):
        self.records = []  # length of every record states() was asked for
        self.fits = []  # (fold, y) of every fit
        self.models = []

    def states(self, record):
        self.records.append(len(record))
        return record.p_exp[:, None], record.p_exp

    def fit_states(self, X, y, fold=0):
        self.fits.append((fold, y.copy()))
        self.models.append(StubModel(float(np.mean(y))))
        return self.models[-1]


def make_dataset(p_exp, theta=None, dt=0.01):
    n = len(p_exp)
    z = np.zeros(n)
    return Dataset(theta=z if theta is None else theta, p_exp=np.asarray(p_exp, dtype=float),
                   p_i=z.copy(), p_o=z.copy(), dt=dt)


def serial_folds(monkeypatch):
    """Run kfold_cv's folds in this process, where the test can count calls."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)


def test_kfold_cv_fits_on_complement_segments(monkeypatch):
    serial_folds(monkeypatch)
    vals = np.arange(100.0)
    trainer = StubTrainer()
    kfold_cv(make_dataset(vals), trainer, k=4)
    # fold i trains on everything outside its block [25 i, 25 (i + 1)), in order
    assert [fold for fold, _ in trainer.fits] == [0, 1, 2, 3]
    for fold, y in trainer.fits:
        np.testing.assert_array_equal(y, np.delete(vals, np.s_[25 * fold:25 * fold + 25]))
    # run 0 is the whole record; fold i >= 1 then drives run i over its
    # validation block, and fold i + 1 < k drives run i + 1 to the end
    assert trainer.records == [100, 75, 25, 50, 25, 25, 25]


def test_kfold_cv_selects_first_minimal_e_bar():
    # constant-mean stub: a validation block whose values equal the training
    # mean yields the lowest e_val. Build data so fold 1 is that block.
    vals = np.concatenate([np.full(25, 0.0), np.full(25, 5.0),
                           np.full(25, 10.0), np.full(25, 5.0)])
    model, report = kfold_cv(make_dataset(vals), StubTrainer(), k=4)
    e_bars = [f.e_bar for f in report.folds]
    assert report.best_index == int(np.argmin(e_bars))
    assert isinstance(model, StubModel)
    # the returned model is the one fit for the winning fold
    assert model.c == pytest.approx(np.mean(np.delete(
        vals.reshape(4, 25), report.best_index, axis=0)))


def test_kfold_cv_tie_resolves_to_lowest_index():
    model, report = kfold_cv(make_dataset(np.zeros(40) + 2.0), StubTrainer(), k=4)
    # perfectly symmetric data: every fold ties at e_bar == 0
    assert report.best_index == 0
    assert model.c == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# cross validation against a per-fold reference


def reference_kfold_cv(dataset, trainer, k):
    """Blocked k-fold CV one fold at a time: fit on the complement segments,
    then replay each training segment and the validation block from a cold
    start. Returns (best_model, [(e_train, e_val), ...], best_index)."""
    n = len(dataset)
    errors, models = [], []
    for i, (lo, hi) in enumerate(contiguous_folds(n, k)):
        segments = [dataset.slice(a, b) for a, b in ((0, lo), (hi, n)) if a < b]
        model = trainer.fit(segments, fold=i)
        replays = [model.evaluate(seg) for seg in segments]
        e_train = rmse(np.concatenate([r[0] for r in replays]),
                       np.concatenate([r[1] for r in replays]))
        e_val = rmse(*model.evaluate(dataset.slice(lo, hi)))
        errors.append((e_train, e_val))
        models.append(model)
    best = int(np.argmin([FoldResult(0, *e).e_bar for e in errors]))
    return models[best], errors, best


def small_esn_trainer():
    return EsnTrainer(EsnParams(reservoir_size=30, washout=20, seed=3), alpha=1e-4)


TRAINERS = {
    "esn": lambda cfg: small_esn_trainer(),
    "fprc": lambda cfg: FprcTrainer(cfg.fprc_params(), seed=2),
    "fuzzy-linear": lambda cfg: FprcTrainer(cfg.fprc_params(), seed=2,
                                            reservoir_features=False),
}


def readout_weights(model):
    if isinstance(model, TrainedEsn):
        return [model.model.w_out]
    return [model.ruleset.w_out, model.ruleset.centers]


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_kfold_cv_matches_per_fold_reference(kind, k, default_config, small_dataset):
    ds = small_dataset.slice(0, 1199)  # 1199 samples: neither fold count divides it
    model, report = kfold_cv(ds, TRAINERS[kind](default_config), k=k)
    ref_model, ref_errors, ref_best = reference_kfold_cv(ds, TRAINERS[kind](default_config), k)
    assert report.best_index == ref_best
    np.testing.assert_allclose([(f.e_train, f.e_val) for f in report.folds], ref_errors,
                               rtol=1e-12, atol=0.0)
    for w, w_ref in zip(readout_weights(model), readout_weights(ref_model)):
        np.testing.assert_array_equal(w, w_ref)


@pytest.mark.parametrize("kind", sorted(TRAINERS))
def test_kfold_cv_forked_folds_equal_serial_ones(monkeypatch, kind, default_config,
                                                 small_dataset):
    # two usable CPUs fork the folds even on a one-CPU host
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        runs[cpus] = kfold_cv(small_dataset, TRAINERS[kind](default_config), k=5)
        assert multiprocessing.active_children() == []
    (serial, serial_report), (forked, forked_report) = runs[1], runs[2]
    assert forked_report.to_dict() == serial_report.to_dict()
    for w, w_serial in zip(readout_weights(forked), readout_weights(serial)):
        assert w.tobytes() == w_serial.tobytes()


class FailingTrainer(StubTrainer):
    def fit_states(self, X, y, fold=0):
        if fold == 2:
            raise NumericError(f"fold {fold} failed on {len(y)} rows")
        return super().fit_states(X, y, fold)


def test_kfold_cv_fold_error_is_the_same_forked_or_serial(monkeypatch):
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        with pytest.raises(NumericError, match=r"^fold 2 failed on 75 rows$") as excinfo:
            kfold_cv(make_dataset(np.arange(100.0)), FailingTrainer(), k=4)
        assert excinfo.type is NumericError
        assert multiprocessing.active_children() == []


def cold_run_lengths(trainer, theta, n, k):
    """Reservoir steps kfold_cv should take per fold-edge run: run 0 (the
    spine) over the whole record; every later run up to the first sample
    where its cold-started state has the spine's bytes and both runs' angle
    taps are full, or to its end."""
    p = trainer.params
    edges = [lo for lo, _ in contiguous_folds(n, k)] + [n]

    def states(lo, hi):
        model = esn.esn_init(p)
        out = []
        for u in theta[lo:hi]:
            out.append(model.state.tobytes())
            esn.esn_update(model, u)
        return out

    spine = states(0, n)  # spine[t]: the spine's state before sample t
    lengths = [n]
    for j in range(1, k):
        first = max(edges[j] + p.n_y - 1, p.washout)  # the spine keeps no washout rows
        own = states(edges[j], n)
        rejoined = [t for t in range(first, n) if own[t - edges[j]] == spine[t]]
        lengths.append((rejoined[0] if rejoined else n) - edges[j])
    return lengths


def count_steps(monkeypatch):
    calls = []
    real_update = esn.esn_update

    def counted(model, theta_d):
        calls.append(1)
        return real_update(model, theta_d)

    monkeypatch.setattr(esn, "esn_update", counted)
    return calls


def check_cv_steps(monkeypatch, small_dataset, distribution, size, k, rejoins):
    serial_folds(monkeypatch)
    n = 1199
    ds = small_dataset.slice(0, n)
    trainer = EsnTrainer(EsnParams(reservoir_size=size, washout=20, seed=3,
                                   weight_distribution=distribution), alpha=1e-4)
    lengths = cold_run_lengths(trainer, ds.theta, n, k)
    edges = [lo for lo, _ in contiguous_folds(n, k)] + [n]
    # fold j >= 1 drives run j once more over its validation block
    prefixes = [min(r, hi - lo) for r, lo, hi in zip(lengths[1:], edges[1:], edges[2:])]
    calls = count_steps(monkeypatch)
    kfold_cv(ds, trainer, k=k)
    assert len(calls) == sum(lengths) + sum(prefixes)
    # without a rejoin every run is driven to its end
    assert (sum(lengths) < n + sum(n - e for e in edges[1:-1])) == rejoins


@pytest.mark.parametrize("distribution, size, rejoins", [("uniform", 30, True),
                                                         ("uniform-sym", 120, False)])
def test_kfold_cv_stops_each_run_where_it_rejoins_the_spine(monkeypatch, small_dataset,
                                                            distribution, size, rejoins):
    check_cv_steps(monkeypatch, small_dataset, distribution, size, 5, rejoins)


def test_kfold_cv_with_two_folds_stops_run_1_where_it_rejoins_run_0(monkeypatch,
                                                                     small_dataset):
    check_cv_steps(monkeypatch, small_dataset, "uniform", 30, 2, True)


@st.composite
def small_esn_cv(draw):
    k = draw(st.integers(2, 6))
    n = draw(st.integers(40 * k, 200 * k))
    washout = draw(st.integers(0, n // k - 1))
    params = EsnParams(reservoir_size=draw(st.integers(1, 16)),
                       leak_rate=draw(st.floats(0.0, 1.0)),
                       spectral_radius=draw(st.floats(0.01, 0.99)),
                       washout=washout, n_y=draw(st.integers(1, 30)),
                       weight_distribution=draw(st.sampled_from(esn.WEIGHT_DISTRIBUTIONS)),
                       seed=draw(st.integers(0, 2 ** 31)))
    return params, n, k


@settings(max_examples=40)
@given(case=small_esn_cv())
def test_kfold_cv_with_rejoins_matches_per_fold_reference_property(small_dataset, case):
    params, n, k = case
    ds = small_dataset.slice(0, n)
    model, report = kfold_cv(ds, EsnTrainer(params, alpha=1e-4), k=k)
    ref_model, ref_errors, ref_best = reference_kfold_cv(ds, EsnTrainer(params, alpha=1e-4), k)
    assert report.best_index == ref_best
    # the errors are read out of ~300 kPa targets in another order than the
    # reference's replays, so a near-perfect fit differs by rounding
    np.testing.assert_allclose([(f.e_train, f.e_val) for f in report.folds], ref_errors,
                               rtol=1e-12, atol=1e-10)
    assert model.model.w_out.tobytes() == ref_model.model.w_out.tobytes()


def test_kfold_cv_rejects_validation_block_within_washout(small_dataset):
    # 100 samples in 5 folds: 20-sample blocks, no longer than the washout of 20
    with pytest.raises(InvalidDataError, match="washout"):
        kfold_cv(small_dataset.slice(0, 100), small_esn_trainer(), k=5)


def test_cv_report_stats():
    folds = [FoldResult(0, 1.0, 2.0), FoldResult(1, 3.0, 4.0)]
    rep = CvReport(folds=folds, best_index=0)
    assert rep.e_train_mean == pytest.approx(2.0)
    assert rep.e_val_mean == pytest.approx(3.0)
    assert rep.e_train_sd == pytest.approx(1.0)
    d = rep.to_dict()
    assert d["best_index"] == 0
    assert d["folds"][1]["e_bar"] == pytest.approx(5.0)


def test_cv_report_csv(tmp_path):
    rep = CvReport(folds=[FoldResult(0, 1.0, 2.0), FoldResult(1, 0.5, 0.5)],
                   best_index=1)
    path = tmp_path / "cv.csv"
    rep.to_csv(path)
    assert path.read_text() == ("fold,e_train,e_val,e_bar,selected\n"
                                "0,1.0,2.0,2.23606797749979,0\n"
                                "1,0.5,0.5,0.7071067811865476,1\n")


# ---------------------------------------------------------------------------
# weight shares


def test_weight_contributions_hand_values():
    w = np.array([[1.0, -1.0, 2.0]])  # bias, one theta tap, one pressure tap
    shares = weight_contributions(w, n_y=1, n_u=1)
    assert shares["bias_share"][0] == pytest.approx(0.25)
    assert shares["theta_share"][0] == pytest.approx(0.25)
    assert shares["reservoir_share"][0] == pytest.approx(0.5)
    assert shares["mean_reservoir_share"] == pytest.approx(0.5)
    total = (shares["bias_share"] + shares["theta_share"] + shares["reservoir_share"])
    np.testing.assert_allclose(total, 1.0)


def test_weight_contributions_validation():
    with pytest.raises(DimensionError):
        weight_contributions(np.ones((2, 4)), n_y=1, n_u=1)
    with pytest.raises(DegenerateRangeError):
        weight_contributions(np.zeros((1, 3)), n_y=1, n_u=1)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_unknown_axis():
    with pytest.raises(InvalidSpecError, match="axis"):
        run_sweep("gamma", None, None, None, None)


def test_sweep_epsilon_cells(default_config, train_dataset, test_dataset):
    result = run_sweep("epsilon", [0.01, 0.1], default_config,
                       train_dataset.slice(0, 4000), test_dataset.slice(0, 2000), k=2)
    assert result.axis == "epsilon"
    assert [c.settings for c in result.cells] == [{"epsilon": 0.01}, {"epsilon": 0.1}]
    for cell in result.cells:
        assert cell.status == "ok"
        assert np.isfinite(cell.e_test)


def test_sweep_clusters_covers_both_models(default_config, train_dataset, test_dataset):
    result = run_sweep("clusters", [2], default_config,
                       train_dataset.slice(0, 4000), test_dataset.slice(0, 2000), k=2)
    assert [c.settings for c in result.cells] == [
        {"model": "fprc", "n_c": 2}, {"model": "fuzzy-linear", "n_c": 2}]
    assert all(c.status == "ok" for c in result.cells)


def test_sweep_failed_cell_is_recorded(default_config, train_dataset, test_dataset):
    # epsilon outside (0, 1] is rejected by the parameter validator; the
    # sweep must capture that instead of aborting
    result = run_sweep("epsilon", [0.01, 2.0], default_config,
                       train_dataset.slice(0, 4000), test_dataset.slice(0, 2000), k=2)
    assert result.cells[0].status == "ok"
    assert result.cells[1].status == "failed"
    assert result.cells[1].message != ""
    assert np.isnan(result.cells[1].e_test)


def test_sweep_csv_excludes_timings_by_default(tmp_path):
    # a clusters grid has a string and an int column; a failed cell reads nan
    clusters = SweepResult("clusters", [
        SweepCell({"model": "fprc", "n_c": 2}, "ok", 0.1 + 0.2, 0.5, 12.0, 1e-05, 3.25,
                  1.5, 2.5e-4),
        SweepCell({"model": "fuzzy-linear", "n_c": 16}, "ok", 1.0, 0.0, 2.0, 0.125, 7.0,
                  0.75, 3e-3)])
    epsilon = SweepResult("epsilon", [
        SweepCell({"epsilon": 0.01}, "ok", 4.5, 0.25, 166.8, 76.9, 89.8, 0.05, 0.001),
        SweepCell({"epsilon": 2.0}, "failed", message="InvalidSpecError: epsilon")])
    plain = tmp_path / "sweep.csv"
    timed = tmp_path / "sweep_timing.csv"
    clusters.to_csv(plain)
    clusters.to_csv(timed, include_timings=True)
    assert plain.read_text() == (
        "model,n_c,status,e_train_mean,e_train_sd,e_val_mean,e_val_sd,e_test\n"
        "fprc,2,ok,0.30000000000000004,0.5,12.0,1e-05,3.25\n"
        "fuzzy-linear,16,ok,1.0,0.0,2.0,0.125,7.0\n")
    assert timed.read_text() == (
        "model,n_c,status,e_train_mean,e_train_sd,e_val_mean,e_val_sd,e_test,"
        "train_time_s,test_time_s\n"
        "fprc,2,ok,0.30000000000000004,0.5,12.0,1e-05,3.25,1.5,0.00025\n"
        "fuzzy-linear,16,ok,1.0,0.0,2.0,0.125,7.0,0.75,0.003\n")
    epsilon.to_csv(plain)
    epsilon.to_csv(timed, include_timings=True)
    assert plain.read_text() == (
        "epsilon,status,e_train_mean,e_train_sd,e_val_mean,e_val_sd,e_test\n"
        "0.01,ok,4.5,0.25,166.8,76.9,89.8\n"
        "2.0,failed,nan,nan,nan,nan,nan\n")
    assert timed.read_text() == (
        "epsilon,status,e_train_mean,e_train_sd,e_val_mean,e_val_sd,e_test,"
        "train_time_s,test_time_s\n"
        "0.01,ok,4.5,0.25,166.8,76.9,89.8,0.05,0.001\n"
        "2.0,failed,nan,nan,nan,nan,nan,nan,nan\n")


# ---------------------------------------------------------------------------
# benchmark


class SleepyTrainer(StubTrainer):
    def fit_states(self, X, y, fold=0):
        model = super().fit_states(X, y, fold)
        model.c = 1.0
        return model


def test_benchmark_shapes_and_metrics():
    ds = make_dataset(np.ones(50))
    result = benchmark_execution(SleepyTrainer(), ds, ds, repetitions=3)
    assert len(result.train_times_s) == 3
    assert len(result.test_times_s) == 3
    assert result.e_train == pytest.approx(0.0)
    assert result.e_test == pytest.approx(0.0)
    assert result.n_test_steps == 50
    assert result.per_step_us == pytest.approx(1e6 * result.test_time_mean / 50)
    assert len(result.test_cpu_s) == 3
    assert result.timing_dict()["cpu_per_step_us"] == pytest.approx(
        1e6 * np.mean(result.test_cpu_s) / 50)


def test_benchmark_single_fit_mode():
    trainer = SleepyTrainer()
    ds = make_dataset(np.ones(50))
    result = benchmark_execution(trainer, ds, ds, repetitions=4, refit_each_rep=False)
    assert len(trainer.fits) == 1
    assert len(result.train_times_s) == 1
    assert len(result.test_times_s) == 4


def test_benchmark_reads_training_error_from_the_fit_states():
    trainer = SleepyTrainer()
    train, test = make_dataset(np.ones(50)), make_dataset(np.ones(30))
    benchmark_execution(trainer, train, test, repetitions=2)
    # one states pass per refit; only the test record is replayed
    assert trainer.records == [50, 50]
    assert [m.evaluated for m in trainer.models] == [[30], [30]]


def test_benchmark_training_error_matches_replay():
    ds = make_dataset(np.linspace(100.0, 200.0, 300),
                      theta=30.0 + 20.0 * np.sin(np.linspace(0.0, 12.0, 300)))
    trainer = small_esn_trainer()
    result = benchmark_execution(trainer, ds, ds, repetitions=1)
    replayed = rmse(*trainer.fit([ds]).evaluate(ds))
    assert result.e_train == pytest.approx(replayed, rel=1e-12)


def test_benchmark_metrics_dict_has_no_timings():
    ds = make_dataset(np.ones(30))
    result = benchmark_execution(SleepyTrainer(), ds, ds, repetitions=2)
    metrics = result.metrics_dict()
    assert set(metrics) == {"model", "e_train", "e_test", "n_test_steps"}
    timing = result.timing_dict()
    assert "per_step_us" in timing and "repetitions" in timing
    assert timing["replay_processes"] == 1


def test_benchmark_validation():
    ds = make_dataset(np.ones(10))
    with pytest.raises(InvalidSpecError):
        benchmark_execution(SleepyTrainer(), ds, ds, repetitions=0)
