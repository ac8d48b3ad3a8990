"""Echo state network: init, update law, state collection, training."""
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pneurc import esn
from pneurc.datasets import Dataset
from pneurc.errors import (InvalidDataError, InvalidSpecError, NumericError,
                           ResourceError, StateError)
from pneurc.esn import (EsnModel, EsnParams, EsnTrainer, TrainedEsn,
                        WEIGHT_DISTRIBUTIONS, esn_collect_states, esn_init,
                        esn_update, spectral_radius_power_iteration)

TINY = dict(reservoir_size=8, washout=4, n_y=2, seed=7)


def make_dataset(theta, p_exp, dt=1 / 200):
    theta = np.asarray(theta, dtype=float)
    p_exp = np.asarray(p_exp, dtype=float)
    z = np.zeros_like(theta)
    return Dataset(theta=theta, p_exp=p_exp, p_i=z, p_o=z.copy(), dt=dt)


# ---------------------------------------------------------------------------
# parameters and initialization


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        EsnParams(reservoir_size=0)
    with pytest.raises(InvalidSpecError):
        EsnParams(leak_rate=1.5)
    with pytest.raises(InvalidSpecError):
        EsnParams(spectral_radius=1.0)
    with pytest.raises(InvalidSpecError):
        EsnParams(spectral_radius=0.0)
    with pytest.raises(InvalidSpecError):
        EsnParams(washout=-1)
    with pytest.raises(InvalidSpecError):
        EsnParams(n_y=0)
    with pytest.raises(InvalidSpecError):
        EsnParams(weight_distribution="cauchy")
    # numpy draws from non-negative seeds only
    with pytest.raises(InvalidSpecError, match="seed"):
        EsnParams(seed=-1)


def test_init_scales_spectrum_and_input():
    params = EsnParams(reservoir_size=60, seed=1)
    model = esn_init(params)
    rho = np.max(np.abs(np.linalg.eigvals(model.w_reservoir)))
    assert rho == pytest.approx(0.4, abs=1e-9)
    # uniform draw on (0, 1): recurrent entries stay non-negative after the
    # positive rescale, and the input weights sit in [0, input_scaling]
    assert np.all(model.w_reservoir >= 0.0)
    assert np.all(model.w_input >= 0.0)
    assert np.all(model.w_input <= params.input_scaling)
    assert np.all(model.state == 0.0)


def test_init_symmetric_and_normal_distributions():
    sym = esn_init(EsnParams(reservoir_size=60, weight_distribution="uniform-sym", seed=2))
    assert np.any(sym.w_reservoir < 0.0) and np.any(sym.w_reservoir > 0.0)
    gauss = esn_init(EsnParams(reservoir_size=60, weight_distribution="normal", seed=2))
    assert np.any(gauss.w_input < 0.0)
    rho = np.max(np.abs(np.linalg.eigvals(gauss.w_reservoir)))
    assert rho == pytest.approx(0.4, abs=1e-9)


def test_init_is_seed_deterministic():
    a = esn_init(EsnParams(reservoir_size=40, seed=11))
    b = esn_init(EsnParams(reservoir_size=40, seed=11))
    c = esn_init(EsnParams(reservoir_size=40, seed=12))
    np.testing.assert_array_equal(a.w_reservoir, b.w_reservoir)
    np.testing.assert_array_equal(a.w_input, b.w_input)
    assert not np.array_equal(a.w_reservoir, c.w_reservoir)


def test_init_refuses_gigantic_reservoir():
    with pytest.raises(ResourceError):
        esn_init(EsnParams(reservoir_size=30_000))


def test_spectral_radius_matches_eigvals(rng):
    for _ in range(5):
        w = rng.uniform(0.0, 1.0, size=(30, 30))
        exact = float(np.max(np.abs(np.linalg.eigvals(w))))
        assert spectral_radius_power_iteration(w) == pytest.approx(exact, rel=1e-6)
    assert spectral_radius_power_iteration(np.zeros((5, 5))) == 0.0
    # rotation matrix: complex spectrum on the unit circle
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert spectral_radius_power_iteration(rot) == pytest.approx(1.0, rel=1e-6)


# ---------------------------------------------------------------------------
# update law


def test_update_matches_scalar_recursion():
    model = esn_init(EsnParams(reservoir_size=1, washout=0, n_y=1, seed=3))
    w_in = float(model.w_input[0])
    w = float(model.w_reservoir[0, 0])
    g = model.params.leak_rate
    x = 0.0
    inputs = [10.0, 25.0, 5.0, 40.0]
    for u in inputs:
        x = g * x + (1.0 - g) * np.tanh(w_in * u + w * x)
        esn_update(model, u)
        assert model.state[0] == pytest.approx(x, rel=1e-14)
    assert abs(w) == pytest.approx(0.4, rel=1e-12)


def test_update_is_leaky_blend():
    model = esn_init(EsnParams(reservoir_size=5, seed=0))
    model.state = np.full(5, 0.5)
    prev = model.state.copy()
    out = esn_update(model, 0.0)
    assert out is model.state
    expected = 0.8 * prev + 0.2 * np.tanh(model.w_reservoir @ prev)
    np.testing.assert_allclose(model.state, expected, rtol=1e-12)


def test_update_rejects_non_finite_input():
    model = esn_init(EsnParams(reservoir_size=4, seed=0))
    with pytest.raises(Exception, match="finite"):
        esn_update(model, float("nan"))


def test_states_forget_initial_condition(rng):
    """Two copies with different initial states converge once driven."""
    params = EsnParams(reservoir_size=50, seed=4)
    a = esn_init(params)
    b = esn_init(params)
    b.state = rng.uniform(-1.0, 1.0, size=50)
    for k in range(200):
        u = 30.0 + 30.0 * np.sin(0.05 * k)
        esn_update(a, u)
        esn_update(b, u)
    assert np.max(np.abs(a.state - b.state)) < 1e-6


# ---------------------------------------------------------------------------
# state collection and readout


def test_extended_state_layout():
    model = esn_init(EsnParams(**TINY))
    state = np.linspace(0.1, 0.8, 8)
    model.state = state.copy()
    rows = esn_collect_states(model, [3.0, 2.0])
    assert rows.shape == (2, 11)
    # [1, theta taps most recent first, reservoir state before the update]
    np.testing.assert_array_equal(rows[0], np.concatenate(([1.0, 3.0, 0.0], state)))
    np.testing.assert_array_equal(rows[1, :3], [1.0, 2.0, 3.0])


def test_collect_states_rows_use_pre_update_state():
    model = esn_init(EsnParams(**TINY))
    theta = np.arange(1.0, 8.0)  # 7 samples -> 7 rows, washout left to callers
    # manual replay with an identical fresh copy
    twin = EsnModel(params=model.params, w_input=model.w_input,
                    w_reservoir=model.w_reservoir, state=np.zeros(8))
    taps = np.zeros(2)
    expected = []
    for u in theta:
        taps[1:] = taps[:-1]
        taps[0] = u
        expected.append(np.concatenate(([1.0], taps, twin.state)))
        esn_update(twin, u)
    rows = esn_collect_states(model, theta)
    assert rows.shape == (7, 11)
    np.testing.assert_array_equal(rows, np.array(expected))
    # the collecting model was mutated to the same final state
    np.testing.assert_array_equal(model.state, twin.state)


def test_collect_states_in_blocks_continue_the_run():
    model = esn_init(EsnParams(**TINY))
    theta = np.arange(1.0, 12.0)
    full = esn_collect_states(model.cold_copy(), theta)
    driven = model.cold_copy()
    # 4-row blocks: the taps of each block's first rows reach into the previous one
    blocks = [esn_collect_states(driven, theta, lo, min(lo + 4, theta.size))
              for lo in range(0, theta.size, 4)]
    np.testing.assert_array_equal(np.vstack(blocks), full)
    assert esn_collect_states(driven, []).shape == (0, 11)
    with pytest.raises(InvalidSpecError):
        esn_collect_states(driven, theta, 5, 3)
    with pytest.raises(InvalidSpecError):
        esn_collect_states(driven, theta, 0, 12)


def test_collect_states_names_first_non_finite_sample():
    model = esn_init(EsnParams(**TINY))
    model.state = np.full(8, 0.25)
    theta = np.zeros(10)
    theta[6] = np.nan
    theta[8] = np.inf
    with pytest.raises(NumericError, match="sample 6"):
        esn_collect_states(model, theta)
    # the series is checked before the reservoir takes a step
    np.testing.assert_array_equal(model.state, np.full(8, 0.25))
    # a block that ends before the bad sample is driven; the next one names it
    assert esn_collect_states(model, theta, 0, 6).shape == (6, 11)
    with pytest.raises(NumericError, match="sample 6"):
        esn_collect_states(model, theta, 6, 10)


def test_washout_requires_rows():
    params = EsnParams(**TINY)
    short = make_dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(InvalidDataError, match="washout"):
        EsnTrainer(params, alpha=1e-3).fit([short])
    trained = EsnTrainer(params, alpha=1e-3).fit([make_dataset(np.arange(9.0), np.arange(9.0))])
    with pytest.raises(InvalidDataError, match="washout"):
        trained.evaluate(short)
    with pytest.raises(InvalidDataError):
        esn_collect_states(esn_init(params), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# training and artifacts


def linear_plant_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    theta = 30.0 + 20.0 * np.sin(np.linspace(0.0, 12.0, n)) + rng.normal(0, 0.1, n)
    p_exp = 7.0 * theta + 5.0
    return make_dataset(theta, p_exp)


def test_trainer_fit_and_evaluate_alignment():
    ds = linear_plant_dataset()
    trainer = EsnTrainer(EsnParams(reservoir_size=30, washout=20, seed=5), alpha=1e-6)
    trained = trainer.fit([ds])
    yhat, y = trained.evaluate(ds)
    assert yhat.shape == y.shape == (380,)
    np.testing.assert_array_equal(y, ds.p_exp[20:])
    # an affine target within the tap span is easy for the extended state
    assert float(np.sqrt(np.mean((yhat - y) ** 2))) < 1.0


def test_replay_in_blocks_matches_one_readout(monkeypatch):
    ds = linear_plant_dataset()
    trained = EsnTrainer(EsnParams(reservoir_size=30, washout=20, seed=5),
                         alpha=1e-6).fit([ds])
    full = esn_collect_states(trained.model.cold_copy(), ds.theta) @ trained.model.w_out
    monkeypatch.setattr(esn, "_REPLAY_BLOCK_ROWS", 7)  # 400 rows: 57 blocks and a short one
    yhat, _ = trained.evaluate(ds)
    np.testing.assert_allclose(yhat, full[20:], rtol=1e-12, atol=0.0)
    p_ff = trained.run(ds.theta, ds.dt)[0]
    np.testing.assert_allclose(p_ff, full, rtol=1e-12, atol=0.0)


# Runs in a fresh interpreter under one BLAS thread: the replay's chunks run
# in workers held to one thread, and a one- and a two-thread mat-vec may
# differ in their last bits, so the serial oracle must use one thread too.
# Prints, per weight draw and forced CPU count: chunks, equal bytes, and how
# many chunks were recomputed from the chunk before them.
_CHUNKED_REPLAY_CHECK = r"""
import numpy as np
from pneurc import esn
from pneurc.esn import EsnParams, TrainedEsn, esn_collect_states, esn_init


def serial_replay(trained, theta):
    # the reference: one run from sample 0, read out block by block
    model = trained.model.cold_copy()
    out = np.empty(theta.size)
    for lo in range(0, theta.size, esn._REPLAY_BLOCK_ROWS):
        hi = min(lo + esn._REPLAY_BLOCK_ROWS, theta.size)
        out[lo:hi] = trained.predict(esn_collect_states(model, theta, lo, hi))
    return out


recomputed = []
chunk = esn._replay_chunk


def counted(model, theta, out, read, span, state=None):
    if state is not None:  # only the parent passes a state: a seam that did not match
        recomputed.append(span)
    return chunk(model, theta, out, read, span, state)


esn._replay_chunk = counted
rng = np.random.default_rng(0)
n = 4500  # not a whole number of blocks
theta = 30.0 + 20.0 * np.sin(np.linspace(0.0, 40.0, n)) + rng.normal(0.0, 0.1, n)
for dist in ("uniform", "uniform-sym"):
    model = esn_init(EsnParams(reservoir_size=80, weight_distribution=dist, seed=3))
    model.w_out = rng.standard_normal(model.extended_dim)
    trained = TrainedEsn(model)
    want = serial_replay(trained, theta).tobytes()
    for cpus in (1, 2, 3):
        esn.usable_cpus = lambda: cpus
        recomputed.clear()
        same = trained._replay(theta).tobytes() == want
        print(dist, cpus, trained.replay_processes(n), same, len(recomputed))
"""


def test_chunked_replay_has_the_bytes_of_one_serial_run():
    proc = subprocess.run([sys.executable, "-c", _CHUNKED_REPLAY_CHECK],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the uniform draw rejoins within the warm-up block at every seam; the
    # uniform-sym draw does not, and each later chunk is recomputed
    assert proc.stdout.split("\n")[:-1] == [
        "uniform 1 1 True 0", "uniform 2 2 True 0", "uniform 3 3 True 0",
        "uniform-sym 1 1 True 0", "uniform-sym 2 2 True 1", "uniform-sym 3 3 True 2"]


def test_default_reservoir_rejoins_within_one_block_of_a_seam(esn_trained, test_dataset):
    # the fast path of the chunked replay: on the default draw, a chunk
    # started cold one block before its seam holds, at the seam, the bytes
    # of the run from sample 0
    w = esn._REPLAY_BLOCK_ROWS
    seam = 2 * w
    out = np.empty(seam)
    model, theta = esn_trained.model, test_dataset.theta
    true_state = esn._replay_chunk(model, theta, out, esn_trained.predict, (0, 0, seam))[1]
    at_seam = esn._replay_chunk(model, theta, out, esn_trained.predict, (seam - w, seam, seam))[0]
    assert at_seam.tobytes() == true_state.tobytes()


@pytest.mark.parametrize("distribution, size, recomputed", [("uniform", 40, [0, 0, 0]),
                                                            ("uniform-sym", 120, [0, 1, 2])])
def test_states_in_chunks_have_the_bytes_of_one_run(monkeypatch, distribution, size,
                                                    recomputed):
    # blocks of 400 rows make 2,000 samples 1, 2 or 3 chunks; the uniform
    # draw rejoins within a chunk's warm-up block, the uniform-sym draw does
    # not and takes the recompute in this process at every later seam
    monkeypatch.setattr(esn, "_REPLAY_BLOCK_ROWS", 400)
    ds = linear_plant_dataset(n=2000)
    trainer = EsnTrainer(EsnParams(reservoir_size=size, washout=20, seed=3,
                                   weight_distribution=distribution), alpha=1e-3)
    want = esn_collect_states(trainer._template.cold_copy(), ds.theta)[20:]
    seams = []
    chunk = esn._replay_chunk

    def counted(model, theta, out, read, span, state=None):
        if state is not None:  # only this process passes a state: a seam that did not match
            seams.append(span)
        return chunk(model, theta, out, read, span, state)

    monkeypatch.setattr(esn, "_replay_chunk", counted)
    for cpus, n_recomputed in zip((1, 2, 3), recomputed):
        monkeypatch.setattr(esn, "usable_cpus", lambda: cpus)
        seams.clear()
        X, y = trainer.states(ds)
        assert X.tobytes() == want.tobytes(), cpus
        assert y.tobytes() == ds.p_exp[20:].tobytes()
        assert len(seams) == n_recomputed, cpus


def test_states_of_an_oversized_record_exit_3_before_any_step(monkeypatch):
    # 10**9 angle taps a row: refused from the sizes alone, before any allocation
    calls = []
    monkeypatch.setattr(esn, "esn_update", lambda *args: calls.append(args))
    trainer = EsnTrainer(EsnParams(reservoir_size=8, washout=4, n_y=10 ** 9), alpha=1e-3)
    with pytest.raises(ResourceError, match=r"^100 rows of 1000000009 extended-state values "
                                            r"need more than 4 GiB$"):
        trainer.states(linear_plant_dataset(n=100))
    assert calls == []


@pytest.mark.parametrize("lo, hi", [(12, 500), (250, 600)])
def test_rejoin_stops_where_the_spine_repeats_the_rows(lo, hi):
    # the spine is the run from sample 0; kfold_cv starts a record past its washout
    ds = linear_plant_dataset(n=600)
    trainer = EsnTrainer(EsnParams(reservoir_size=20, washout=10, seed=5), alpha=1e-6)
    spine = trainer.states(ds)  # rows of samples 10..599
    X, y = trainer.states(ds.slice(lo, hi))  # rows of samples lo + 10..hi - 1
    own_X, own_y = trainer.rejoin(ds.slice(lo, hi), spine[0][lo - 10:])
    m = len(own_y)
    assert 0 < m < len(y)
    assert own_X.tobytes() == X[:m].tobytes() and own_y.tobytes() == y[:m].tobytes()
    # every later row of the record is the spine's row of the same sample
    first = lo + m
    assert X[m:].tobytes() == spine[0][first:first + len(y) - m].tobytes()
    np.testing.assert_array_equal(y[m:], spine[1][first:first + len(y) - m])


@pytest.mark.parametrize("lo, hi, rejoined", [(300, 600, 304), (2, 400, 6)])
def test_rejoin_waits_until_both_runs_taps_are_full(lo, hi, rejoined):
    # a leak rate of 1 keeps every reservoir state at zero, so the states
    # match from the first sample; the rows match only once the record's
    # taps are full (from sample lo + 4), and the spine's are by then: a
    # record starting at sample 2 starts inside the spine's tap window
    ds = linear_plant_dataset(n=600)
    trainer = EsnTrainer(EsnParams(reservoir_size=5, leak_rate=1.0, washout=0, n_y=5, seed=5),
                         alpha=1e-3)
    spine = trainer.states(ds)
    own_X, own_y = trainer.rejoin(ds.slice(lo, hi), spine[0][lo:])
    assert len(own_y) == rejoined - lo
    X = trainer.states(ds.slice(lo, hi))[0]
    assert X[len(own_y):].tobytes() == spine[0][rejoined:hi].tobytes()


def test_collect_states_rejoins_on_equal_bytes_only():
    model = esn_init(EsnParams(**TINY))
    theta = np.arange(1.0, 12.0)
    full = esn_collect_states(model.cold_copy(), theta)
    driven = model.cold_copy()
    known = full.copy()
    known[:5] = np.nan  # rows of samples 0..4 that no run has
    rows = esn_collect_states(driven, theta, known=known)
    assert rows.tobytes() == full[:5].tobytes()
    np.testing.assert_array_equal(driven.state, full[5, 3:])  # not updated on sample 5
    # the cold row holds +0.0 in its padded tap and its state: -0.0 compares
    # equal to it, but its bytes differ, so the run does not stop there
    assert len(esn_collect_states(model.cold_copy(), theta, known=full[:1])) == 0
    signed = full[:1].copy()
    signed[signed == 0.0] = -0.0
    assert len(esn_collect_states(model.cold_copy(), theta, known=signed)) == 11


def test_trainer_multi_segment_fit():
    ds = linear_plant_dataset()
    trainer = EsnTrainer(EsnParams(reservoir_size=20, washout=10, seed=5), alpha=1e-6)
    trained = trainer.fit([ds.slice(0, 200), ds.slice(200, 400)])
    yhat, y = trained.evaluate(ds)
    assert np.all(np.isfinite(yhat))
    with pytest.raises(InvalidDataError):
        trainer.fit([])


def test_trainer_reuses_frozen_weights():
    trainer = EsnTrainer(EsnParams(reservoir_size=20, washout=10, seed=5), alpha=1e-6)
    ds = linear_plant_dataset()
    a = trainer.fit([ds])
    b = trainer.fit([ds.slice(0, 300)])
    np.testing.assert_array_equal(a.model.w_reservoir, b.model.w_reservoir)
    np.testing.assert_array_equal(a.model.w_input, b.model.w_input)


def test_trained_esn_requires_readout():
    model = esn_init(EsnParams(**TINY))
    with pytest.raises(StateError):
        TrainedEsn(model)


def test_save_load_round_trip(tmp_path):
    ds = linear_plant_dataset()
    trainer = EsnTrainer(EsnParams(reservoir_size=25, washout=15, seed=8), alpha=1e-4)
    trained = trainer.fit([ds])
    path = tmp_path / "esn.npz"
    trained.save(path)
    loaded = TrainedEsn.load(path)
    assert loaded.model.params == trained.model.params
    y1, _ = trained.evaluate(ds)
    y2, _ = loaded.evaluate(ds)
    np.testing.assert_array_equal(y1, y2)


@st.composite
def small_trained_esn(draw):
    params = EsnParams(reservoir_size=draw(st.integers(1, 12)),
                       input_scaling=draw(st.floats(1e-6, 1e3)),
                       leak_rate=draw(st.floats(0.0, 1.0)),
                       spectral_radius=draw(st.floats(0.01, 0.99)),
                       washout=draw(st.integers(0, 10 ** 6)),
                       n_y=draw(st.integers(1, 8)),
                       weight_distribution=draw(st.sampled_from(WEIGHT_DISTRIBUTIONS)),
                       seed=draw(st.integers(0, 2 ** 64)))
    model = esn_init(params)
    model.w_out = draw(arrays(float, model.extended_dim,
                              elements=st.floats(allow_nan=False, allow_infinity=False)))
    return TrainedEsn(model)


@settings(max_examples=40)
@given(trained=small_trained_esn())
def test_save_load_round_trip_property(tmp_path_factory, trained):
    path = tmp_path_factory.mktemp("esn") / "esn.npz"
    trained.save(path)
    loaded = TrainedEsn.load(path)
    assert loaded.model.params == trained.model.params
    for name in ("w_input", "w_reservoir", "w_out"):
        a, b = getattr(loaded.model, name), getattr(trained.model, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    np.testing.assert_array_equal(loaded.model.state, np.zeros(trained.model.params.reservoir_size))


@pytest.mark.parametrize("size", [800, 7])
@pytest.mark.parametrize("name", ["esn.npz", "esn"])
def test_save_writes_the_bytes_of_np_savez(tmp_path, size, name):
    model = esn_init(EsnParams(reservoir_size=size, seed=1))
    model.w_out = np.random.default_rng(0).standard_normal(model.extended_dim)
    trained = TrainedEsn(model)
    trained.save(tmp_path / name)
    params = json.dumps(asdict(model.params), sort_keys=True)
    np.savez(tmp_path / ("ref_" + name), format_version=np.array([2]), params=np.array(params),
             w_input=model.w_input, w_reservoir=model.w_reservoir, w_out=model.w_out)
    # like np.savez, save appends .npz to a path without it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["esn.npz", "ref_esn.npz"]
    assert (tmp_path / "esn.npz").read_bytes() == (tmp_path / "ref_esn.npz").read_bytes()
    loaded = TrainedEsn.load(tmp_path / "esn.npz")
    assert loaded.model.params == model.params
    for key in ("w_input", "w_reservoir", "w_out"):
        assert getattr(loaded.model, key).tobytes() == getattr(model, key).tobytes(), key


def test_save_copies_no_array(tmp_path):
    # np.savez copies the 5.12 MB recurrent matrix of 800 units to bytes
    model = esn_init(EsnParams(reservoir_size=800, seed=1))
    model.w_out = np.zeros(model.extended_dim)
    trained = TrainedEsn(model)
    tracemalloc.start()
    try:
        trained.save(tmp_path / "esn.npz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    with pytest.raises(FileNotFoundError):  # like np.savez, save makes no directory
        trained.save(tmp_path / "missing" / "esn.npz")


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(InvalidDataError, match="format"):
        TrainedEsn.load(path)
