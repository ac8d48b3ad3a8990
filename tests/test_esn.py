"""Echo state network: init, update law, state collection, training."""
import numpy as np
import pytest

from pneurc.datasets import Dataset
from pneurc.errors import (InvalidDataError, InvalidSpecError, ResourceError,
                           StateError)
from pneurc.esn import (EsnModel, EsnParams, EsnTrainer, TrainedEsn,
                        esn_collect_states, esn_init, esn_update,
                        spectral_radius_power_iteration)

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


def test_washout_requires_rows():
    params = EsnParams(**TINY)
    short = make_dataset(np.zeros(4), np.zeros(4))
    with pytest.raises(InvalidDataError, match="washout"):
        EsnTrainer(params).fit([short])
    trained = EsnTrainer(params).fit([make_dataset(np.arange(9.0), np.arange(9.0))])
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


def test_load_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, stuff=np.zeros(3))
    with pytest.raises(InvalidDataError, match="format"):
        TrainedEsn.load(path)
