"""The reservoir-plus-fuzzy feedforward pipeline and its linear ablation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneurc.datasets import Dataset
from pneurc.errors import (DimensionError, InvalidDataError, InvalidSpecError,
                           NumericError)
from pneurc.fprc import (FprcModel, FprcParams, FprcTrainer, _lowpass_series,
                         convert_angle, drive_reservoir, fprc_collect_training,
                         fprc_weight_analysis)
from pneurc.fuzzy import fuzzy_infer_batch
from pneurc.training import ridge_solve


def make_dataset(theta, p_exp, p_o=None, dt=1 / 200):
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    p_o = np.zeros(n) if p_o is None else np.asarray(p_o, dtype=float)
    return Dataset(theta=theta, p_exp=np.asarray(p_exp, dtype=float),
                   p_i=np.zeros(n), p_o=p_o, dt=dt)


# ---------------------------------------------------------------------------
# elementary stages


def test_convert_angle():
    assert convert_angle(30.0, 7.0, 450.0) == 210.0
    assert convert_angle(100.0, 7.0, 450.0) == 450.0   # clamped to the supply limit
    assert convert_angle(-5.0, 7.0, 450.0) == 0.0
    assert convert_angle(100.0, 7.0, limit=800.0) == 700.0
    with pytest.raises(NumericError):
        convert_angle(float("nan"), 7.0, 450.0)


def test_params_validation():
    with pytest.raises(InvalidSpecError):
        FprcParams(k_in=0.0)
    with pytest.raises(InvalidSpecError):
        FprcParams(epsilon=0.0)
    with pytest.raises(InvalidSpecError):
        FprcParams(epsilon=1.5)
    with pytest.raises(InvalidSpecError):
        FprcParams(n_u=0)
    assert FprcParams(epsilon=1.0).epsilon == 1.0
    assert FprcParams().replace(n_c=2).n_c == 2


def test_lowpass_first_sample_init():
    # first-sample init: the first output equals the first input exactly
    out = _lowpass_series(np.array([120.0, 50.0]), FprcParams(epsilon=0.01))
    assert out[0] == pytest.approx(120.0)
    assert out[1] == pytest.approx(0.01 * 50.0 + 0.99 * 120.0)


def test_lowpass_zero_init():
    # a filter that starts from zero memory is a record that starts at zero
    out = _lowpass_series(np.array([0.0, 120.0]), FprcParams(epsilon=0.01))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.2)


def test_lowpass_matches_scalar_recursion(rng):
    p = rng.uniform(80.0, 300.0, size=50)
    out = _lowpass_series(p, FprcParams(epsilon=0.03))
    filt = p[0]
    for k, v in enumerate(p):
        filt = 0.03 * v + 0.97 * filt
        assert out[k] == pytest.approx(filt, rel=1e-14)


LOWPASS_EPSILONS = (1e-3, 0.01, 0.1, 0.37, 1.0)
# the record as it is, whose first sample the filter starts at, or behind a
# zero sample, which starts it from zero memory
RECORD_STARTS = ("first-sample", "zero")


def _started(record: np.ndarray, start: str) -> np.ndarray:
    return record if start == "first-sample" else np.concatenate([[0.0], record])


@pytest.mark.parametrize("start", RECORD_STARTS)
@pytest.mark.parametrize("eps", LOWPASS_EPSILONS)
def test_lowpass_step_response_closed_form(eps, start):
    # a unit step from zero memory reaches 1 - (1 - eps)^(k+1) after k+1 samples;
    # from first-sample memory it starts settled
    out = _lowpass_series(_started(np.ones(3000), start), FprcParams(epsilon=eps))
    k = np.arange(3000)
    expected = 1.0 - (1.0 - eps) ** (k + 1) if start == "zero" else np.ones(3000)
    np.testing.assert_allclose(out[-3000:], expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("start", RECORD_STARTS)
@pytest.mark.parametrize("eps", LOWPASS_EPSILONS)
def test_lowpass_matches_lfilter_bitwise(train_dataset, eps, start):
    # scipy is not a dependency; where it is installed, lfilter is the oracle
    signal = pytest.importorskip("scipy.signal")
    p_o = _started(train_dataset.p_o, start)
    ref, _ = signal.lfilter([eps], [1.0, -(1.0 - eps)], p_o, zi=np.array([(1.0 - eps) * p_o[0]]))
    out = _lowpass_series(p_o, FprcParams(epsilon=eps))
    assert out.dtype == ref.dtype and out.tobytes() == ref.tobytes()


def test_readout_state_layout():
    X, _ = fprc_collect_training([10.0, 20.0], [0.0, 0.0], p_o=[100.0, 100.0],
                                 params=FprcParams(n_y=2, n_u=2))
    # rows are [theta taps, filtered pressure taps], most recent first
    np.testing.assert_array_equal(X, [[10.0, 0.0, 100.0, 0.0], [20.0, 10.0, 100.0, 100.0]])


# ---------------------------------------------------------------------------
# training-matrix assembly


def test_tap_matrix_via_fuzzy_linear_collect():
    X, y = fprc_collect_training([1.0, 2.0, 3.0], [7.0, 8.0, 9.0],
                                 params=FprcParams(n_y=2), reservoir_features=False)
    np.testing.assert_array_equal(X, [[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]])
    np.testing.assert_array_equal(y, [7.0, 8.0, 9.0])


def test_collect_filters_recorded_pressure():
    theta = np.array([1.0, 2.0])
    p_o = np.array([100.0, 200.0])
    X, _ = fprc_collect_training(theta, theta, p_o=p_o,
                                 params=FprcParams(n_y=1, n_u=1, epsilon=0.5))
    # filtered series: [100, 150]; columns are [theta, p_filt]
    np.testing.assert_allclose(X, [[1.0, 100.0], [2.0, 150.0]])


def test_collect_validation():
    params = FprcParams()
    with pytest.raises(InvalidSpecError):
        fprc_collect_training([1.0], [1.0])
    with pytest.raises(InvalidDataError):
        fprc_collect_training([1.0, 2.0], [1.0], params=params)
    with pytest.raises(InvalidSpecError):
        fprc_collect_training([1.0], [1.0], params=params)  # no p_o, no reservoir
    with pytest.raises(InvalidDataError):
        fprc_collect_training([1.0, 2.0], [1.0, 2.0], p_o=[1.0], params=params)
    with pytest.raises(InvalidDataError):
        fprc_collect_training([], [], params=params, reservoir_features=False)


def test_simulated_record_matches_generated_dataset(small_dataset, default_config):
    params = default_config.fprc_params()
    p_i, p_o, disturbed = drive_reservoir(small_dataset.theta, default_config.build_reservoir(),
                                          params.k_in, small_dataset.dt)
    np.testing.assert_array_equal(p_i, small_dataset.p_i)
    np.testing.assert_array_equal(p_o, small_dataset.p_o)
    np.testing.assert_array_equal(disturbed, 0.0)


# ---------------------------------------------------------------------------
# model behaviour


def test_single_rule_pipeline_reduces_to_affine(rng):
    # epsilon = 1 disables the filter, single taps and one rule collapse the
    # pipeline to ridge regression on [1, theta, p_o]
    params = FprcParams(epsilon=1.0, n_u=1, n_y=1, n_c=1, alpha=1e-10)
    theta = rng.uniform(0.0, 60.0, size=400)
    p_o = rng.uniform(80.0, 300.0, size=400)
    p_exp = 3.0 * theta + 0.5 * p_o + 20.0
    ds = make_dataset(theta, p_exp, p_o=p_o)
    model = FprcTrainer(params, seed=0).fit([ds])
    yhat, y = model.evaluate(ds)
    np.testing.assert_allclose(yhat, y, atol=1e-4)
    X = np.column_stack([np.ones(400), theta, p_o])
    w = ridge_solve(X, p_exp, alpha=1e-10)
    np.testing.assert_allclose(model.ruleset.w_out[0], w, atol=1e-6)


def test_evaluate_matches_manual_inference(small_dataset, default_config):
    trainer = FprcTrainer(default_config.fprc_params(), seed=1)
    model = trainer.fit([small_dataset])
    yhat, y = model.evaluate(small_dataset)
    X, y2 = fprc_collect_training(small_dataset.theta, small_dataset.p_exp,
                                  p_o=small_dataset.p_o, params=model.params)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(yhat, fuzzy_infer_batch(model.ruleset, X))
    assert yhat.shape == (len(small_dataset),)


def test_feedforward_run_matches_vectorized_evaluate(small_dataset, default_config):
    # the record was generated with a fresh reservoir, so driving another
    # fresh one with its angle reproduces its reservoir pressure
    model = FprcTrainer(default_config.fprc_params(), seed=1).fit([small_dataset])
    yhat, _ = model.evaluate(small_dataset)
    ff = model.feedforward(default_config.build_reservoir())
    p_ff, p_i, p_o, _, _ = ff(small_dataset.theta, small_dataset.dt)
    np.testing.assert_array_equal(p_o, small_dataset.p_o)
    np.testing.assert_array_equal(p_ff, yhat)


def test_feedforward_requires_reservoir(small_dataset, default_config):
    # run drives the reservoir, so run checks it; feedforward only binds it
    model = FprcTrainer(default_config.fprc_params(), seed=1).fit([small_dataset])
    ff = model.feedforward()
    with pytest.raises(InvalidSpecError, match="needs a reservoir"):
        ff(small_dataset.theta, small_dataset.dt)
    with pytest.raises(InvalidSpecError, match="needs a reservoir"):
        model.run(small_dataset.theta, small_dataset.dt)


def test_model_dim_check():
    params = FprcParams(n_y=5, n_u=3)
    with pytest.raises(DimensionError):
        FprcModel(params, np.zeros((1, 4)), np.zeros((1, 5)))


def test_model_reads_out_with_the_params_sigma():
    params = FprcParams(n_y=1, n_u=1, sigma=3.0)
    model = FprcModel(params, np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((2, 3)))
    assert model.ruleset.sigma == 3.0


def test_trainer_rejects_empty_fit(default_config):
    with pytest.raises(InvalidDataError):
        FprcTrainer(default_config.fprc_params(), seed=0).fit([])


def test_trainer_fold_changes_clustering_seed(small_dataset, default_config):
    trainer = FprcTrainer(default_config.fprc_params(), seed=1)
    m0 = trainer.fit([small_dataset], fold=0)
    m0b = trainer.fit([small_dataset], fold=0)
    m1 = trainer.fit([small_dataset], fold=1)
    np.testing.assert_array_equal(m0.ruleset.centers, m0b.ruleset.centers)
    assert not np.array_equal(m0.ruleset.centers, m1.ruleset.centers)


# ---------------------------------------------------------------------------
# artifacts


def test_model_json_round_trip(tmp_path, small_dataset, default_config):
    model = FprcTrainer(default_config.fprc_params(), seed=1).fit([small_dataset])
    path = tmp_path / "model.json"
    model.save(path)
    loaded = FprcModel.load(path)
    assert loaded.kind == "fprc"
    assert loaded.params == model.params
    y1, _ = model.evaluate(small_dataset)
    y2, _ = loaded.evaluate(small_dataset)
    np.testing.assert_array_equal(y1, y2)


def test_fuzzy_linear_json_round_trip(tmp_path, small_dataset, default_config):
    trainer = FprcTrainer(default_config.fprc_params(), seed=1,
                          reservoir_features=False)
    model = trainer.fit([small_dataset])
    path = tmp_path / "model.json"
    model.save(path)
    loaded = FprcModel.load(path)
    assert loaded.kind == "fuzzy-linear"
    y1, _ = model.evaluate(small_dataset)
    y2, _ = loaded.evaluate(small_dataset)
    np.testing.assert_array_equal(y1, y2)


@settings(max_examples=40)
@given(data=st.data())
def test_model_json_round_trip_property(tmp_path_factory, data):
    positive = st.floats(1e-9, 1e9)
    params = FprcParams(
        k_in=data.draw(positive), epsilon=data.draw(st.floats(1e-9, 1.0)),
        n_u=data.draw(st.integers(1, 4)), n_y=data.draw(st.integers(1, 4)),
        n_c=data.draw(st.integers(1, 5)), sigma=data.draw(positive),
        fuzziness=data.draw(st.floats(1.001, 10.0)), alpha=data.draw(positive),
        fcm_tol=data.draw(positive), fcm_max_iter=data.draw(st.integers(1, 10 ** 6)))
    reservoir_features = data.draw(st.booleans())
    dim = params.n_y + (params.n_u if reservoir_features else 0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** data.draw(st.integers(-5, 5))
    centers = rng.normal(size=(params.n_c, dim)) * scale
    w_out = rng.normal(size=(params.n_c, dim + 1)) * scale
    model = FprcModel(params, centers, w_out, reservoir_features)
    path = tmp_path_factory.mktemp("fprc") / "model.json"
    model.save(path)
    loaded = FprcModel.load(path)
    assert loaded.params == params and loaded.kind == model.kind
    np.testing.assert_array_equal(loaded.ruleset.centers, centers)
    np.testing.assert_array_equal(loaded.ruleset.w_out, w_out)
    assert loaded.ruleset.sigma == params.sigma


def test_model_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}\n')
    with pytest.raises(InvalidDataError, match="format"):
        FprcModel.load(path)


# ---------------------------------------------------------------------------
# weight analysis


def test_weight_analysis_shares(small_dataset, default_config):
    params = default_config.fprc_params().replace(n_c=2)
    shares = fprc_weight_analysis(small_dataset.theta, small_dataset.p_exp,
                                  small_dataset.p_o, params, seed=0)
    total = (shares["mean_bias_share"] + shares["mean_theta_share"]
             + shares["mean_reservoir_share"])
    assert total == pytest.approx(1.0)
    assert shares["per_rule"].shape == (2, 1 + params.n_y + params.n_u)
    assert shares["mean_reservoir_share"] > 0.0
