"""Whole-reference feedforward runs against a plain per-tick reference.

``run_closed_loop`` takes the feedforward signals for the whole reference
from one call made before its tick loop. The reference below computes a
run the way a live controller would, one tick at a time: push the taps,
run the scalar low-pass recurrence, step the reservoir with the
disturbance hook, read out one state, then apply PD and the actuator.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pneurc.control import pd_step, run_closed_loop
from pneurc.datasets import Dataset
from pneurc.esn import EsnParams, EsnTrainer, esn_update
from pneurc.fprc import FprcTrainer, convert_angle
from pneurc.fuzzy import rule_outputs
from pneurc.plant import (DISTURBANCE_MODES, INPUT_PRESSURE_LIMIT, DisturbanceSpec,
                          actuator_step, apply_disturbance, reservoir_step)
from pneurc.signals import TimeSeries

TOL = 1e-9
FF_COLUMNS = ("p_ff", "p_i", "p_o", "p_o_filt", "disturbed")


def push(taps: np.ndarray, value: float) -> None:
    taps[1:] = taps[:-1]
    taps[0] = value


def readout(ruleset, x: np.ndarray) -> float:
    """Normalized Gaussian blend of the rule outputs at one state."""
    d2 = np.sum((ruleset.centers - x) ** 2, axis=1)
    beta = np.exp(-(d2 - d2.min()) / (2.0 * ruleset.sigma ** 2))
    return float(beta @ rule_outputs(ruleset, x) / beta.sum())


def fprc_ticker(model, reservoir, dt, disturbance):
    """Per-tick FPRC pipeline: tick(k, theta_d) -> (p_ff, p_i, p_o, p_o_filt, disturbed)."""
    params = model.params
    theta_taps = np.zeros(params.n_y)
    p_taps = np.zeros(params.n_u)
    rng = np.random.default_rng(disturbance.seed) if disturbance is not None else None
    filt = None

    def tick(k, theta_d):
        nonlocal filt
        push(theta_taps, theta_d)
        if not model.reservoir_features:
            return readout(model.ruleset, theta_taps), 0.0, 0.0, 0.0, 0.0
        disturbed = False
        if disturbance is not None:
            disturbed = apply_disturbance(reservoir, disturbance, k * dt, rng)
        p_i = convert_angle(theta_d, params.k_in, params.input_limit)
        p_o = reservoir_step(reservoir, p_i, dt)
        if filt is None:
            filt = p_o if params.filter_init == "first-sample" else 0.0
        filt = params.epsilon * p_o + (1.0 - params.epsilon) * filt
        push(p_taps, filt)
        x = np.concatenate([theta_taps, p_taps])
        return readout(model.ruleset, x), p_i, p_o, filt, float(disturbed)

    return tick


def esn_ticker(trained):
    """Per-tick ESN readout from a cold state, update after the readout."""
    model = trained.model.cold_copy()
    taps = np.zeros(model.params.n_y)

    def tick(k, theta_d):
        push(taps, theta_d)
        p_ff = float(model.w_out @ np.concatenate(([1.0], taps, model.state)))
        esn_update(model, theta_d)
        return p_ff, 0.0, 0.0, 0.0, 0.0

    return tick


def per_tick_run(tick, reference, actuator, gains):
    """The closed loop with the feedforward queried once per tick."""
    dt = reference.dt
    out = {name: np.zeros(len(reference)) for name in FF_COLUMNS + ("theta",)}
    prev_error = None
    for k, theta_d in enumerate(reference.values.tolist()):
        signals = tick(k, theta_d)
        for name, value in zip(FF_COLUMNS, signals):
            out[name][k] = value
        theta = actuator.angle_state
        error = theta_d - theta
        p_d = signals[0] + pd_step(error, prev_error, gains.pd, dt)
        actuator_step(actuator, min(max(p_d, 0.0), INPUT_PRESSURE_LIMIT), dt)
        out["theta"][k] = theta
        prev_error = error
    return out


def assert_run_matches(log, expected):
    for name in FF_COLUMNS + ("theta",):
        np.testing.assert_allclose(getattr(log, name), expected[name], rtol=0.0, atol=TOL,
                                   err_msg=name)
    np.testing.assert_array_equal(log.disturbed, expected["disturbed"])


def ref_sine(duration=2.0, dt=1 / 200):
    t = np.arange(round(duration / dt)) * dt
    return TimeSeries(values=20.0 * np.sin(2 * np.pi * 0.5 * t) + 25.0, dt=dt, unit="deg")


@pytest.fixture(scope="module")
def fprc_model(small_dataset, default_config):
    return FprcTrainer(default_config.fprc_params(), seed=1).fit([small_dataset])


@pytest.fixture(scope="module")
def fuzzy_linear_model(small_dataset, default_config):
    return FprcTrainer(default_config.fprc_params(), seed=1,
                       reservoir_features=False).fit([small_dataset])


def compare_fprc(model, reference, default_config, disturbance=None):
    gains = default_config.controller_gains()
    reservoir = default_config.build_reservoir() if model.reservoir_features else None
    log = run_closed_loop(reference, model.feedforward(reservoir),
                          default_config.build_actuator(), gains, disturbance=disturbance)
    twin = default_config.build_reservoir() if model.reservoir_features else None
    expected = per_tick_run(fprc_ticker(model, twin, reference.dt, disturbance), reference,
                            default_config.build_actuator(), gains)
    assert_run_matches(log, expected)
    return log


@pytest.mark.parametrize("mode", DISTURBANCE_MODES)
def test_fprc_run_matches_per_tick_reference(fprc_model, default_config, mode):
    spec = DisturbanceSpec(window=(0.5, 1.5), mode=mode, magnitude=8.0, seed=3)
    log = compare_fprc(fprc_model, ref_sine(), default_config, disturbance=spec)
    in_window = (log.t >= 0.5) & (log.t < 1.5)
    np.testing.assert_array_equal(log.disturbed, in_window.astype(float))
    assert log.p_o_filt[0] == log.p_o[0]  # first-sample filter init


def test_fuzzy_linear_run_matches_per_tick_reference(fuzzy_linear_model, default_config):
    assert fuzzy_linear_model.kind == "fuzzy-linear"
    assert fuzzy_linear_model.ruleset.state_dim == fuzzy_linear_model.params.n_y
    # the variant has no reservoir, so a disturbance has nothing to act on
    spec = DisturbanceSpec(window=(0.5, 1.5), magnitude=8.0)
    log = compare_fprc(fuzzy_linear_model, ref_sine(), default_config, disturbance=spec)
    for name in ("p_i", "p_o", "p_o_filt", "disturbed"):
        np.testing.assert_array_equal(getattr(log, name), 0.0)


def test_esn_run_matches_per_tick_reference(default_config):
    rng = np.random.default_rng(0)
    theta = 30.0 + 20.0 * np.sin(np.linspace(0.0, 12.0, 400)) + rng.normal(0, 0.1, 400)
    z = np.zeros_like(theta)
    ds = Dataset(theta=theta, p_exp=7.0 * theta + 5.0, p_i=z, p_o=z, dt=1 / 200)
    trained = EsnTrainer(EsnParams(reservoir_size=15, washout=10, n_y=3, seed=2),
                         alpha=1e-6).fit([ds])
    gains = default_config.controller_gains()
    ff = trained.feedforward()
    logs = [run_closed_loop(ref_sine(), ff, default_config.build_actuator(), gains)
            for _ in range(2)]
    expected = per_tick_run(esn_ticker(trained), ref_sine(),
                            default_config.build_actuator(), gains)
    for log in logs:  # every run starts from a cold reservoir state
        assert_run_matches(log, expected)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(values=st.lists(st.floats(-20.0, 90.0), min_size=1, max_size=300),
       start=st.floats(0.0, 1.5), length=st.floats(0.005, 1.0),
       mode=st.sampled_from(DISTURBANCE_MODES), magnitude=st.floats(0.0, 30.0),
       seed=st.integers(0, 2 ** 16))
def test_fprc_run_matches_per_tick_reference_property(fprc_model, default_config, values,
                                                      start, length, mode, magnitude, seed):
    reference = TimeSeries(values=np.array(values), dt=1 / 200, unit="deg")
    spec = DisturbanceSpec(window=(start, start + length), mode=mode,
                           magnitude=magnitude, seed=seed)
    compare_fprc(fprc_model, reference, default_config, disturbance=spec)
