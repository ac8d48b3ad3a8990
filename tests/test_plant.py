"""Play-operator stacks and the two device surrogates."""
import numpy as np
import pytest

from pneurc.errors import InvalidSpecError, NumericError
from pneurc.plant import (DISTURBANCE_MODES, INPUT_PRESSURE_LIMIT, ActuatorPlant,
                          DisturbanceSpec, PlayOperatorStack, ReservoirPlant,
                          actuator_step, apply_disturbance, reservoir_step)


def tiny_stack() -> PlayOperatorStack:
    return PlayOperatorStack(radii=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]),
                             input_unit="", output_unit="")


# ---------------------------------------------------------------------------
# play operator semantics


def test_play_single_operator_hand_values():
    # one operator with radius 1: dead band of half-width 1 around the state
    st = PlayOperatorStack(radii=np.array([1.0]), weights=np.array([1.0]))
    assert st.step(2.0) == pytest.approx(1.0)    # pushed up to u - r
    assert st.step(1.5) == pytest.approx(1.0)    # inside the band: unchanged
    assert st.step(0.5) == pytest.approx(1.0)    # still inside ([-0.5, 1.5])
    assert st.step(-0.5) == pytest.approx(0.5)   # dragged down to u + r
    assert st.step(3.0) == pytest.approx(2.0)


def test_play_stack_sums_weighted_states():
    st = tiny_stack()
    # u=2: radius-0 operator follows exactly (2), radius-1 lags to 1
    assert st.step(2.0) == pytest.approx(3.0)
    assert st.last_input == 2.0


def test_play_virgin_branch_reaches_output_span():
    st = PlayOperatorStack.uniform(8, input_span=370.0, output_span=60.0)
    ramp = np.linspace(0.0, 370.0, 1000)
    out = st.run(ramp)
    assert out[-1] == pytest.approx(60.0, abs=1e-9)
    assert np.all(np.diff(out) >= -1e-12)


def test_play_rate_independence_on_refined_path():
    # a play operator is rate independent: re-sampling the same monotone
    # path more finely cannot change where the states end up
    coarse = np.array([0.0, 100.0, 40.0, 220.0])
    fine = np.concatenate([np.linspace(0.0, 100.0, 50),
                           np.linspace(100.0, 40.0, 50),
                           np.linspace(40.0, 220.0, 50)])
    a = PlayOperatorStack.uniform(8, 370.0, 60.0)
    b = PlayOperatorStack.uniform(8, 370.0, 60.0)
    ya = a.run(coarse)[-1]
    yb = b.run(fine)[-1]
    assert ya == yb
    np.testing.assert_array_equal(a.states, b.states)


def test_play_loop_closes_on_periodic_input():
    # triangle wave: after the first ascent the output must repeat each cycle
    up = np.linspace(50.0, 300.0, 200)
    down = np.linspace(300.0, 50.0, 200)
    cycle = np.concatenate([up, down])
    st = PlayOperatorStack.uniform(8, 370.0, 60.0)
    y1 = st.run(cycle)
    y2 = st.run(cycle)
    y3 = st.run(cycle)
    np.testing.assert_allclose(y2, y3, atol=1e-12)
    # and the loop has genuine width: mid-ramp values differ between branches
    assert abs(y2[100] - y2[300]) > 1.0


def test_play_run_matches_step_loop():
    seq = np.array([0.0, 120.0, 60.0, 200.0, 10.0])
    a = PlayOperatorStack.uniform(4, 370.0, 60.0)
    b = PlayOperatorStack.uniform(4, 370.0, 60.0)
    ran = a.run(seq)
    stepped = np.array([b.step(u) for u in seq])
    np.testing.assert_array_equal(ran, stepped)


def test_play_copy_is_independent():
    a = tiny_stack()
    a.step(2.0)
    b = a.copy()
    b.step(-5.0)
    assert a.last_input == 2.0
    assert b.last_input == -5.0
    assert not np.array_equal(a.states, b.states)


def test_play_stack_validation():
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([-1.0]), weights=np.array([1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([0.0, 1.0]), weights=np.array([1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack.uniform(0, 370.0, 60.0)
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack.uniform(8, 370.0, 60.0, radius_span=370.0)
    with pytest.raises(NumericError):
        tiny_stack().step(float("nan"))


# ---------------------------------------------------------------------------
# actuator surrogate


def test_actuator_settles_to_hysteresis_target():
    plant = ActuatorPlant.default()
    target = plant.hysteresis.copy().step(200.0)
    angle = 0.0
    for _ in range(2000):  # 10 s at 200 Hz, lag time constant 0.05 s
        angle = actuator_step(plant, 200.0, dt=1 / 200)
    assert angle == pytest.approx(target, abs=1e-6)


def test_actuator_clamps_negative_demand():
    plant = ActuatorPlant.default()
    actuator_step(plant, -10.0, dt=1 / 200)
    assert plant.clamp_events == 1
    assert plant.angle_state >= 0.0


def test_actuator_angle_stays_in_bounds():
    plant = ActuatorPlant.default()
    for p in (450.0, 450.0, 0.0, 450.0):
        for _ in range(400):
            angle = actuator_step(plant, p, dt=1 / 200)
            assert 0.0 <= angle <= 60.0


def test_actuator_full_scale_saturates_against_bound():
    plant = ActuatorPlant.default(full_scale_pressure=370.0)
    for _ in range(4000):
        angle = actuator_step(plant, 450.0, dt=1 / 200)
    assert angle == pytest.approx(60.0, abs=1e-9)


def test_actuator_validation():
    with pytest.raises(InvalidSpecError):
        ActuatorPlant.default(lag_time_constant=0.0)
    with pytest.raises(NumericError):
        actuator_step(ActuatorPlant.default(), float("inf"), dt=1 / 200)
    with pytest.raises(InvalidSpecError):
        actuator_step(ActuatorPlant.default(), 100.0, dt=0.0)


# ---------------------------------------------------------------------------
# reservoir surrogate


def test_reservoir_rests_at_baseline():
    res = ReservoirPlant.default()
    assert res.pressure == 100.0
    for _ in range(100):
        p = reservoir_step(res, 0.0, dt=1 / 200)
    assert p == pytest.approx(100.0, abs=1e-9)


def test_reservoir_clamps_input_and_counts():
    res = ReservoirPlant.default()
    reservoir_step(res, 500.0, dt=1 / 200)
    assert res.hysteresis.last_input == pytest.approx(INPUT_PRESSURE_LIMIT)
    reservoir_step(res, -5.0, dt=1 / 200)
    assert res.clamp_events == 2
    assert res.hysteresis.last_input == pytest.approx(0.0)


def test_reservoir_pressure_never_negative():
    res = ReservoirPlant.default(baseline_pressure=0.0)
    for _ in range(50):
        assert reservoir_step(res, 0.0, dt=1 / 200) >= 0.0


def test_reservoir_settles_to_baseline_plus_stack():
    res = ReservoirPlant.default()
    target = res.baseline_pressure + res.hysteresis.copy().step(300.0)
    for _ in range(3000):
        p = reservoir_step(res, 300.0, dt=1 / 200)
    assert p == pytest.approx(target, abs=1e-6)


# ---------------------------------------------------------------------------
# disturbance


def test_disturbance_spec_validation():
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(window=(5.0, 5.0))
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(mode="zap")
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(magnitude=-1.0)
    assert set(DISTURBANCE_MODES) == {"additive-pressure", "state-kick"}


def test_disturbance_outside_window_is_inert():
    res = ReservoirPlant.default()
    reservoir_step(res, 200.0, dt=1 / 200)
    spec = DisturbanceSpec(window=(10.0, 25.0), magnitude=8.0)
    rng = np.random.default_rng(spec.seed)
    before = res.pressure
    assert apply_disturbance(res, spec, 9.99, rng) is False
    assert apply_disturbance(res, spec, 25.0, rng) is False
    assert res.pressure == before
    # no draws happened outside the window, so the stream is still fresh
    assert rng.uniform() == np.random.default_rng(spec.seed).uniform()


def test_disturbance_additive_pressure_moves_reservoir():
    res = ReservoirPlant.default()
    reservoir_step(res, 200.0, dt=1 / 200)
    spec = DisturbanceSpec(window=(10.0, 25.0), magnitude=8.0)
    rng = np.random.default_rng(spec.seed)
    before = res.pressure
    assert apply_disturbance(res, spec, 10.0, rng) is True
    assert res.pressure != before
    assert abs(res.pressure - before) <= 8.0


def test_disturbance_state_kick_respects_play_bands():
    res = ReservoirPlant.default()
    for _ in range(10):
        reservoir_step(res, 250.0, dt=1 / 200)
    spec = DisturbanceSpec(window=(0.0, 1.0), mode="state-kick", magnitude=50.0)
    rng = np.random.default_rng(7)
    assert apply_disturbance(res, spec, 0.5, rng) is True
    stack = res.hysteresis
    lo = stack.last_input - stack.radii
    hi = stack.last_input + stack.radii
    assert np.all(stack.states >= lo - 1e-12)
    assert np.all(stack.states <= hi + 1e-12)


def test_disturbance_is_reproducible():
    def run(seed):
        res = ReservoirPlant.default()
        reservoir_step(res, 200.0, dt=1 / 200)
        spec = DisturbanceSpec(window=(0.0, 1.0), magnitude=8.0, seed=seed)
        rng = np.random.default_rng(spec.seed)
        for t in np.linspace(0.0, 0.9, 10):
            apply_disturbance(res, spec, float(t), rng)
        return res.pressure

    assert run(123) == run(123)
    assert run(123) != run(124)
