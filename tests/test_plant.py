"""Play-operator stacks and the plant built as either device."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pneurc.errors import InvalidSpecError, NumericError
from pneurc.plant import (INPUT_PRESSURE_LIMIT, ActuatorConfig, DisturbanceSpec,
                          PlayOperatorStack, ReservoirConfig, apply_disturbance, plant_step)


def tiny_stack() -> PlayOperatorStack:
    return PlayOperatorStack(radii=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))


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
    np.testing.assert_array_equal(st.states, [2.0, 1.0])


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
    np.testing.assert_array_equal(a.states, [2.0, 1.0])
    np.testing.assert_array_equal(b.states, [-5.0, -4.0])


def test_play_stack_validation():
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([-1.0]), weights=np.array([1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack(radii=np.array([0.0, 1.0]), weights=np.array([1.0]))
    with pytest.raises(InvalidSpecError):
        PlayOperatorStack.uniform(0, 370.0, 60.0)
    with pytest.raises(NumericError):
        tiny_stack().step(float("nan"))


def test_play_states_read_and_set_as_arrays():
    stack = tiny_stack()
    stack.step(2.0)
    states = stack.states
    states[0] = 99.0  # a copy: the stack keeps its own states
    np.testing.assert_array_equal(stack.states, [2.0, 1.0])
    stack.states = np.array([0.5, 1.5])
    assert stack.step(1.0) == 1.0 + 1.5
    with pytest.raises(InvalidSpecError):
        stack.states = np.zeros(3)


# ---------------------------------------------------------------------------
# play stack properties on random finite input paths

INPUTS = st.floats(-1e3, 1e3)


@st.composite
def stacks(draw):
    n = draw(st.integers(1, 8))
    radii = sorted(draw(st.lists(st.floats(0.0, 200.0), min_size=n, max_size=n)))
    weights = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
    states = draw(st.lists(INPUTS, min_size=n, max_size=n))
    return PlayOperatorStack(radii=radii, weights=weights, states=states)


def test_hypothesis_profile_is_deterministic():
    assert settings.default.derandomize is True
    assert settings.default.deadline is None


# ties between a state and a band edge of the other sign of zero: the rule
# keeps the state, so its sign must survive
@example(stack=PlayOperatorStack(radii=[0.0], weights=[1.0], states=[0.0]), path=[-0.0])
@example(stack=PlayOperatorStack(radii=[0.0], weights=[1.0], states=[-0.0]), path=[0.0])
@settings(max_examples=100)
@given(stack=stacks(), path=st.lists(INPUTS, min_size=1, max_size=40))
def test_play_step_matches_numpy_rule(stack, path):
    s = stack.states
    for u in path:
        y = stack.step(u)
        s = np.maximum(u - stack.radii, np.minimum(u + stack.radii, s))
        assert stack.states.tobytes() == s.tobytes()  # bit for bit, signed zeros too
        assert abs(y - stack.weights @ s) <= 1e-12 * (np.abs(stack.weights) @ np.abs(s))


@settings(max_examples=100)
@given(stack=stacks(), corners=st.lists(INPUTS, min_size=1, max_size=8),
       n_fine=st.integers(2, 30))
def test_play_rate_independence_property(stack, corners, n_fine):
    # each segment between corners is monotone; stepping through it in
    # n_fine samples instead of one leaves the final states unchanged
    coarse, fine = stack.copy(), stack.copy()
    coarse.run(corners)
    fine.step(corners[0])
    for a, b in zip(corners, corners[1:]):
        fine.run(np.clip(np.linspace(a, b, n_fine)[1:], min(a, b), max(a, b)))
    np.testing.assert_array_equal(fine.states, coarse.states)


@settings(max_examples=100)
@given(stack=stacks(), history=st.lists(INPUTS, max_size=10), u_0=INPUTS, u_a=INPUTS,
       sub_loop=st.lists(INPUTS, max_size=20))
def test_play_return_point_memory(stack, history, u_0, u_a, sub_loop):
    # after a reversal at u_0 and a monotone move to u_a, any path that
    # stays between u_0 and u_a and returns to u_a restores the states at u_a
    stack.run(history + [u_0, u_a])
    at_u_a = stack.states
    lo, hi = min(u_0, u_a), max(u_0, u_a)
    stack.run(np.clip(sub_loop, lo, hi))
    stack.step(u_a)
    np.testing.assert_array_equal(stack.states, at_u_a)


@settings(max_examples=100)
@given(stack=stacks(), path=st.lists(INPUTS, min_size=1, max_size=40))
def test_play_states_stay_in_play_band(stack, path):
    for u in path:
        stack.step(u)
        s = stack.states
        assert np.all(u - stack.radii <= s) and np.all(s <= u + stack.radii)


# ---------------------------------------------------------------------------
# actuator surrogate


def test_actuator_settles_to_hysteresis_target():
    plant = ActuatorConfig().build()
    target = plant.hysteresis.copy().step(200.0)
    angle = 0.0
    for _ in range(2000):  # 10 s at 200 Hz, lag time constant 0.05 s
        angle = plant_step(plant, 200.0, dt=1 / 200)
    assert angle == pytest.approx(target, abs=1e-6)


def test_actuator_clamps_negative_demand():
    plant = ActuatorConfig().build()
    plant_step(plant, -10.0, dt=1 / 200)
    assert plant.clamp_events == 1
    assert plant.output >= 0.0


def test_actuator_angle_stays_in_bounds():
    plant = ActuatorConfig().build()
    for p in (450.0, 450.0, 0.0, 450.0):
        for _ in range(400):
            angle = plant_step(plant, p, dt=1 / 200)
            assert 0.0 <= angle <= 60.0


def test_actuator_full_scale_saturates_against_bound():
    plant = ActuatorConfig(full_scale_pressure=370.0).build()
    for _ in range(4000):
        angle = plant_step(plant, 450.0, dt=1 / 200)
    assert angle == pytest.approx(60.0, abs=1e-9)


def test_actuator_validation():
    with pytest.raises(InvalidSpecError):
        ActuatorConfig(lag_time_constant=0.0).build()
    with pytest.raises(NumericError):
        plant_step(ActuatorConfig().build(), float("inf"), dt=1 / 200)
    with pytest.raises(InvalidSpecError):
        plant_step(ActuatorConfig().build(), 100.0, dt=0.0)


# ---------------------------------------------------------------------------
# reservoir surrogate


def test_reservoir_rests_at_baseline():
    res = ReservoirConfig().build()
    assert res.output == 100.0
    for _ in range(100):
        p = plant_step(res, 0.0, dt=1 / 200)
    assert p == pytest.approx(100.0, abs=1e-9)


def test_reservoir_clamps_input_and_counts():
    res = ReservoirConfig().build()
    # the radius-0 operator holds the input the stack last saw
    plant_step(res, 500.0, dt=1 / 200)
    assert res.hysteresis.states[0] == INPUT_PRESSURE_LIMIT
    plant_step(res, -5.0, dt=1 / 200)
    assert res.clamp_events == 2
    assert res.hysteresis.states[0] == 0.0


def test_reservoir_pressure_never_negative():
    res = ReservoirConfig(baseline_pressure=0.0).build()
    for _ in range(50):
        assert plant_step(res, 0.0, dt=1 / 200) >= 0.0


def test_reservoir_settles_to_baseline_plus_stack():
    res = ReservoirConfig().build()
    target = res.baseline + res.hysteresis.copy().step(300.0)
    for _ in range(3000):
        p = plant_step(res, 300.0, dt=1 / 200)
    assert p == pytest.approx(target, abs=1e-6)


# ---------------------------------------------------------------------------
# disturbance


def test_disturbance_spec_validation():
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(t_start=5.0, t_end=5.0)
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(magnitude=-1.0)
    with pytest.raises(InvalidSpecError, match="twice it"):  # rng.uniform(-m, m) overflows
        DisturbanceSpec(magnitude=1e308)
    with pytest.raises(InvalidSpecError):
        DisturbanceSpec(seed=-1)


def test_disturbance_outside_window_is_inert():
    res = ReservoirConfig().build()
    plant_step(res, 200.0, dt=1 / 200)
    spec = DisturbanceSpec(t_start=10.0, t_end=25.0, magnitude=8.0)
    rng = np.random.default_rng(spec.seed)
    before = res.output
    assert apply_disturbance(res, spec, 9.99, rng) is False
    assert apply_disturbance(res, spec, 25.0, rng) is False
    assert res.output == before
    # no draws happened outside the window, so the stream is still fresh
    assert rng.uniform() == np.random.default_rng(spec.seed).uniform()


def test_disturbance_additive_pressure_moves_reservoir():
    res = ReservoirConfig().build()
    plant_step(res, 200.0, dt=1 / 200)
    spec = DisturbanceSpec(t_start=10.0, t_end=25.0, magnitude=8.0)
    rng = np.random.default_rng(spec.seed)
    before = res.output
    assert apply_disturbance(res, spec, 10.0, rng) is True
    assert res.output != before
    assert abs(res.output - before) <= 8.0


def test_disturbance_is_reproducible():
    def run(seed):
        res = ReservoirConfig().build()
        plant_step(res, 200.0, dt=1 / 200)
        spec = DisturbanceSpec(t_start=0.0, t_end=1.0, magnitude=8.0, seed=seed)
        rng = np.random.default_rng(spec.seed)
        for t in np.linspace(0.0, 0.9, 10):
            apply_disturbance(res, spec, float(t), rng)
        return res.output

    assert run(123) == run(123)
    assert run(123) != run(124)
