"""Control laws, the tracking harness, and loop-area measurements."""
import numpy as np
import pytest

from pneurc.control import (ControllerGains, PdGains, PiGains, RUN_LOG_COLUMNS,
                            RunLog, disturbance_window_rmse,
                            extract_hysteresis_loop, pd_step, pi_pressure_step,
                            report_to_csv, run_closed_loop, run_open_loop,
                            shoelace_area, tracking_report)
from pneurc.errors import (DimensionError, InvalidDataError, InvalidSpecError,
                           NumericError)
from pneurc.fprc import drive_reservoir
from pneurc.plant import (INPUT_PRESSURE_LIMIT, ActuatorPlant, DisturbanceSpec,
                          ReservoirPlant)
from pneurc.signals import TimeSeries


class ConstantModel:
    """Feedforward stub emitting a fixed pressure; with a reservoir it
    drives it from the reference, disturbance included."""

    def __init__(self, p_ff=100.0, reservoir=None):
        self.p_ff = p_ff
        self.reservoir = reservoir
        self.calls = 0

    def run(self, theta_d, dt, disturbance=None):
        self.calls += 1
        n = len(theta_d)
        disturbed = np.zeros(n)
        if self.reservoir is not None:
            _, _, disturbed = drive_reservoir(theta_d, self.reservoir, 7.0,
                                              INPUT_PRESSURE_LIMIT, dt, disturbance)
        return (np.full(n, self.p_ff), np.full(n, 1.0), np.full(n, 2.0),
                np.full(n, 3.0), disturbed)


class DivergingModel(ConstantModel):
    def __init__(self):
        super().__init__(p_ff=float("inf"))


def ref_sine(duration=2.0, dt=1 / 200, amplitude=20.0, offset=25.0, freq=0.5):
    t = np.arange(round(duration / dt)) * dt
    return TimeSeries(values=amplitude * np.sin(2 * np.pi * freq * t) + offset,
                      dt=dt, unit="deg")


def make_log(n=10, **overrides):
    cols = {name: np.zeros(n) for name in
            ("t", "theta_d", "theta", "e_theta", "p_ff", "p_fb", "p_d",
             "p_i", "p_o", "p_o_filt", "disturbed")}
    cols["t"] = np.arange(n, dtype=float)
    cols.update({k: np.asarray(v, dtype=float) for k, v in overrides.items()})
    return RunLog(**cols)


# ---------------------------------------------------------------------------
# control laws


def test_pd_step_hand_values():
    gains = PdGains(kp=0.5, kd=0.005)
    assert pd_step(1.0, None, gains, dt=1 / 200) == pytest.approx(0.5)
    # error jumps 0 -> 1 in one 5 ms tick: derivative term 0.005 * 200 = 1
    assert pd_step(1.0, 0.0, gains, dt=1 / 200) == pytest.approx(1.5)
    assert pd_step(0.0, 1.0, gains, dt=1 / 200) == pytest.approx(-1.0)
    with pytest.raises(InvalidSpecError):
        pd_step(1.0, 0.0, gains, dt=0.0)


def test_pd_default_gains_preserve_ratio():
    gains = PdGains()
    assert gains.kd / gains.kp == pytest.approx(0.01)


def test_pi_pressure_step_ideal_passthrough():
    cmd, integ = pi_pressure_step(220.0, 135.0, 5.0, PiGains(), dt=1 / 200)
    assert cmd == 220.0
    assert integ == 5.0


def test_pi_pressure_step_dynamic_accumulates():
    gains = PiGains(kp=0.03, ki=1e-6)
    cmd, integ = pi_pressure_step(110.0, 100.0, 0.0, gains, dt=0.005, ideal=False)
    assert integ == pytest.approx(0.05)
    assert cmd == pytest.approx(0.03 * 10.0 + 1e-6 * 0.05)
    # anti-windup clamp
    _, integ = pi_pressure_step(1e9, 0.0, 0.0, gains, dt=1.0, ideal=False,
                                integ_limit=10.0)
    assert integ == 10.0


# ---------------------------------------------------------------------------
# loop harness


def test_closed_loop_row_invariants():
    log = run_closed_loop(ref_sine(), ConstantModel(), ActuatorPlant.default(),
                          ControllerGains(), scenario="sine05", method="fprc+pd")
    np.testing.assert_array_equal(log.p_d, log.p_ff + log.p_fb)
    np.testing.assert_array_equal(log.e_theta, log.theta_d - log.theta)
    assert log.theta[0] == 0.0  # measurement precedes the first actuation
    assert log.t[0] == 0.0 and log.t[-1] == pytest.approx(2.0 - 1 / 200)
    assert log.scenario == "sine05" and log.method == "fprc+pd"
    assert len(log) == 400


def test_closed_loop_pd_only_tracks():
    log = run_closed_loop(ref_sine(duration=4.0), None, ActuatorPlant.default(),
                          ControllerGains())
    np.testing.assert_array_equal(log.p_ff, 0.0)
    assert np.any(log.p_fb != 0.0)
    # pure feedback lags but follows: error well below the 20 deg swing
    assert float(np.sqrt(np.mean(log.e_theta[400:] ** 2))) < 10.0


def test_open_loop_has_no_feedback():
    log = run_open_loop(ref_sine(), ConstantModel(), ActuatorPlant.default(),
                        ControllerGains())
    np.testing.assert_array_equal(log.p_fb, 0.0)
    np.testing.assert_array_equal(log.p_d, log.p_ff)
    with pytest.raises(InvalidSpecError):
        run_open_loop(ref_sine(), None, ActuatorPlant.default(), ControllerGains())


def test_loop_validation():
    bad_unit = TimeSeries(values=np.zeros(10), dt=0.005, unit="kPa")
    with pytest.raises(InvalidSpecError):
        run_closed_loop(bad_unit, ConstantModel(), ActuatorPlant.default(),
                        ControllerGains())
    with pytest.raises(InvalidSpecError):
        run_closed_loop(ref_sine(), None, ActuatorPlant.default(),
                        ControllerGains(), feedback=False)


def test_loop_counts_clamped_steps_and_logs_unclamped():
    log = run_open_loop(ref_sine(), ConstantModel(p_ff=1e5), ActuatorPlant.default(),
                        ControllerGains())
    assert log.clamp_steps == len(log)
    np.testing.assert_array_equal(log.p_d, 1e5)


def test_loop_raises_on_divergence():
    with pytest.raises(NumericError, match="step 0"):
        run_closed_loop(ref_sine(), DivergingModel(), ActuatorPlant.default(),
                        ControllerGains())


def test_loop_queries_feedforward_once():
    model = ConstantModel()
    log = run_closed_loop(ref_sine(), model, ActuatorPlant.default(), ControllerGains())
    assert model.calls == 1
    np.testing.assert_array_equal(log.p_ff, 100.0)
    np.testing.assert_array_equal(log.p_o_filt, 3.0)


def test_loop_rejects_feedforward_of_wrong_length():
    class Short(ConstantModel):
        def run(self, theta_d, dt, disturbance=None):
            return super().run(theta_d[:-1], dt, disturbance)

    with pytest.raises(DimensionError):
        run_closed_loop(ref_sine(), Short(), ActuatorPlant.default(), ControllerGains())


def test_disturbance_reaches_model_reservoir():
    spec = DisturbanceSpec(window=(0.5, 1.5), magnitude=8.0)
    model = ConstantModel(reservoir=ReservoirPlant.default())
    log = run_closed_loop(ref_sine(), model, ActuatorPlant.default(),
                          ControllerGains(), disturbance=spec)
    in_window = (log.t >= 0.5) & (log.t < 1.5)
    assert np.all(log.disturbed[in_window] == 1.0)
    assert np.all(log.disturbed[~in_window] == 0.0)


def test_disturbance_ignored_without_reservoir():
    spec = DisturbanceSpec(window=(0.5, 1.5), magnitude=8.0)
    log = run_closed_loop(ref_sine(), None, ActuatorPlant.default(),
                          ControllerGains(), disturbance=spec)
    np.testing.assert_array_equal(log.disturbed, 0.0)


def test_runs_are_bitwise_reproducible():
    def one():
        spec = DisturbanceSpec(window=(0.5, 1.5), magnitude=8.0, seed=3)
        model = ConstantModel(reservoir=ReservoirPlant.default())
        return run_closed_loop(ref_sine(), model, ActuatorPlant.default(),
                               ControllerGains(), disturbance=spec)

    a, b = one(), one()
    for name in ("t", "theta_d", "theta", "e_theta", "p_ff", "p_fb", "p_d",
                 "p_i", "p_o", "p_o_filt", "disturbed"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# geometry


def test_shoelace_unit_square():
    x = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    assert shoelace_area(x, y) == pytest.approx(1.0)
    # orientation does not matter
    assert shoelace_area(x[::-1], y[::-1]) == pytest.approx(1.0)


def test_shoelace_circle_approaches_pi():
    phi = np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False)
    assert shoelace_area(np.cos(phi), np.sin(phi)) == pytest.approx(np.pi, abs=1e-3)


def test_shoelace_degenerate():
    line = np.array([0.0, 1.0, 2.0])
    assert shoelace_area(line, 2.0 * line) == pytest.approx(0.0)
    with pytest.raises(InvalidDataError):
        shoelace_area(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(InvalidDataError):
        shoelace_area(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]))


def test_extract_hysteresis_loop_cycles():
    x = np.array([0.0, 1.0, 1.0, 0.0] * 2)
    y = np.array([0.0, 0.0, 1.0, 1.0] * 2)
    log = make_log(n=8, theta_d=x, theta=y)
    pts_last, area_last = extract_hysteresis_loop(log, "theta_d_deg", "theta_deg",
                                                  period_steps=4, cycle="last")
    assert area_last == pytest.approx(1.0)
    np.testing.assert_array_equal(pts_last, np.column_stack([x[4:], y[4:]]))
    _, area_first = extract_hysteresis_loop(log, "theta_d_deg", "theta_deg",
                                            period_steps=4, cycle="first")
    assert area_first == pytest.approx(1.0)
    # whole run as one polygon: the doubled traversal doubles the signed sum
    _, area_whole = extract_hysteresis_loop(log, "theta_d_deg", "theta_deg")
    assert area_whole == pytest.approx(2.0)


def test_extract_hysteresis_loop_validation():
    log = make_log(n=8)
    with pytest.raises(InvalidSpecError):
        extract_hysteresis_loop(log, "theta_d_deg", "theta_deg", period_steps=2)
    with pytest.raises(InvalidDataError):
        extract_hysteresis_loop(log, "theta_d_deg", "theta_deg", period_steps=9)
    with pytest.raises(InvalidSpecError):
        extract_hysteresis_loop(log, "theta_d_deg", "theta_deg", period_steps=4,
                                cycle="middle")
    with pytest.raises(InvalidDataError):
        extract_hysteresis_loop(make_log(n=0), "theta_d_deg", "theta_deg")
    with pytest.raises(InvalidDataError):
        log.column("voltage")


# ---------------------------------------------------------------------------
# reporting


def test_disturbance_window_rmse_hand_values():
    e = np.array([9.0, 9.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 9.0, 9.0])
    d = np.array([0.0] * 5 + [1.0] * 3 + [0.0] * 2)
    log = make_log(n=10, e_theta=e, disturbed=d)
    out = disturbance_window_rmse(log, window=(5.0, 8.0), settle_time=2.0)
    assert out["clean_rmse"] == pytest.approx(3.0)
    assert out["disturbed_rmse"] == pytest.approx(4.0)
    assert out["n_perturbed_steps"] == 3
    with pytest.raises(InvalidDataError):
        disturbance_window_rmse(log, window=(50.0, 80.0))


def test_tracking_report_fills_missing_cells():
    log = make_log(n=4, e_theta=np.array([3.0, 3.0, 3.0, 3.0]))
    table = tracking_report({("fprc", "sine02"): log})
    assert table["fprc"]["sine02"] == pytest.approx(3.0)
    assert np.isnan(table["fprc"]["chirp"])
    assert np.isnan(table["pd"]["sine02"])
    assert set(table) == {"fprc", "fprc+pd", "pd"}


def test_report_to_csv(tmp_path):
    log = make_log(n=4, e_theta=np.array([3.0, 3.0, 3.0, 3.0]))
    table = tracking_report({("fprc", "sine02"): log})
    path = tmp_path / "tracking.csv"
    report_to_csv(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,sine02,sine05,chirp,complex"
    assert len(lines) == 4
    assert lines[1].startswith("fprc,3.0,nan,")


# ---------------------------------------------------------------------------
# log round trip


def test_runlog_csv_round_trip(tmp_path):
    log = run_closed_loop(ref_sine(duration=0.5), ConstantModel(),
                          ActuatorPlant.default(), ControllerGains())
    path = tmp_path / "run.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(RUN_LOG_COLUMNS)
    back = RunLog.from_csv(path)
    for name in ("t", "theta_d", "theta", "e_theta", "p_ff", "p_fb", "p_d",
                 "p_i", "p_o", "p_o_filt", "disturbed"):
        np.testing.assert_array_equal(getattr(back, name), getattr(log, name))


def test_runlog_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(InvalidDataError, match="header"):
        RunLog.from_csv(path)
    path.write_text(",".join(RUN_LOG_COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(InvalidDataError, match=":2"):
        RunLog.from_csv(path)
