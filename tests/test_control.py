"""Control laws, the tracking harness, and loop-area measurements."""
import numpy as np
import pytest

from pneurc.config import ExperimentConfig
from pneurc.control import (ControllerGains, RUN_LOG_COLUMNS, RunLog,
                            disturbance_window_rmse, extract_hysteresis_loop, pd_step,
                            report_to_csv, run_closed_loop, run_open_loop,
                            shoelace_area, tracking_report, write_run_logs)
from pneurc.errors import (DimensionError, InvalidDataError, InvalidSpecError,
                           NumericError)
from pneurc.fprc import drive_reservoir
from pneurc.plant import (INPUT_PRESSURE_LIMIT, ActuatorConfig, DisturbanceSpec,
                          PlayOperatorStack, ReservoirConfig)
from pneurc.signals import CSV_BLOCK_ROWS, TimeSeries, format_float


class ConstantModel:
    """Feedforward stub emitting a fixed pressure; with a reservoir it
    drives it from the reference, disturbance included."""

    def __init__(self, p_ff=100.0, reservoir=None):
        self.p_ff = p_ff
        self.reservoir = reservoir
        self.calls = 0

    def __call__(self, theta_d, dt, disturbance=None):
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
    gains = ControllerGains(pd_kp=0.5, pd_kd=0.005)
    assert pd_step(1.0, None, gains, dt=1 / 200) == pytest.approx(0.5)
    # error jumps 0 -> 1 in one 5 ms tick: derivative term 0.005 * 200 = 1
    assert pd_step(1.0, 0.0, gains, dt=1 / 200) == pytest.approx(1.5)
    assert pd_step(0.0, 1.0, gains, dt=1 / 200) == pytest.approx(-1.0)
    with pytest.raises(InvalidSpecError):
        pd_step(1.0, 0.0, gains, dt=0.0)


def test_pd_default_gains_preserve_ratio():
    gains = ControllerGains()
    assert gains.pd_kd / gains.pd_kp == pytest.approx(0.01)


# ---------------------------------------------------------------------------
# loop harness


def test_closed_loop_row_invariants():
    log = run_closed_loop(ref_sine(), ConstantModel(), ActuatorConfig().build(),
                          ControllerGains(), scenario="sine05", method="fprc+pd")
    np.testing.assert_array_equal(log.p_d, log.p_ff + log.p_fb)
    np.testing.assert_array_equal(log.e_theta, log.theta_d - log.theta)
    assert log.theta[0] == 0.0  # measurement precedes the first actuation
    assert log.t[0] == 0.0 and log.t[-1] == pytest.approx(2.0 - 1 / 200)
    assert log.scenario == "sine05" and log.method == "fprc+pd"
    assert len(log) == 400


def test_closed_loop_pd_only_tracks():
    log = run_closed_loop(ref_sine(duration=4.0), None, ActuatorConfig().build(),
                          ControllerGains())
    np.testing.assert_array_equal(log.p_ff, 0.0)
    assert np.any(log.p_fb != 0.0)
    # pure feedback lags but follows: error well below the 20 deg swing
    assert float(np.sqrt(np.mean(log.e_theta[400:] ** 2))) < 10.0


def test_open_loop_has_no_feedback():
    log = run_open_loop(ref_sine(), ConstantModel(), ActuatorConfig().build(),
                        ControllerGains())
    np.testing.assert_array_equal(log.p_fb, 0.0)
    np.testing.assert_array_equal(log.p_d, log.p_ff)
    with pytest.raises(InvalidSpecError):
        run_open_loop(ref_sine(), None, ActuatorConfig().build(), ControllerGains())


def test_loop_validation():
    bad_unit = TimeSeries(values=np.zeros(10), dt=0.005, unit="kPa")
    with pytest.raises(InvalidSpecError):
        run_closed_loop(bad_unit, ConstantModel(), ActuatorConfig().build(),
                        ControllerGains())
    with pytest.raises(InvalidSpecError):
        run_closed_loop(ref_sine(), None, ActuatorConfig().build(),
                        ControllerGains(), feedback=False)


def test_loop_counts_clamped_steps_and_logs_unclamped():
    log = run_open_loop(ref_sine(), ConstantModel(p_ff=1e5), ActuatorConfig().build(),
                        ControllerGains())
    assert log.clamp_steps == len(log)
    np.testing.assert_array_equal(log.p_d, 1e5)


def test_loop_raises_on_divergence():
    with pytest.raises(NumericError, match="step 0"):
        run_closed_loop(ref_sine(), DivergingModel(), ActuatorConfig().build(),
                        ControllerGains())


def test_loop_queries_feedforward_once():
    model = ConstantModel()
    log = run_closed_loop(ref_sine(), model, ActuatorConfig().build(), ControllerGains())
    assert model.calls == 1
    np.testing.assert_array_equal(log.p_ff, 100.0)
    np.testing.assert_array_equal(log.p_o_filt, 3.0)


def test_loop_rejects_feedforward_of_wrong_length():
    class Short(ConstantModel):
        def __call__(self, theta_d, dt, disturbance=None):
            return super().__call__(theta_d[:-1], dt, disturbance)

    with pytest.raises(DimensionError):
        run_closed_loop(ref_sine(), Short(), ActuatorConfig().build(), ControllerGains())


def test_disturbance_reaches_model_reservoir():
    spec = DisturbanceSpec(t_start=0.5, t_end=1.5, magnitude=8.0)
    model = ConstantModel(reservoir=ReservoirConfig().build())
    log = run_closed_loop(ref_sine(), model, ActuatorConfig().build(),
                          ControllerGains(), disturbance=spec)
    in_window = (log.t >= 0.5) & (log.t < 1.5)
    assert np.all(log.disturbed[in_window] == 1.0)
    assert np.all(log.disturbed[~in_window] == 0.0)


def test_disturbance_ignored_without_reservoir():
    spec = DisturbanceSpec(t_start=0.5, t_end=1.5, magnitude=8.0)
    log = run_closed_loop(ref_sine(), None, ActuatorConfig().build(),
                          ControllerGains(), disturbance=spec)
    np.testing.assert_array_equal(log.disturbed, 0.0)


def test_runs_are_bitwise_reproducible():
    def one():
        spec = DisturbanceSpec(t_start=0.5, t_end=1.5, magnitude=8.0, seed=3)
        model = ConstantModel(reservoir=ReservoirConfig().build())
        return run_closed_loop(ref_sine(), model, ActuatorConfig().build(),
                               ControllerGains(), disturbance=spec)

    a, b = one(), one()
    for name in ("t", "theta_d", "theta", "e_theta", "p_ff", "p_fb", "p_d",
                 "p_i", "p_o", "p_o_filt", "disturbed"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


class ExactInverse:
    """The actuator's exact inverse as a feedforward: a known answer for the harness.

    The actuator is a Prandtl-Ishlinskii stack of play operators (r_0 = 0),
    an Euler first-order lag and an output clamp. The stack's inverse is
    another such stack (Kuhnen 2003) with radii r^_j = sum_{i<=j} w_i (r_j - r_i)
    and weights w^_0 = 1 / w_0, w^_j = -w_j / (W_j W_{j-1}), W_j = sum_{i<=j} w_i.
    It is driven by the stack output that takes the lag from the angle a(k)
    measured at tick k to theta_d(k+1): a(k) + (tau / dt) (theta_d(k+1) - a(k)),
    with a(0) = 0 (the plant starts at rest) and a(k) = theta_d(k) after.
    """

    def __init__(self, actuator):
        r, w = actuator.hysteresis.radii, actuator.hysteresis.weights
        cum = np.cumsum(w)
        self.stack = PlayOperatorStack(radii=r * cum - np.cumsum(w * r),
                                       weights=np.concatenate([[1.0 / w[0]],
                                                               -w[1:] / (cum[1:] * cum[:-1])]))
        self.tau = actuator.lag_time_constant

    def __call__(self, theta_d, dt, disturbance=None):
        angle = np.concatenate([[0.0], theta_d[1:]])
        ahead = np.append(theta_d[1:], theta_d[-1])
        p_ff = self.stack.run(angle + (self.tau / dt) * (ahead - angle))
        zeros = np.zeros(len(theta_d))
        return p_ff, zeros, zeros, zeros, zeros


def test_exact_inverse_inverts_the_play_stack(rng):
    forward = ActuatorConfig().build().hysteresis
    inverse = ExactInverse(ActuatorConfig().build()).stack
    y = np.cumsum(rng.normal(0.0, 0.5, 3000)) + 30.0
    np.testing.assert_allclose(forward.run(inverse.run(y)), y, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("scenario", ["sine02", "sine05", "disturbance"])
def test_open_loop_exact_inverse_tracks_from_tick_one(tmp_path, scenario):
    # pins the tick order (measure, then actuate), the lag, the clamp count
    # and the logged columns end to end, to rounding
    cfg = ExperimentConfig()
    ref = cfg.signals.scenarios[scenario].render(cfg.dt)
    actuator = cfg.build_actuator()
    spec = cfg.disturbance_spec() if scenario == "disturbance" else None
    log = run_open_loop(ref, ExactInverse(actuator), actuator, cfg.controller_gains(),
                        disturbance=spec)
    assert log.clamp_steps == 0 and actuator.clamp_events == 0
    assert log.e_theta[0] == ref.values[0]  # the plant starts at 0 deg
    assert float(np.max(np.abs(log.e_theta[1:]))) <= 1e-12
    path = tmp_path / "run.csv"
    log.to_csv(path)
    back = RunLog.from_csv(path)
    for key in RUN_LOG_COLUMNS.values():
        assert getattr(back, key).tobytes() == getattr(log, key).tobytes(), key


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
    out = disturbance_window_rmse(log, window=(5.0, 8.0))
    assert out["clean_rmse"] == pytest.approx(3.0)
    assert out["disturbed_rmse"] == pytest.approx(4.0)
    assert out["n_perturbed_steps"] == 3
    with pytest.raises(InvalidDataError):
        disturbance_window_rmse(log, window=(50.0, 80.0))


def test_tracking_report_fills_missing_cells():
    log = make_log(n=4, e_theta=np.array([3.0, 3.0, 3.0, 3.0]))
    table = tracking_report({("fprc", "sine02"): log.tracking_rmse()})
    assert table["fprc"]["sine02"] == pytest.approx(3.0)
    assert np.isnan(table["fprc"]["chirp"])
    assert np.isnan(table["pd"]["sine02"])
    assert set(table) == {"fprc", "fprc+pd", "pd"}


def test_report_to_csv(tmp_path):
    log = make_log(n=4, e_theta=np.array([3.0, 3.0, 3.0, 3.0]))
    table = tracking_report({("fprc", "sine02"): log.tracking_rmse()})
    path = tmp_path / "tracking.csv"
    report_to_csv(table, path)
    assert path.read_text() == ("method,sine02,sine05,chirp,complex\n"
                                "fprc,3.0,nan,nan,nan\n"
                                "fprc+pd,nan,nan,nan,nan\n"
                                "pd,nan,nan,nan,nan\n")


# ---------------------------------------------------------------------------
# log round trip


def test_runlog_csv_round_trip(tmp_path):
    log = run_closed_loop(ref_sine(duration=0.5), ConstantModel(),
                          ActuatorConfig().build(), ControllerGains())
    path = tmp_path / "run.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(RUN_LOG_COLUMNS)
    back = RunLog.from_csv(path)
    for name in ("t", "theta_d", "theta", "e_theta", "p_ff", "p_fb", "p_d",
                 "p_i", "p_o", "p_o_filt", "disturbed"):
        np.testing.assert_array_equal(getattr(back, name), getattr(log, name))


# awkward values for a float writer: signed zeros, a subnormal, extremes,
# integral floats, and decimals without an exact binary form
AWKWARD = np.array([0.0, -0.0, 5e-324, 1e300, -1.7976931348623157e308, 3.0, -12.0,
                    0.1, 1.0 / 3.0, 123456.789, 1e-7, 2.5e16])


def per_element_runlog_csv(log) -> str:
    """The run-log writer that indexed the arrays one element at a time."""
    lines = [",".join(RUN_LOG_COLUMNS)]
    for k in range(len(log)):
        vals = (log.t[k], log.theta_d[k], log.theta[k], log.e_theta[k],
                log.p_ff[k], log.p_fb[k], log.p_d[k], log.p_i[k],
                log.p_o[k], log.p_o_filt[k])
        lines.append(",".join(format_float(v) for v in vals)
                     + f",{int(log.disturbed[k])}")
    return "\n".join(lines) + "\n"


def test_runlog_csv_bytes_match_per_element_writer(tmp_path):
    # 2,600 rows: the writer converts and writes rows in blocks of 1,024
    spec = DisturbanceSpec(t_start=5.0, t_end=6.0, magnitude=8.0)
    log = run_closed_loop(ref_sine(duration=13.0),
                          ConstantModel(reservoir=ReservoirConfig().build()),
                          ActuatorConfig().build(), ControllerGains(), disturbance=spec)
    assert len(log) > 2 * CSV_BLOCK_ROWS and np.any(log.disturbed > 0)
    n = AWKWARD.size
    awkward = RunLog(*(np.roll(AWKWARD, j) for j in range(10)),
                     disturbed=np.arange(n) % 2.0)
    for i, run in enumerate((log, awkward)):
        path = tmp_path / f"run{i}.csv"
        run.to_csv(path)
        assert path.read_bytes() == per_element_runlog_csv(run).encode("ascii")


def test_run_logs_written_together_match_per_element_writer(tmp_path):
    # one scenario's three runs, disturbed, over 2,600 rows: the writer shares
    # each block's strings between equal columns, across block edges too
    spec = DisturbanceSpec(t_start=5.0, t_end=6.0, magnitude=8.0)
    ref = ref_sine(duration=13.0)
    columns = ConstantModel(reservoir=ReservoirConfig().build())(ref.values, ref.dt, spec)

    def ff(theta_d, dt, disturbance=None):
        return columns
    fprc = run_open_loop(ref, ff, ActuatorConfig().build(), ControllerGains(),
                         disturbance=spec)
    fprc_pd = run_closed_loop(ref, ff, ActuatorConfig().build(), ControllerGains(),
                              disturbance=spec)
    pd = run_closed_loop(ref, None, ActuatorConfig().build(), ControllerGains())
    assert len(ref) == 2600 and np.any(fprc.disturbed > 0)
    np.testing.assert_array_equal(fprc.p_d, fprc.p_ff)
    # p_o of -0.0 beside p_i of 0.0 (equal as floats, not as bytes), and a
    # disturbed column of int zeros beside float zeros (equal bytes, not dtypes)
    pd.p_o = -np.zeros(len(ref))
    assert not np.any(pd.disturbed) and not np.any(pd.p_i) and not np.any(pd.p_ff)
    logs = (fprc, fprc_pd, pd)
    paths = [tmp_path / f"run{i}.csv" for i in range(3)]
    write_run_logs(paths, logs)
    for path, log in zip(paths, logs):
        assert path.read_bytes() == per_element_runlog_csv(log).encode("ascii")
    assert b",-0.0," in paths[2].read_bytes() and b",0.0,0\n" in paths[2].read_bytes()


def test_runlog_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(InvalidDataError, match="header"):
        RunLog.from_csv(path)
    path.write_text(",".join(RUN_LOG_COLUMNS) + "\n1.0,2.0\n")
    with pytest.raises(InvalidDataError, match=":2"):
        RunLog.from_csv(path)
    # a disturbed field that is not a number, on the second data row
    path.write_text(",".join(RUN_LOG_COLUMNS) + "\n" + "0.0," * 10 + "0\n" + "0.0," * 10 + "x\n")
    with pytest.raises(InvalidDataError, match=":3"):
        RunLog.from_csv(path)
    path.write_bytes((",".join(RUN_LOG_COLUMNS) + "\n" + "0.0," * 10).encode("ascii") + b"\xe9\n")
    with pytest.raises(InvalidDataError, match=f"{path}: not ASCII"):
        RunLog.from_csv(path)
