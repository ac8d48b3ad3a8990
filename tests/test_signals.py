"""Signal specs: closed-form values, grid semantics, validation."""
import dataclasses
import math

import numpy as np
import pytest

from pneurc.config import ExperimentConfig
from pneurc.errors import InvalidSpecError, ResourceError
from pneurc.signals import (DEFAULT_DT, MAX_RENDER_SAMPLES, SignalSpec, TimeSeries,
                           format_float, tap_matrix)


def sine(freq, amplitude, offset, duration, phase=0.0):
    return SignalSpec(kind="sine", amplitude=amplitude, offset=offset,
                      frequencies=(freq,), duration=duration, phase=phase)


def multisine(freqs, amplitude, offset, phase, duration):
    return SignalSpec(kind="multisine", amplitude=amplitude, offset=offset,
                      frequencies=freqs, duration=duration, phase=phase)


def chirp_quadratic(amplitude, offset, c2, c1, phase, duration):
    return SignalSpec(kind="chirp-quadratic", amplitude=amplitude, offset=offset,
                      frequencies=(c1, c2), duration=duration, phase=phase)


def sweep(f_start, f_end, amplitude, offset, duration):
    return SignalSpec(kind="chirp-linear", amplitude=amplitude, offset=offset,
                      frequencies=(f_start, f_end), duration=duration)


# ---------------------------------------------------------------------------
# time grid


def test_grid_is_endpoint_exclusive():
    ts = sine(1.0, 1.0, 0.0, duration=1.0).render(0.25)
    assert len(ts) == 4
    np.testing.assert_array_equal(ts.times, [0.0, 0.25, 0.5, 0.75])


def test_default_rate_is_200_hz():
    assert DEFAULT_DT == 1.0 / 200.0
    ts = sine(0.2, 1.0, 0.0, duration=20.0).render()
    assert len(ts) == 4000


def test_duration_property_round_trips():
    ts = sine(0.5, 1.0, 0.0, duration=2.0).render(0.01)
    assert len(ts) * ts.dt == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# generator values against hand arithmetic


def test_sine_hits_quarter_period_peak():
    # 0.5 Hz unit sine: at t = 0.5 s the argument is pi/2, so the value is 1
    ts = sine(0.5, 1.0, 0.0, duration=1.0).render(0.5)
    assert ts.values[1] == pytest.approx(1.0, abs=1e-12)


def test_sine_offset_and_amplitude():
    ts = sine(1.0, 3.0, 10.0, duration=1.0).render(0.25)
    np.testing.assert_allclose(ts.values, [10.0, 13.0, 10.0, 7.0], atol=1e-12)


def test_multisine_start_value():
    # five equal sines with phase -pi/2 all start at -1:
    # 6.5 * 5 * (-1) + 40.5 = 8.0
    freqs = (0.12, 0.04, 0.31, 0.29, 0.25)
    ts = multisine(freqs, 6.5, 40.5, -0.5 * math.pi, duration=1.0).render()
    assert ts.values[0] == pytest.approx(8.0, abs=1e-12)


def test_multisine_matches_pointwise_sum():
    freqs = (0.2, 0.7)
    ts = multisine(freqs, 2.0, 1.0, 0.3, duration=2.0).render(0.05)
    t = ts.times
    expected = 2.0 * (np.sin(2 * np.pi * 0.2 * t + 0.3)
                      + np.sin(2 * np.pi * 0.7 * t + 0.3)) + 1.0
    np.testing.assert_allclose(ts.values, expected, atol=1e-12)


def test_chirp_quadratic_start_value():
    # 27.5 * sin(-pi/2) + 32.5 = 5.0
    ts = chirp_quadratic(27.5, 32.5, c2=0.01125, c1=0.1,
                         phase=-0.5 * math.pi, duration=2.0).render()
    assert ts.values[0] == pytest.approx(5.0, abs=1e-12)


def test_chirp_quadratic_closed_form():
    ts = chirp_quadratic(1.0, 0.0, c2=0.02, c1=0.3, phase=0.1,
                         duration=3.0).render(0.1)
    t = ts.times
    expected = np.sin(np.pi * t * (0.02 * t + 0.3) + 0.1)
    np.testing.assert_allclose(ts.values, expected, atol=1e-12)


def test_chirp_quadratic_with_zero_c2_is_a_sine():
    chirp = chirp_quadratic(2.0, 1.0, c2=0.0, c1=1.0, phase=0.0,
                            duration=2.0).render(0.01)
    plain = sine(0.5, 2.0, 1.0, duration=2.0).render(0.01)
    np.testing.assert_allclose(chirp.values, plain.values, atol=1e-12)


def test_sweep_starts_at_minimum():
    ts = sweep(0.1, 1.0, 175.0, 175.0, duration=120.0).render()
    assert ts.values[0] == pytest.approx(0.0, abs=1e-9)
    assert float(np.min(ts.values)) >= -1e-9


def test_sweep_closed_form_phase():
    # with linear frequency f(t) = f0 + (f1 - f0) t / T the accumulated
    # phase is 2 pi (f0 t + (f1 - f0) t^2 / (2 T)), started at -pi/2
    f0, f1, T = 0.2, 0.8, 10.0
    ts = sweep(f0, f1, 3.0, 5.0, duration=T).render(0.125)
    t = ts.times
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t ** 2 / (2 * T)) - 0.5 * np.pi
    np.testing.assert_allclose(ts.values, 3.0 * np.sin(phase) + 5.0, atol=1e-12)


def test_sweep_reads_its_phase():
    specs = [SignalSpec(kind="chirp-linear", amplitude=3.0, offset=5.0, frequencies=(0.2, 0.8),
                        duration=10.0, phase=phase) for phase in (0.0, 1.3)]
    renders = [spec.render(0.125).values for spec in specs]
    assert not np.array_equal(*renders)
    for spec, values in zip(specs, renders):
        np.testing.assert_array_equal(values, closed_form(spec, 0.125))


def test_sweep_constant_frequency_reduces_to_sine():
    ts = sweep(0.5, 0.5, 1.0, 0.0, duration=4.0).render(0.01)
    t = ts.times
    np.testing.assert_allclose(ts.values, np.sin(2 * np.pi * 0.5 * t - 0.5 * np.pi),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# TimeSeries container


@pytest.mark.parametrize("duration, dt", [(1e308, DEFAULT_DT), (1e12, DEFAULT_DT),
                                          (1.0, 5e-324)])
def test_render_refuses_a_sample_count_over_the_budget(duration, dt):
    # refused from the count alone: no value just over the budget is tried,
    # since that one would be allocated
    with pytest.raises(ResourceError, match=f"over the budget of {MAX_RENDER_SAMPLES}"):
        sine(0.5, 1.0, 0.0, duration=duration).render(dt)


def test_timeseries_rejects_bad_values():
    with pytest.raises(InvalidSpecError):
        TimeSeries(np.array([]), 0.01)
    with pytest.raises(InvalidSpecError):
        TimeSeries(np.array([1.0, np.nan]), 0.01)
    with pytest.raises(InvalidSpecError):
        TimeSeries(np.array([1.0, 2.0]), 0.0)


def test_format_float_round_trips():
    for v in (0.1, 1 / 3, 1e-17, 12345.6789, np.float64(2.5)):
        assert float(format_float(v)) == float(v)
    assert format_float(np.float64(0.0)) == "0.0"


# ---------------------------------------------------------------------------
# validation errors


@pytest.mark.parametrize("bad", [
    lambda: sine(0.0, 1.0, 0.0, duration=1.0),
    lambda: sine(1.0, -1.0, 0.0, duration=1.0),
    lambda: sine(1.0, 1.0, 0.0, duration=0.0),
    lambda: sine(1.0, 1.0, 0.0, duration=1.0).render(-0.1),
    lambda: multisine((), 1.0, 0.0, 0.0, duration=1.0),
    lambda: multisine((0.1, -0.2), 1.0, 0.0, 0.0, duration=1.0),
    lambda: sweep(0.0, 1.0, 1.0, 0.0, duration=1.0),
    lambda: sine(1.0, 1.0, 0.0, duration=0.004).render(0.01),
    # chirp-quadratic coefficients are checked on construction, before any render
    lambda: chirp_quadratic(1.0, 0.0, c2=0.01, c1=-0.1, phase=0.0, duration=1.0),
    lambda: chirp_quadratic(1.0, 0.0, c2=-0.01, c1=0.1, phase=0.0, duration=1.0),
    lambda: chirp_quadratic(1.0, 0.0, c2=0.0, c1=0.0, phase=0.0, duration=1.0),
])
def test_generator_validation(bad):
    with pytest.raises(InvalidSpecError):
        bad()


# ---------------------------------------------------------------------------
# declarative specs


def test_signal_spec_sine_is_a_one_frequency_multisine():
    spec = sine(0.5, 27.5, 32.5, duration=2.0, phase=-0.5 * math.pi)
    direct = multisine((0.5,), 27.5, 32.5, -0.5 * math.pi, duration=2.0)
    np.testing.assert_array_equal(spec.render(DEFAULT_DT).values, direct.render().values)


def closed_form(spec: SignalSpec, dt: float) -> np.ndarray:
    """The samples of ``spec`` written out per kind, in render's operation order."""
    t = np.arange(round(spec.duration / dt)) * dt
    a, b, phase = spec.amplitude, spec.offset, spec.phase
    if spec.kind == "sine":
        (f,) = spec.frequencies
        return a * np.sin(2 * np.pi * f * t + phase) + b
    if spec.kind == "multisine":
        return a * sum(np.sin(2 * np.pi * f * t + phase) for f in spec.frequencies) + b
    if spec.kind == "chirp-linear":
        f0, f1 = spec.frequencies
        T = t.size * dt
        return a * np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t * t / (2 * T)) - np.pi / 2
                          + phase) + b
    c1, c2 = spec.frequencies
    return a * np.sin(np.pi * t * (c2 * t + c1) + phase) + b


@pytest.mark.parametrize("dt", [DEFAULT_DT, 0.01, 0.0123])
def test_default_specs_render_their_closed_form(dt):
    signals = ExperimentConfig().signals
    specs = [signals.train_excitation, signals.test_excitation, *signals.scenarios.values()]
    assert {spec.kind for spec in specs} == {"sine", "multisine", "chirp-linear",
                                             "chirp-quadratic"}
    for spec in specs:
        ts = spec.render(dt)
        assert ts.dt == dt
        np.testing.assert_array_equal(ts.values, closed_form(spec, dt))


def with_train_excitation(spec: dict) -> dict:
    """The default config as a mapping, with ``spec`` as its train excitation."""
    doc = ExperimentConfig().to_dict()
    doc["signals"]["train_excitation"] = spec
    return doc


def test_signal_spec_dict_round_trip():
    spec = SignalSpec(kind="chirp-linear", amplitude=175.0, offset=175.0,
                      frequencies=(0.1, 1.0), duration=120.0)
    doc = with_train_excitation(dataclasses.asdict(spec))
    assert ExperimentConfig.from_dict(doc).signals.train_excitation == spec


def test_signal_spec_rejects_unknown_fields():
    doc = with_train_excitation({"kind": "sine", "amplitude": 1.0, "offset": 0.0,
                                 "frequencies": [1.0], "duration": 1.0, "bogus": 2})
    with pytest.raises(InvalidSpecError, match=r"train_excitation: unknown fields \['bogus'\]"):
        ExperimentConfig.from_dict(doc)


def test_signal_spec_rejects_missing_fields():
    with pytest.raises(InvalidSpecError, match="train_excitation: missing fields"):
        ExperimentConfig.from_dict(with_train_excitation({"kind": "sine"}))


def test_signal_spec_frequency_arity():
    with pytest.raises(InvalidSpecError):
        SignalSpec(kind="sine", amplitude=1.0, offset=0.0,
                   frequencies=(0.1, 0.2), duration=1.0)
    with pytest.raises(InvalidSpecError):
        SignalSpec(kind="chirp-linear", amplitude=1.0, offset=0.0,
                   frequencies=(0.1,), duration=1.0)
    with pytest.raises(InvalidSpecError):
        SignalSpec(kind="warble", amplitude=1.0, offset=0.0,
                   frequencies=(0.1,), duration=1.0)


def test_tap_matrix_over_the_memory_budget_is_refused_before_padding():
    # 100 rows of 10**9 taps: 800 GB, and a padding row of 8 GB
    with pytest.raises(ResourceError, match=r"^100 rows of 1000000000 taps need more "
                                            r"than 4 GiB$"):
        tap_matrix(np.zeros(100), 10 ** 9)
