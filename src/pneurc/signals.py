"""Excitation and reference signals, CSV and JSON helpers and tap matrices.

:meth:`SignalSpec.render` samples t = 0, dt, ..., duration - dt (endpoint
exclusive) on a uniform grid and returns a :class:`TimeSeries`.
The default sample time matches the 200 Hz refresh rate used by the control
harness.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import os
import typing
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidDataError, InvalidSpecError, ResourceError, check_size

DEFAULT_DT = 1.0 / 200.0
DEFAULT_N_Y = 5  # angle taps a feedforward model reads: theta(k) back to theta(k-4)
MAX_RENDER_SAMPLES = 10 ** 7  # the longest signal rendered: about 14 h at 200 Hz

SIGNAL_KINDS = ("sine", "multisine", "chirp-linear", "chirp-quadratic")


def format_float(x) -> str:
    """Shortest decimal string that round-trips the value exactly.

    Coerces numpy scalars to plain Python floats first so the output is
    the bare number (numpy's repr wraps the value in its type name).
    """
    return repr(float(x))


def _open_for_writing(path):
    """``path`` opened for ASCII text with Unix line ends, its directory made first."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="ascii", newline="\n")


def _null_non_finite(value):
    """``value`` with every NaN or infinite float in it replaced by None."""
    if isinstance(value, dict):
        return {k: _null_non_finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_non_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_json(path, payload) -> None:
    """Write ``payload`` as strict JSON: indented, keys sorted, a final
    newline, and a non-finite float as ``null``."""
    with _open_for_writing(path) as fh:
        json.dump(_null_non_finite(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# resolving the string annotations costs more than the rest of a decode
_type_hints = functools.cache(typing.get_type_hints)


def decode(tp, value, path: str):
    """``value``, read from JSON, checked against the annotation ``tp``.

    Dataclasses come from mappings that hold no unknown field and every
    required one, ``dict[str, X]`` and ``tuple[X, ...]`` from mappings and
    lists; a scalar must have its annotated type exactly, except that an
    int is taken where a float is expected. A float must be finite.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise InvalidSpecError(f"{path}: expected a mapping, got {type(value).__name__}")
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = sorted(set(value) - set(fields))
        if unknown:
            raise InvalidSpecError(f"{path}: unknown fields {unknown}")
        missing = sorted(name for name, f in fields.items() if name not in value
                         and f.default is dataclasses.MISSING
                         and f.default_factory is dataclasses.MISSING)
        if missing:
            raise InvalidSpecError(f"{path}: missing fields {missing}")
        hints = _type_hints(tp)
        return tp(**{k: decode(hints[k], v, f"{path}.{k}") for k, v in value.items()})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict and isinstance(value, dict):
        return {k: decode(args[1], v, f"{path}.{k}") for k, v in value.items()}
    if origin is tuple and isinstance(value, (list, tuple)):
        return tuple(decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):  # json.load reads NaN and Infinity
            raise InvalidSpecError(f"{path}: expected a finite number, got {value!r}")
        return number
    if type(value) is not tp:  # also refuses a bool where an int is expected
        name = (origin or tp).__name__
        raise InvalidSpecError(f"{path}: expected {name}, got {type(value).__name__} {value!r}")
    return value


CSV_BLOCK_ROWS = 1024


def write_csv(files) -> None:
    """Write each ``(path, header, columns)`` of ``files``: the header, then
    one comma-joined line per row of the columns.

    Every column of every file has one length. Floats are written as
    ``format_float`` writes them, integers as plain integers and strings as
    they are. The files are written in one pass, ``CSV_BLOCK_ROWS`` rows at
    a time, so the temporaries do not grow with the record; within a block,
    columns of equal dtype and bytes (a run's clock in each of a scenario's
    logs, the feedforward two runs replay) are turned into strings once.
    """
    files = [(path, header, [np.asarray(c) for c in columns])
             for path, header, columns in files]
    n = len(files[0][2][0])
    if any(len(c) != n for _, _, columns in files for c in columns):
        raise DimensionError("CSV columns must all have one length")
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(_open_for_writing(path)) for path, _, _ in files]
        for fh, (_, header, _) in zip(handles, files):
            fh.write(header + "\n")
        for lo in range(0, n, CSV_BLOCK_ROWS):
            strings = {}
            for fh, (_, _, columns) in zip(handles, files):
                strs = []
                for c in columns:
                    block = c[lo:lo + CSV_BLOCK_ROWS]
                    key = (block.dtype, block.tobytes())
                    if key not in strings:
                        strings[key] = (block.tolist() if block.dtype.kind == "U"
                                        else list(map(repr, block.tolist())))
                    strs.append(strings[key])
                fh.write("\n".join(map(",".join, zip(*strs))) + "\n")


def read_csv(path, header: str) -> np.ndarray:
    """The rows of a CSV file with ``header``, one float per field.

    Blank lines are skipped. Each row is parsed as it is read, into one
    flat array of floats. A file that is not ASCII text, another header, a
    row with another column count or a field that is not a number raises
    InvalidDataError naming the path and, for a row, its line in the file.
    """
    width = header.count(",") + 1
    values = array("d")
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = (ln for ln in map(str.strip, fh) if ln)
            if next(lines, None) != header:
                raise InvalidDataError(f"{path}: expected header {header!r}")
            for i, ln in enumerate(lines):
                parts = ln.split(",")
                if len(parts) != width:
                    raise InvalidDataError(f"{path}:{csv_line(path, i)}: expected {width} "
                                           f"columns, got {len(parts)}")
                try:
                    values.extend(map(float, parts))
                except ValueError as exc:
                    raise InvalidDataError(f"{path}:{csv_line(path, i)}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path}: not ASCII text ({exc})") from exc
    return np.frombuffer(values).reshape(-1, width)


def csv_line(path, row: int) -> int:
    """The 1-based line number in ``path`` of read_csv's data row ``row``
    (from 0), counting the blank lines that read_csv skips.

    Only error messages need it, so it reads the file again rather than
    have read_csv keep a line number per row.
    """
    with open(path, "r", encoding="ascii") as fh:
        numbers = [number for number, ln in enumerate(fh, 1) if ln.strip()]
    return numbers[row + 1]


def tap_matrix(series: np.ndarray, n_taps: int) -> np.ndarray:
    """Row k holds [v(k), v(k-1), ..., v(k-n_taps+1)], zero padded."""
    check_size(len(series) * n_taps, f"{len(series)} rows of {n_taps} taps need more than %s")
    if len(series) == 0:
        return np.zeros((0, n_taps))
    padded = np.concatenate([np.zeros(n_taps - 1), series])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n_taps)
    return windows[:, ::-1]


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled scalar signal."""

    values: np.ndarray
    dt: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidSpecError("TimeSeries values must be a non-empty 1-D array")
        if not (self.dt > 0.0):
            raise InvalidSpecError(f"dt must be positive, got {self.dt!r}")
        if not np.all(np.isfinite(vals)):
            raise InvalidSpecError("TimeSeries values must all be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.values.size, dtype=float) * self.dt


@dataclass(frozen=True)
class SignalSpec:
    """Declarative description of a generated signal, used by configs.

    ``frequencies`` is interpreted per kind: [f] for sine, [f1..fn] for
    multisine, [f_start, f_end] for chirp-linear, and the phase-polynomial
    coefficients [c1, c2] for chirp-quadratic.
    """

    kind: str
    amplitude: float
    offset: float
    frequencies: tuple[float, ...]
    duration: float
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise InvalidSpecError(f"unknown signal kind {self.kind!r}, expected one of {SIGNAL_KINDS}")
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        if self.amplitude < 0.0:
            raise InvalidSpecError("amplitude must be non-negative")
        if not (self.duration > 0.0):
            raise InvalidSpecError("duration must be positive")
        n_freq = len(self.frequencies)
        if self.kind == "sine" and n_freq != 1:
            raise InvalidSpecError("sine takes exactly one frequency")
        if self.kind == "multisine" and n_freq == 0:
            raise InvalidSpecError("multisine needs at least one frequency")
        if self.kind in ("chirp-linear", "chirp-quadratic") and n_freq != 2:
            raise InvalidSpecError(f"{self.kind} takes exactly two entries in frequencies")
        if self.kind in ("sine", "multisine", "chirp-linear") and any(
                f <= 0.0 for f in self.frequencies):
            raise InvalidSpecError(f"{self.kind} frequencies must be positive")
        if self.kind == "chirp-quadratic":
            c1, c2 = self.frequencies
            if c1 < 0.0 or c2 < 0.0:
                raise InvalidSpecError("chirp coefficients c1, c2 must be non-negative")
            if c1 == 0.0 and c2 == 0.0:
                raise InvalidSpecError("chirp must sweep: c1 and c2 cannot both be zero")

    def render(self, dt: float = DEFAULT_DT) -> TimeSeries:
        """Sample the signal at t = 0, dt, ..., duration - dt.

        sine and multisine: amplitude * sum_i sin(2 pi f_i t + phase) + offset.
        chirp-linear: amplitude * sin(2 pi (f_start t + (f_end - f_start)
        t^2 / (2 T)) - pi/2 + phase) + offset over a record of length T, so
        the frequency sweeps linearly from f_start to f_end and, at phase 0,
        the sweep starts at its minimum.
        chirp-quadratic: amplitude * sin(pi t (c2 t + c1) + phase) + offset,
        whose instantaneous frequency (2 c2 t + c1) / 2 is a plain sine's
        c1 / 2 when c2 = 0.
        """
        if not (dt > 0.0):
            raise InvalidSpecError(f"dt must be positive, got {dt!r}")
        samples = self.duration / dt
        if not (samples <= MAX_RENDER_SAMPLES):  # also refuses an infinite count
            raise ResourceError(f"duration {self.duration} at dt {dt} takes {samples:.3g} "
                                f"samples, over the budget of {MAX_RENDER_SAMPLES}")
        n = int(round(samples))
        if n < 1:
            raise InvalidSpecError(f"duration {self.duration} too short for dt {dt}")
        t = np.arange(n, dtype=float) * dt
        if self.kind == "chirp-linear":
            f_start, f_end = self.frequencies
            T = n * dt
            values = np.sin(2.0 * np.pi * (f_start * t + (f_end - f_start) * t * t / (2.0 * T))
                            - 0.5 * np.pi + self.phase)
        elif self.kind == "chirp-quadratic":
            c1, c2 = self.frequencies
            values = np.sin(np.pi * t * (c2 * t + c1) + self.phase)
        else:
            values = np.zeros_like(t)
            for f in self.frequencies:
                values += np.sin(2.0 * np.pi * f * t + self.phase)
        return TimeSeries(self.amplitude * values + self.offset, dt)
