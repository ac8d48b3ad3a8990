"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: specification
and data problems exit with 2, numeric, state and resource failures with
3. Usage errors, which are not PneurcErrors, exit with 1.
"""
import zipfile
from contextlib import contextmanager

# the memory one step may ask for; larger sizes are refused before allocation
MAX_ARRAY_BYTES = 4 * 1024 ** 3


class PneurcError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class InvalidSpecError(PneurcError, ValueError):
    """A signal, parameter, or config specification violates its contract."""


class InvalidDataError(PneurcError, ValueError):
    """Input data is malformed or inconsistent with what an operation needs."""


class DimensionError(InvalidDataError):
    """Array shapes or lengths disagree."""


class DegenerateRangeError(InvalidDataError):
    """An operation is undefined on a constant (zero-range) series."""


class NumericError(PneurcError, ArithmeticError):
    """A numerical routine failed or produced non-finite values."""

    exit_code = 3


class DegenerateClusteringError(NumericError):
    """Fuzzy c-means collapsed two cluster centers onto each other."""


class StateError(PneurcError, RuntimeError):
    """Operation requires a state the object is not in (e.g. untrained model)."""

    exit_code = 3


class ResourceError(PneurcError):
    """A requested allocation exceeds the configured memory budget."""

    exit_code = 3


def check_size(values: int, message: str) -> None:
    """Raise ResourceError(``message``, its %s the budget) when ``values``
    float64 values need more than MAX_ARRAY_BYTES."""
    if 8 * values > MAX_ARRAY_BYTES:
        raise ResourceError(message % f"{MAX_ARRAY_BYTES // 1024 ** 3} GiB")


@contextmanager
def decoding(path):
    """Report a failure to decode the file at ``path`` as InvalidDataError.

    Wraps the reading of a model artifact: malformed JSON, missing keys,
    unknown parameters and damaged archives all name the file, and so does
    a parameter out of its range (InvalidSpecError). Other errors the
    package raises itself pass through unchanged.
    """
    try:
        yield
    except InvalidSpecError as exc:
        raise InvalidSpecError(f"{path}: {exc}") from exc
    except PneurcError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, EOFError,
            zipfile.BadZipFile) as exc:
        raise InvalidDataError(f"{path}: cannot decode model artifact "
                               f"({type(exc).__name__}: {exc})") from exc
