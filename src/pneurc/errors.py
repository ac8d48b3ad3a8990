"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: specification and data problems exit
with 2, numeric and state failures with 3, usage errors with 1.
"""
import zipfile
from contextlib import contextmanager


class PneurcError(Exception):
    """Base class for all package-specific errors."""


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


class DegenerateClusteringError(NumericError):
    """Fuzzy c-means collapsed two cluster centers onto each other."""


class StateError(PneurcError, RuntimeError):
    """Operation requires a state the object is not in (e.g. untrained model)."""


class ResourceError(PneurcError):
    """A requested allocation exceeds the configured memory budget."""


@contextmanager
def decoding(path):
    """Report a failure to decode the file at ``path`` as InvalidDataError.

    Wraps the reading of a model artifact: malformed JSON, missing keys,
    unknown parameters and damaged archives all name the file. Errors the
    package raises itself pass through unchanged.
    """
    try:
        yield
    except PneurcError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, EOFError,
            zipfile.BadZipFile) as exc:
        raise InvalidDataError(f"{path}: cannot decode model artifact "
                               f"({type(exc).__name__}: {exc})") from exc
