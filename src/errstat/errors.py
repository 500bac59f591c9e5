"""Exception types shared across the package, and the validators that raise them.

Each type carries the CLI's process exit status as exit_code, so keep the
hierarchy flat and the meanings distinct: bad parameter values,
mathematically infeasible requests, degenerate data, and malformed input files.
"""

import math
import numbers
import operator


class ErrstatError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2  # a usage or domain error; DomainError and DegenerateDataError keep it


class DomainError(ErrstatError, ValueError):
    """An argument violates a precondition (wrong range, non-finite, ...)."""


class InfeasibleParameterError(ErrstatError, ValueError):
    """Parameters are individually valid but the requested quantity does not exist."""

    exit_code = 3


class DegenerateDataError(ErrstatError, ValueError):
    """Data admits no answer: zero variance, perfect fit, undefined statistic."""


class CsvFormatError(ErrstatError, ValueError):
    """A CSV input file is malformed; message carries the 1-based line number."""

    exit_code = 4

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


# --- precondition validators ---------------------------------------------
#
# One validator per kind of precondition. Each numeric one accepts any real
# number (numpy scalars included), returns it as a float (or an int), and
# raises DomainError with the message "{name} must ..., got {value!r}" for
# values out of range and for non-numbers alike.

_OPEN_UNIT = "lie strictly inside (0, 1)"
_UNIT = "lie in [0, 1]"
_FINITE = "be finite"
_POSITIVE = "be positive and finite"


def _fail(name: str, requirement: str, value) -> DomainError:
    try:
        shown = repr(value)
    except ValueError:  # an int past the interpreter's limit on digits converted to text
        shown = f"an integer of {value.bit_length()} bits"
    return DomainError(f"{name} must {requirement}, got {shown}")


def _real(value, name: str, requirement: str) -> float:
    # The tuple test spares ints and float subclasses the slower ABC check,
    # which admits the other numpy scalars and fractions.
    if isinstance(value, (float, int)) or isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise _fail(name, requirement, value)


def check_open_unit(value, name: str) -> float:
    """value as a float in the open interval (0, 1)."""
    x = value if type(value) is float else _real(value, name, _OPEN_UNIT)
    if 0.0 < x < 1.0:
        return x
    raise _fail(name, _OPEN_UNIT, x)


def check_unit(value, name: str) -> float:
    """value as a float in the closed interval [0, 1]."""
    x = value if type(value) is float else _real(value, name, _UNIT)
    if 0.0 <= x <= 1.0:
        return x
    raise _fail(name, _UNIT, x)


def check_finite(value, name: str) -> float:
    """value as a finite float."""
    x = value if type(value) is float else _real(value, name, _FINITE)
    if math.isfinite(x):
        return x
    raise _fail(name, _FINITE, x)


def check_positive(value, name: str) -> float:
    """value as a float in (0, inf)."""
    x = value if type(value) is float else _real(value, name, _POSITIVE)
    if 0.0 < x < math.inf:
        return x
    raise _fail(name, _POSITIVE, x)


def check_at_least(value, name: str, minimum: float) -> float:
    """value as a finite float >= minimum."""
    x = value if type(value) is float else _real(value, name, f"be finite and >= {minimum}")
    if minimum <= x < math.inf:
        return x
    raise _fail(name, f"be finite and >= {minimum}", x)


def check_sequence(values, name: str) -> tuple:
    """values as a tuple; anything that cannot be iterated is rejected."""
    try:
        return tuple(values)
    except TypeError:
        raise _fail(name, "be a sequence", values) from None


def check_member(value, kind, name: str):
    """value as a member of the Enum kind; a member's value (e.g. "two_sided") is coerced."""
    if type(value) is kind:
        return value
    try:
        return kind(value)
    except (ValueError, TypeError):
        choices = ", ".join(repr(member.value) for member in kind)
        raise _fail(name, f"be one of {choices}", value) from None


def check_instance(value, kind: type, name: str):
    """value itself if it is a kind (a parameter object such as a GaussianTestModel)."""
    if isinstance(value, kind):
        return value
    raise _fail(name, f"be a {kind.__name__}", value)


def check_int(value, name: str, minimum: int, maximum: int = 2 ** 53) -> int:
    """value as a Python int in [minimum, maximum]; numpy integers pass, bool does not.

    The default maximum is the largest count a float holds exactly: every count
    here enters float arithmetic, where a larger one overflows or rounds.
    """
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
        else:
            if n > maximum:
                raise _fail(name, f"be an integer <= {maximum}", value)
            if n >= minimum:
                return n
    raise _fail(name, f"be an integer >= {minimum}", value)
