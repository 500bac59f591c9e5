"""Exception types, the validators and helpers that raise them, and the frozen record base.

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


def unscaled(value: float, e: int, name: str) -> float:
    """value * 2**e; a DomainError naming the quantity where that overflows a float."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise DomainError(f"the {name} overflows a float") from None



# --- frozen records --------------------------------------------------------


class Record:
    """Base of the frozen records, whose fields are the class's own annotations.

    A subclass that annotates nothing keeps its base's fields. Arguments bind by position,
    keyword and class default, then __post_init__ validates them, storing through
    object.__setattr__. Equality holds only within one class, hash and repr follow the
    fields, and assignment and deletion raise AttributeError.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if names:
            cls._fields = names
            cls._defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
            # _values(record): its field values as a tuple, as attrgetter gives for 2 or more
            cls._values = staticmethod(operator.attrgetter(*names) if len(names) > 1
                                       else lambda record: (getattr(record, names[0]),))

    def __init__(self, *args, **kwargs):
        fields, kind = self._fields, type(self).__qualname__
        values = dict(zip(fields, args))
        for name in kwargs:
            if name in values or name not in fields:
                raise TypeError(f"{kind}() got a repeated or unknown argument {name!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            values = self._defaults | values
        if len(values) < len(fields) or len(args) > len(fields):
            raise TypeError(f"{kind}() takes {fields}, the last {len(self._defaults)} optional")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete {name!r}: the record is frozen")

    __delattr__ = __setattr__
