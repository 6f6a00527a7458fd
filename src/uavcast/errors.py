"""Exception types shared across the package, and the per-field value check
of the parameter dataclasses."""

import dataclasses
import functools
import math
import numbers
import typing


class UavcastError(Exception):
    """Base class for all package errors."""


class ParameterError(UavcastError):
    """A configuration value or function argument is out of range."""


class NumericError(UavcastError):
    """A quadrature or other numeric routine failed to meet its tolerance."""


class IntegrityError(UavcastError):
    """An internal consistency check failed (e.g. a pdf does not normalize)."""


def check_field_values(obj) -> None:
    """Reject what no range check of dataclass `obj` can: a non-number or a
    non-finite number in a `float` field, a non-integer in an `int` field
    and a non-bool in a `bool` field.

    NaN passes every comparison, 2.5 every bound, and a string or None
    fails a comparison with a bare TypeError, so callers run this before
    their range checks.  The error names the field.
    """
    declared = _declared_types(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        kind = declared[f.name]
        if kind is int and (isinstance(value, bool)
                            or not isinstance(value, numbers.Integral)):
            raise ParameterError(f"{f.name}: expected an integer, got {value!r}")
        if kind is bool and not isinstance(value, bool):
            raise ParameterError(f"{f.name}: expected true or false, got {value!r}")
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{f.name}: expected a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int too large to convert
                raise ParameterError(f"{f.name}: beyond the float range") from None
            if not finite:
                raise ParameterError(f"{f.name}: must be finite, got {value}")


@functools.cache
def _declared_types(cls) -> dict:
    return typing.get_type_hints(cls)
