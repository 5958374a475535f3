"""Typed field checks for the layer, schedule, plan and config readers. A bad
field raises FieldError, a ValueError reading "<field>: <problem>"."""

import math
from numbers import Integral, Real


class FieldError(ValueError):
    def __init__(self, field: str, problem: str):
        super().__init__(f"{field}: {problem}" if field else problem)
        self.field = field
        self.problem = problem


def under(prefix: str, build, *args):
    """build(*args), with a ValueError it raises reported as a FieldError under `prefix`."""
    try:
        return build(*args)
    except FieldError as exc:
        raise FieldError(f"{prefix}.{exc.field}" if exc.field else prefix, exc.problem) from None
    except ValueError as exc:
        raise FieldError(prefix, str(exc)) from None


def checked_object(doc, keys, *required: str) -> dict:
    """doc, checked to be an object that has every `required` key and no key outside `keys`."""
    if not isinstance(doc, dict):
        raise FieldError("", f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise FieldError(str(key), "unknown key")
    for key in required:
        if key not in doc:
            raise FieldError(key, "missing")
    return doc


def integer(value, field: str, low: int | None = None) -> int:
    """value as an int: an integral number, not a bool, a string or a fraction."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise FieldError(field, f"not an integer: {value!r}")
    if low is not None and value < low:
        raise FieldError(field, f"must be >= {low}, got {value}")
    return int(value)


def number(value, field: str) -> float:
    """value as a float: a finite number, not a bool or a string."""
    if not isinstance(value, Real) or isinstance(value, bool) or not math.isfinite(value):
        raise FieldError(field, f"not a finite number: {value!r}")
    return float(value)


def percent(value, field: str) -> float:
    value = number(value, field)
    if not 0 <= value <= 100:
        raise FieldError(field, f"{value} out of [0, 100]")
    return value
