"""Semantic exception hierarchy.

Public operations never raise bare ValueError/RuntimeError; callers can
rely on these types to separate bad inputs from numerical breakdowns.
The checks below validate outside input (JSON, flags, constructor
arguments); their DomainError names the field by its JSON pointer.
"""

import math
import numbers


class GaussPmlError(Exception):
    """Base error for this package."""


class DomainError(GaussPmlError, ValueError):
    """An argument lies outside the operation's documented domain."""


class PreconditionError(GaussPmlError, ValueError):
    """A stated precondition (e.g. a root bracket) is violated."""


class ModelError(GaussPmlError):
    """A supplied model is unusable; kept for callers, the package raises none."""


class NumericalError(GaussPmlError, RuntimeError):
    """A numerical routine failed to reach its accuracy contract.

    Attributes:
        operation: name of the failing operation, for diagnostics.
        last_estimate: best value available when the failure was raised,
            or None if nothing usable was produced.
    """

    def __init__(self, message, operation=None, last_estimate=None):
        super().__init__(message)
        self.operation = operation
        self.last_estimate = last_estimate


# -- input checks ------------------------------------------------------------

_INFINITIES = {"-inf": -math.inf, "-Infinity": -math.inf,
               "inf": math.inf, "+inf": math.inf, "Infinity": math.inf}


def check_fields(obj, pointer, required, optional=()):
    """Return obj after checking it is an object with exactly these fields.

    An unknown field (the first in sorted order) or a missing required
    field raises DomainError naming it by its JSON pointer.
    """
    if not isinstance(obj, dict):
        raise DomainError(f"{pointer or '/'}: expected an object")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise DomainError(f"{pointer}/{unknown[0]}: unknown field")
    for name in required:
        if name not in obj:
            raise DomainError(f"{pointer}/{name}: missing required field")
    return obj


def check_number(value, pointer, positive=False):
    """A finite real (optionally positive) as float; bools and strings fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{pointer}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise DomainError(f"{pointer}: must be finite")
    if positive and v <= 0.0:
        raise DomainError(f"{pointer}: must be positive")
    return v


def check_probability(value, pointer):
    """A real strictly between 0 and 1, as float."""
    p = check_number(value, pointer)
    if not 0.0 < p < 1.0:
        raise DomainError(f"{pointer}: must lie strictly between 0 and 1")
    return p


def check_count(value, pointer, lo=1, hi=None):
    """An integer in [lo, hi] (hi None: unbounded), as int; floats fail."""
    v = check_number(value, pointer)
    if not isinstance(value, numbers.Integral) or v < lo or (hi is not None and v > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise DomainError(f"{pointer}: must be an integer {bound}")
    return int(value)


def decode_endpoint(value, pointer):
    """An interval endpoint: a number, or "-inf"/"inf" in a JSON spelling."""
    if isinstance(value, str):
        if value not in _INFINITIES:
            raise DomainError(f'{pointer}: expected a number, "-inf" or "inf"; got {value!r}')
        return _INFINITIES[value]
    if isinstance(value, float) and math.isinf(value):
        return value
    return check_number(value, pointer)


def encode_endpoint(value):
    """Inverse of decode_endpoint: the infinities become "-inf"/"inf"."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)
