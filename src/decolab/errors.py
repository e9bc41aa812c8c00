"""Exception hierarchy and input contract shared by all decolab modules.

Two broad families matter to callers (and map onto the CLI exit codes):
``ValidationError`` for inputs that are rejected before any real work
happens, and ``NumericalError`` for computations that start but cannot be
completed reliably.

Input contract: public entry points check numeric arguments only through
the validators below, which take them as keywords, never convert them, and
raise ValidationError naming the first that fails ("not numeric" for a
string or an object).  Only require_finite skips None; the others reject
it, so an optional argument is checked once it is set.

* require_finite: numbers or arrays, all finite, complex allowed;
* require_complex: one finite number, real or complex (amplitudes);
* require_real: one finite real number;
* require_positive: one finite real > 0 (hbar, widths, rates, step sizes,
  and masses and cut-offs other than math.inf);
* require_nonnegative: one finite real >= 0 (variances, a single time);
* require_real_array, require_times: a real number or array, all finite,
  and for times all >= 0;
* is_int: an integer, not a bool (counts).
"""

import functools
import math
import numbers

import numpy as np


class DecolabError(Exception):
    """Base class for all errors raised by decolab."""


class ValidationError(DecolabError):
    """Invalid parameters, configuration, or domain-type invariants."""


def require_finite(**values):
    """Raise ValidationError for the first argument with a non-finite entry.

    Scalars and arrays are accepted; None (an unset optional) is skipped.
    A value numpy cannot test (a string, a non-numeric object) is rejected.
    """
    for name, value in values.items():
        try:
            finite = value is None or np.all(np.isfinite(value))
        except (TypeError, ValueError):  # ValueError: a ragged sequence
            raise ValidationError(f"{name} must be numeric, got {type(value).__name__}") from None
        if not finite:
            raise ValidationError(f"{name} must be finite")


def _validator(accepts, what):
    """A validator: require_finite, then ValidationError for None or a value failing accepts."""

    def validate(**values):
        require_finite(**values)
        for name, value in values.items():
            if value is None or not accepts(value):
                shown = f", got {value!r}" if np.ndim(value) == 0 else ""
                raise ValidationError(f"{name} must be {what}{shown}")

    validate.__doc__ = f"Raise ValidationError unless each keyword value is finite and {what}."
    return validate


require_complex = _validator(lambda v: isinstance(v, numbers.Complex), "a number")
require_real = _validator(lambda v: isinstance(v, numbers.Real), "a real number")
require_positive = _validator(lambda v: isinstance(v, numbers.Real) and v > 0,
                              "a positive real number")
require_nonnegative = _validator(lambda v: isinstance(v, numbers.Real) and v >= 0,
                                 "a real number >= 0")
require_real_array = _validator(lambda v: not np.iscomplexobj(v), "real")
require_times = _validator(lambda v: not np.iscomplexobj(v) and np.all(np.asarray(v) >= 0),
                           "real and >= 0")


def is_int(value):
    """True for an integer of any integral type except bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class ResolutionError(ValidationError):
    """A grid is too coarse (or too small a box) for the requested operation."""


class GridMismatchError(ValidationError):
    """Two objects that must share a grid do not."""


class DegenerateBathError(ValidationError):
    """A bath with vanishing coupling variance cannot decohere anything."""


class DimensionCapError(ValidationError):
    """An array would exceed the size limit of the code that allocates it."""


class NumericalError(DecolabError):
    """A numerical procedure failed to converge or lost accuracy."""


class IntegrationError(NumericalError):
    """Adaptive quadrature did not reach the requested tolerance."""


class StepSizeError(NumericalError):
    """Time stepping lost unitarity beyond the allowed drift."""


class ConvergenceError(NumericalError):
    """A reference computation could not be converged to the needed accuracy."""


class FitWindowError(NumericalError):
    """Not enough usable points in the decay window for a fit."""


def _float_range_checked(func):
    """Raise NumericalError where func's arithmetic leaves the float64 range.

    An overflow or a division by an underflowed 0 (inf - inf, 0 * inf, 0 / 0)
    raises; a Python-float product overflows silently, so a non-finite result
    is rejected too.  Underflow is allowed: exp(-huge) rightly gives 0.
    """

    @functools.wraps(func)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                result = func(*args, **kwargs)
        except ArithmeticError as exc:
            raise NumericalError(f"{func.__name__} leaves the float64 range ({exc})") from exc
        if not np.all(np.isfinite(result)):
            raise NumericalError(f"{func.__name__} leaves the float64 range")
        return result

    return checked


def _decay_time(rate, time):
    """time(rate()) for a decay rate > 0, math.inf for a rate <= 0.

    Both run under _float_range_checked's float64 checks: an overflow or a
    division by an underflowed 0, or a time that underflows to 0, raises
    NumericalError.  np.float64 operands make an overflowing product raise
    too (a Python float silently becomes inf); an infinite mass stays inf.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            r = rate()
            tau = float(time(r)) if r > 0 else math.inf
    except ArithmeticError as exc:
        raise NumericalError(f"decay time leaves the float64 range ({exc})") from exc
    if tau == 0.0:
        raise NumericalError("decay time underflows to 0")
    return tau
