"""Exception hierarchy shared by all decolab modules.

Two broad families matter to callers (and map onto the CLI exit codes):
``ValidationError`` for inputs that are rejected before any real work
happens, and ``NumericalError`` for computations that start but cannot be
completed reliably.
"""

import numpy as np


class DecolabError(Exception):
    """Base class for all errors raised by decolab."""


class ValidationError(DecolabError):
    """Invalid parameters, configuration, or domain-type invariants."""


def require_finite(**values):
    """Raise ValidationError for the first argument with a non-finite entry.

    Scalars and arrays are accepted; None (an unset optional) is skipped.
    """
    for name, value in values.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite")


class ResolutionError(ValidationError):
    """A grid is too coarse (or too small a box) for the requested operation."""


class GridMismatchError(ValidationError):
    """Two objects that must share a grid do not."""


class DegenerateBathError(ValidationError):
    """A bath with vanishing coupling variance cannot decohere anything."""


class DimensionCapError(ValidationError):
    """A composite Hilbert space would exceed the configured dimension cap."""


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
