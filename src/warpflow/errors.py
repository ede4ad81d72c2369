"""Exception types shared across the package.

Numerical failure modes get their own classes so callers (and the command
line driver) can distinguish "the metric degenerated" from "the run blew
up" from "the input made no sense", and map them to exit codes.
"""

from __future__ import annotations


class WarpflowError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(WarpflowError):
    """Two fields that must live on the same grid do not."""


class MetricDegeneracyError(WarpflowError):
    """A metric field failed positive-definiteness or became numerically
    non-invertible.

    Carries the flat node index, the offending eigenvalue and, when raised
    mid-flow, the simulation time.
    """

    def __init__(self, message: str, *, node: tuple | None = None,
                 eigenvalue: float | None = None, time: float | None = None):
        super().__init__(message)
        self.node = node
        self.eigenvalue = eigenvalue
        self.time = time


class NonFiniteFieldError(WarpflowError, ValueError):
    """A field's values came out NaN or infinite: a computed quantity,
    such as a warp factor e^{-Af}, left the float range.  Also a
    ValueError, so a recipe's own check can still read it as invalid
    input."""


class FlowDivergenceError(WarpflowError):
    """A flow run left the trusted regime (unbounded growth or non-finite
    values) and was halted.

    Carries the simulation time and the magnitude that tripped the guard.
    """

    def __init__(self, message: str, *, time: float | None = None,
                 magnitude: float | None = None):
        super().__init__(message)
        self.time = time
        self.magnitude = magnitude


class ConstantsError(WarpflowError):
    """Requested warped-product constants do not exist or fail their
    defining relations (bad dimensions, lambda out of range, branch
    mismatch)."""


class ConfigError(WarpflowError):
    """An experiment configuration is malformed: unknown key, missing
    required key, or a value outside its documented domain."""


class StabilityWarning(UserWarning):
    """A time step exceeds the explicit-integration stability estimate
    for the parabolic part of the system."""
