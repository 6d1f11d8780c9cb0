"""Exception taxonomy shared across the package.

Every error raised by the library carries a stable ``category`` string, for
the CLI's machine-readable diagnostic, and the CLI's ``exit_code``.
"""

from __future__ import annotations


class CovertqError(Exception):
    """Base class for all library errors."""

    category = "error"
    exit_code = 1


class StructuralError(CovertqError, ValueError):
    """Malformed inputs: wrong shapes, mismatched lengths, out-of-range indices."""

    category = "structural"
    exit_code = 2


class ParameterError(CovertqError, ValueError):
    """Parameter values outside their legal domain (rates <= 0, bad widths, ...)."""

    category = "parameter"
    exit_code = 2


class InstabilityError(CovertqError):
    """Arrival rate at or above a service rate: the queue has no stationary regime."""

    category = "instability"
    exit_code = 3


class InfeasibleRateError(CovertqError):
    """Rate point outside the achievable region, or an empty dummy-rate interval."""

    category = "infeasible-rate"
    exit_code = 5


class ResourceLimitError(CovertqError):
    """Request exceeds an explicit resource cap (codebook size, packets per point)."""

    category = "resource-limit"
    exit_code = 4


class ConfigError(CovertqError, ValueError):
    """Invalid experiment configuration."""

    category = "config"
    exit_code = 2


class OutputError(CovertqError):
    """Result emission failed; message includes the offending path."""

    category = "output"
    exit_code = 7
