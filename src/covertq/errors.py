"""Exception taxonomy shared across the package.

Every error raised by the library carries a stable ``category`` string so the
CLI can map failures to exit codes and machine-readable diagnostics.
"""

from __future__ import annotations


class CovertqError(Exception):
    """Base class for all library errors."""

    category = "error"


class StructuralError(CovertqError, ValueError):
    """Malformed inputs: wrong shapes, mismatched lengths, out-of-range indices."""

    category = "structural"


class ParameterError(CovertqError, ValueError):
    """Parameter values outside their legal domain (rates <= 0, bad widths, ...)."""

    category = "parameter"


class UnsupportedLawError(CovertqError):
    """Operation undefined for the given service law (no density, infinite divergence)."""

    category = "unsupported-law"


class InstabilityError(CovertqError):
    """Arrival rate at or above a service rate: the queue has no stationary regime."""

    category = "instability"


class InfeasibleRateError(CovertqError):
    """Rate point outside the achievable region, or an empty dummy-rate interval."""

    category = "infeasible-rate"


class ResourceLimitError(CovertqError):
    """Request exceeds an explicit resource cap (codebook size, packets per point)."""

    category = "resource-limit"


class ConfigError(CovertqError, ValueError):
    """Invalid experiment configuration."""

    category = "config"


class OutputError(CovertqError):
    """Result emission failed; message includes the offending path."""

    category = "output"
