"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "TfcError",
    "CoverageError",
    "DomainError",
    "NumericalError",
    "UnsupportedCaseError",
    "ConfigError",
]


class TfcError(Exception):
    """Base class for all toolkit errors."""


class CoverageError(TfcError):
    """A phase-space region sticks out of the grid that must cover it."""


class DomainError(TfcError):
    """An input lies outside what a routine admits: a numeric parameter out of
    its interval, a non-positive scale, a shift off the sample grid, two
    objects on different grids, or a window that is all zero or leaves mass
    outside its grid."""


class NumericalError(TfcError):
    """A numerical invariant failed beyond tolerance (e.g. lost Hermitian symmetry)."""


class UnsupportedCaseError(TfcError):
    """The requested configuration is outside what this routine supports."""


class ConfigError(TfcError):
    """Bad command-line or config-file input."""
