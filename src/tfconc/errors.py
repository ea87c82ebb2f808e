"""Exception types shared across the toolkit."""

from __future__ import annotations

__all__ = [
    "TfcError",
    "GridMismatchError",
    "AlignmentError",
    "TruncationError",
    "DegenerateWindowError",
    "InvalidScaleError",
    "CoverageError",
    "DomainError",
    "NumericalError",
    "UnsupportedCaseError",
    "ConfigError",
]


class TfcError(Exception):
    """Base class for all toolkit errors."""


class GridMismatchError(TfcError):
    """Two objects live on different sample grids."""


class AlignmentError(TfcError):
    """A requested time shift is not an integer multiple of the grid step."""


class TruncationError(TfcError):
    """A window (or signal) leaves more mass outside the grid than allowed."""


class DegenerateWindowError(TfcError):
    """Window samples are identically zero (or numerically so)."""


class InvalidScaleError(TfcError):
    """Scale factor must be strictly positive."""


class CoverageError(TfcError):
    """A phase-space region sticks out of the grid that must cover it."""


class DomainError(TfcError):
    """A numeric parameter lies outside its admissible interval."""


class NumericalError(TfcError):
    """A numerical invariant failed beyond tolerance (e.g. lost Hermitian symmetry)."""


class UnsupportedCaseError(TfcError):
    """The requested configuration is outside what this routine supports."""


class ConfigError(TfcError):
    """Bad command-line or config-file input."""
