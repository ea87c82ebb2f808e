"""Analysis windows: stock families, normalization, and tail bookkeeping.

A window is a unit-norm Signal plus enough metadata (family, parameter,
support/essential radii) for downstream code to size grids and reason about
truncation without re-deriving anything from samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedCaseError
from .grids import SampleGrid, Signal

__all__ = ["Window", "make_window"]

#: fraction of squared mass allowed outside the grid (or outside the
#: essential radius) before we call a window truncated
_TAIL_BUDGET = 1e-12

#: sqrt(2C) * r at which a Gaussian's squared tail mass erfc(sqrt(2C) r)
#: drops to the budget: erfcinv(1e-12), as scipy.special computes it
_GAUSS_TAIL_X = 5.042029745639059


@dataclass(frozen=True, eq=False)
class Window:
    """Unit-norm analysis window on a grid."""

    signal: Signal
    family: str
    parameter: float | None = None

    @property
    def grid(self) -> SampleGrid:
        return self.signal.grid

    @property
    def samples(self) -> np.ndarray:
        return self.signal.samples

    @property
    def support_radius(self) -> float | None:
        """Radius of compact support, if the window has one."""
        if self.family == "triangle":
            return 1.0
        if self.family == "custom":
            nz = np.nonzero(np.abs(self.samples) > 0.0)[0]
            if len(nz) == 0:
                return None
            edge = max(abs(self.grid.times[nz[0]]), abs(self.grid.times[nz[-1]]))
            # only report compact support when the samples actually reach zero
            # strictly inside the grid
            if nz[0] > 0 and nz[-1] < self.grid.n - 1:
                return float(edge)
            return None
        return None

    @property
    def essential_radius(self) -> float:
        """Radius outside which the squared tail mass is below 1e-12.

        Stock families only: a custom window raises UnsupportedCaseError.
        """
        return _stock_radii(self.family, self.parameter)[0]

    @property
    def label(self) -> str:
        """Short identifier for reports (matches the CLI window syntax)."""
        if self.family == "gaussian":
            return f"gaussian:{self.parameter:.17g}"
        return self.family


def _stock_radii(family: str, c: float | None) -> tuple[float, float]:
    """``(time radius, frequency radius)`` of a stock family, used to size grids.

    The time radius is where the squared tail mass drops below 1e-12.
    Gaussians transform to Gaussians with parameter ``pi^2 / c``, so both
    radii are analytic.  The triangle is supported on ``[-1, 1]``; its
    transform decays only like ``sigma^-2`` (squared tail ~ S^-3), which would
    put the literal 1e-12 radius near 1e4, so a fixed frequency radius of 8
    is used instead and the slack is absorbed by per-experiment tolerances.
    Custom windows have no closed form; they keep the grid of their samples.
    """
    if family == "gaussian":
        _require_gaussian_parameter(c)
        return (
            _GAUSS_TAIL_X / math.sqrt(2.0 * c),
            _GAUSS_TAIL_X / math.sqrt(2.0 * math.pi**2 / c),
        )
    if family == "triangle":
        return 1.0, 8.0
    raise UnsupportedCaseError(
        f"window family {family!r} has no closed-form radii to size a grid; "
        "custom windows keep the grid of their samples"
    )


def _require_gaussian_parameter(c) -> None:
    """ValueError unless the gaussian parameter ``c`` is finite and positive."""
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"gaussian parameter must be finite and positive, got {c}")


def make_window(
    family: str,
    grid: SampleGrid,
    *,
    c: float = math.pi,
    samples: np.ndarray | None = None,
) -> Window:
    """Build a unit-norm window on ``grid``.

    Parameters
    ----------
    family : {"gaussian", "triangle", "custom"}
        ``gaussian`` takes the width parameter ``c`` (profile
        ``(2c/pi)^(1/4) exp(-c t^2)``); ``triangle`` is
        ``sqrt(3/2) max(0, 1-|t|)``; ``custom`` normalizes caller samples.
    grid : SampleGrid
        Grid to sample on; it must hold essentially all of the window's mass.
    c : float
        Gaussian parameter, default ``pi`` (the self-dual window).
    samples : array, optional
        Required for ``family="custom"``.

    Raises
    ------
    DomainError
        If more than 1e-12 of the squared mass falls outside the grid
        (analytic complement for gaussians, measured edge mass for custom
        samples, support check for the triangle), or if the samples are
        identically zero.
    ValueError
        If ``c`` is not finite and positive, or a custom sample is not finite.
    """
    edge = grid.span + grid.dt / 2.0
    if family == "gaussian":
        _require_gaussian_parameter(c)
        tail = math.erfc(math.sqrt(2.0 * c) * edge)
        if tail > _TAIL_BUDGET:
            raise DomainError(
                f"gaussian(c={c}) keeps {tail:.3e} of its mass outside the grid "
                f"(edge {edge:.3g}); budget is {_TAIL_BUDGET}"
            )
        raw = (2.0 * c / np.pi) ** 0.25 * np.exp(-c * grid.times**2)
        return Window(_unit(Signal(grid, raw)), "gaussian", float(c))
    if family == "triangle":
        if grid.span < 1.0:
            raise DomainError(
                f"triangle support [-1, 1] does not fit a grid of half-width "
                f"{grid.span:.3g}"
            )
        # int (1 - |t|)^2 dt = 2/3 over the support
        raw = math.sqrt(1.5) * np.maximum(0.0, 1.0 - np.abs(grid.times))
        return Window(_unit(Signal(grid, raw)), "triangle")
    if family == "custom":
        if samples is None:
            raise ValueError("custom window needs samples")
        sig = Signal(grid, np.asarray(samples))
        if not np.isfinite(sig.samples).all():
            raise ValueError("custom window samples must be finite")
        power = np.abs(sig.samples) ** 2
        total = float(power.sum())
        if total <= 0.0:
            raise DomainError("custom window samples are all zero")
        edge_mass = float(power[0] + power[-1]) / total
        if edge_mass > _TAIL_BUDGET:
            raise DomainError(
                f"custom window carries {edge_mass:.3e} of its mass in the "
                f"outermost samples; budget is {_TAIL_BUDGET}"
            )
        return Window(_unit(sig), "custom")
    raise ValueError(f"unknown window family {family!r}")


def _unit(signal: Signal) -> Signal:
    nrm = signal.norm
    if nrm == 0.0:
        raise DomainError("window samples are all zero")
    if abs(nrm - 1.0) <= 1e-14:
        return signal
    return Signal(signal.grid, signal.samples / nrm)
