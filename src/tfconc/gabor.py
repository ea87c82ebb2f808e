"""Windowed Fourier analysis and synthesis on a phase-space lattice.

The lattice is critically tied to the sample grid: shift step = ``dt``,
modulation step = ``1/(n*dt)``.  Analysis is one FFT per shift row, synthesis
is the adjoint sum, and both carry the symmetric half-phase so that
coefficients transform cleanly under Fourier rotation of phase space.  The
window's ambiguity function is its analysis by itself, conjugated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    _REL_TOL,
    SampleGrid,
    Signal,
    _forward_sum,
    _modulated_sum,
    _require_same_grid,
    _shifted,
)
from .windows import Window

__all__ = [
    "PhaseGrid",
    "GaborCoefficients",
    "analyze",
    "synthesize",
    "shifted_rows",
    "ambiguity_table",
]


def _uniform_step(values: np.ndarray, what: str) -> float:
    if len(values) == 1:
        return 0.0
    steps = np.diff(values)
    step = float(steps[0])
    if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} values must increase with a uniform step")
    return step


def _require_step(values: np.ndarray, what: str, want: float, name: str) -> None:
    """ValueError unless ``values`` increase with a uniform step equal to
    ``want``, which the message calls ``name``, to the grid tolerance."""
    if len(values) > 1:
        step = _uniform_step(values, what)
        if abs(step - want) > _REL_TOL * want:
            raise ValueError(f"{what} step {step!r} must equal {name} = {want!r}")


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Rectangular set of phase-space nodes ``(tau_i, sigma_j)``.

    Invariants: tau values are grid-aligned translates with step ``dt``; sigma
    values have step ``1/(n*dt)`` (one FFT bin) and at most ``n`` of them, all
    inside the grid's Nyquist band.  Offsets are free -- covers use integer
    multiples, the full frequency grid uses symmetric half-offset bins.
    """

    grid: SampleGrid
    tau_values: np.ndarray
    sigma_values: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.tau_values, dtype=float)
        sigmas = np.asarray(self.sigma_values, dtype=float)
        if taus.ndim != 1 or len(taus) == 0 or sigmas.ndim != 1 or len(sigmas) == 0:
            raise ValueError("phase grid needs 1-D, non-empty tau and sigma values")
        dt, ds = self.grid.dt, self.grid.dsigma
        _require_step(taus, "tau", dt, "dt")
        for tau in (taus[0], taus[-1]):
            self.grid.shift_index(tau)  # alignment check, raises AlignmentError
        _require_step(sigmas, "sigma", ds, "1/(n dt)")
        if len(sigmas) > self.grid.n:
            raise ValueError(
                f"{len(sigmas)} sigma rows exceed one FFT period (n={self.grid.n})"
            )
        band = 0.5 / dt + ds / 2 + 1e-9 * ds
        if np.abs(sigmas).max() > band:
            raise ValueError("sigma values leave the grid's Nyquist band")
        object.__setattr__(self, "tau_values", taus)
        object.__setattr__(self, "sigma_values", sigmas)

    @property
    def dtau(self) -> float:
        return self.grid.dt

    @property
    def dsigma(self) -> float:
        return self.grid.dsigma

    @property
    def cell_area(self) -> float:
        return self.dtau * self.dsigma

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.tau_values), len(self.sigma_values)

    @property
    def shift_indices(self) -> np.ndarray:
        """Grid shift of each tau row: consecutive, as the tau step is ``dt``."""
        first = self.grid.shift_index(self.tau_values[0])
        return first + np.arange(len(self.tau_values))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def full_cover(cls, grid: SampleGrid) -> "PhaseGrid":
        """Shifts spanning the grid itself, all frequency bins."""
        m = (grid.n - 1) // 2
        taus = grid.dt * np.arange(-m, m + 1)
        return cls(grid, taus, grid.dual.times)

    @classmethod
    def moyal_cover(cls, grid: SampleGrid) -> "PhaseGrid":
        """Shifts spanning twice the grid, all frequency bins.

        With this cover the discrete phase-space energy of *any* signal equals
        its squared norm exactly: the sigma rows form a full FFT period
        (unitarity) and every sample sees the whole window slide past it.
        """
        m = grid.n - 1
        taus = grid.dt * np.arange(-m, m + 1)
        return cls(grid, taus, grid.dual.times)

    @classmethod
    def cover(
        cls,
        grid: SampleGrid,
        tau_range: tuple[float, float],
        sigma_range: tuple[float, float],
    ) -> "PhaseGrid":
        """Smallest integer-offset lattice covering the given ranges."""
        dt, ds = grid.dt, grid.dsigma
        t_lo, t_hi = tau_range
        s_lo, s_hi = sigma_range
        i0 = _floor_index(t_lo / dt)
        i1 = _ceil_index(t_hi / dt)
        j0 = _floor_index(s_lo / ds)
        j1 = _ceil_index(s_hi / ds)
        j_band = int(np.floor((0.5 / dt) / ds - 0.5))
        j0, j1 = max(j0, -j_band), min(j1, j_band)
        if j1 - j0 + 1 > grid.n:
            # symmetric trim to one FFT period
            excess = j1 - j0 + 1 - grid.n
            j0 += excess // 2
            j1 -= excess - excess // 2
        taus = dt * np.arange(i0, i1 + 1)
        sigmas = ds * np.arange(j0, j1 + 1)
        return cls(grid, taus, sigmas)


def _floor_index(x: float) -> int:
    return int(np.floor(x + 1e-12))


def _ceil_index(x: float) -> int:
    return int(np.ceil(x - 1e-12))


@dataclass(frozen=True, eq=False)
class GaborCoefficients:
    """Coefficient matrix ``values[i, j]`` over a phase grid."""

    phase_grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.phase_grid.shape:
            raise ValueError(
                f"expected values of shape {self.phase_grid.shape}, got {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @property
    def energy(self) -> float:
        """Quadrature phase-space energy ``dtau dsigma sum |G|^2``."""
        return float(self.phase_grid.cell_area * np.sum(np.abs(self.values) ** 2))


def shifted_rows(samples: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Matrix whose row i is ``samples`` translated by ``shifts[i]`` steps.

    Row semantics match :func:`tfconc.grids.tf_shift`: ``out[i, m] =
    samples[m + shifts[i]]`` with zeros where the index leaves the array.
    """
    out = np.zeros((len(shifts), len(samples)), dtype=np.complex128)
    for i, m in enumerate(shifts):
        out[i] = _shifted(samples, m)
    return out


def analyze(f: Signal, window: Window, phase_grid: PhaseGrid) -> GaborCoefficients:
    """Windowed Fourier coefficients ``<f, rho(tau_i, sigma_j) window>``.

    One FFT per shift row: the row at ``tau`` is
    ``exp(-pi i tau sigma) * FT[f * conj(window(. + tau))](sigma)``, an exact
    rearrangement of the defining inner product.
    """
    grid = f.grid
    _require_same_grid(grid, window.grid, "analyze")
    _require_same_grid(grid, phase_grid.grid, "analyze")
    sigmas = phase_grid.sigma_values
    rows = shifted_rows(window.samples, phase_grid.shift_indices)
    spec = _forward_sum(rows.conj() * f.samples, grid, sigmas[0], len(sigmas))
    spec *= np.exp(-1j * np.pi * np.outer(phase_grid.tau_values, sigmas))
    return GaborCoefficients(phase_grid, spec)


def ambiguity_table(
    window: Window, tau_values: np.ndarray, sigma_values: np.ndarray
) -> np.ndarray:
    """The window's ambiguity function ``H(tau, sigma) = <rho(tau, sigma) phi, phi>``
    on a product lattice.

    On one FFT period of sigma rows this is ``conj(analyze(phi, phi, pg))``
    over the phase grid ``pg`` of the same nodes, by the same shifted rows and
    forward sum.  ``tau_values`` must be grid-aligned; ``sigma_values`` must
    be uniform with step ``dsigma`` but may span more than one FFT period: the
    table is computed in chunks of at most ``n`` bins, each with its own
    offset, so no aliasing is hidden.
    """
    grid = window.grid
    taus = np.asarray(tau_values, dtype=float)
    sigmas = np.asarray(sigma_values, dtype=float)
    _require_step(sigmas, "sigma", grid.dsigma, "1/(n dt)")
    phi = window.samples
    rows = shifted_rows(phi, np.array([grid.shift_index(tau) for tau in taus], dtype=int))
    # H(tau, s) = e^{pi i tau s} * conj( dt sum conj(v) e^{-2 pi i s t} ),
    # v = phi(. + tau) conj(phi)
    v_conj = (rows * phi.conj()).conj()
    out = np.empty((len(taus), len(sigmas)), dtype=np.complex128)
    for start in range(0, len(sigmas), grid.n):
        stop = min(start + grid.n, len(sigmas))
        out[:, start:stop] = _forward_sum(v_conj, grid, sigmas[start], stop - start).conj()
    out *= np.exp(1j * np.pi * np.outer(taus, sigmas))
    return out


def synthesize(coeffs: GaborCoefficients, window: Window) -> Signal:
    """Weighted superposition ``dtau dsigma sum G[i,j] rho(tau_i, sigma_j) window``.

    Adjoint of :func:`analyze` with respect to the grid and phase-space
    quadrature inner products.
    """
    pg = coeffs.phase_grid
    grid = pg.grid
    _require_same_grid(grid, window.grid, "synthesize")
    sigmas = pg.sigma_values
    work = coeffs.values * np.exp(1j * np.pi * np.outer(pg.tau_values, sigmas))
    u = _modulated_sum(work, grid, sigmas[0])
    rows = shifted_rows(window.samples, pg.shift_indices)
    return Signal(grid, pg.dtau * np.sum(u * rows, axis=0))
