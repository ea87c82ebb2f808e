"""Windowed Fourier analysis and synthesis on a phase-space lattice.

The lattice is critically tied to the sample grid: shift step = ``dt``,
modulation step = ``1/(n*dt)``.  Analysis is one FFT per shift row, synthesis
is the adjoint sum, and both carry the symmetric half-phase so that
coefficients transform cleanly under Fourier rotation of phase space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import _REL_TOL, SampleGrid, Signal, _require_same_grid, _shifted
from .windows import Window

__all__ = ["PhaseGrid", "GaborCoefficients", "analyze", "synthesize", "shifted_rows"]


def _uniform_step(values: np.ndarray, what: str) -> float:
    if len(values) == 1:
        return 0.0
    steps = np.diff(values)
    step = float(steps[0])
    if step <= 0 or not np.allclose(steps, step, rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} values must increase with a uniform step")
    return step


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
        if len(taus) > 1:
            step = _uniform_step(taus, "tau")
            if abs(step - dt) > _REL_TOL * dt:
                raise ValueError(f"tau step {step!r} must equal dt {dt!r}")
        for tau in (taus[0], taus[-1]):
            self.grid.shift_index(tau)  # alignment check, raises AlignmentError
        if len(sigmas) > 1:
            step = _uniform_step(sigmas, "sigma")
            if abs(step - ds) > _REL_TOL * ds:
                raise ValueError(f"sigma step {step!r} must equal 1/(n dt) = {ds!r}")
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
        return np.array([self.grid.shift_index(t) for t in self.tau_values])

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
    taus = phase_grid.tau_values
    sigmas = phase_grid.sigma_values
    n_sigma = len(sigmas)
    s0 = sigmas[0]

    rows = shifted_rows(window.samples, phase_grid.shift_indices)
    pre = rows.conj() * f.samples[None, :]
    pre *= np.exp(-2j * np.pi * grid.dt * s0 * np.arange(grid.n))[None, :]
    spec = np.fft.fft(pre, axis=1)[:, :n_sigma]
    spec *= grid.dt * np.exp(-2j * np.pi * grid.t_start * sigmas)[None, :]
    spec *= np.exp(-1j * np.pi * np.outer(taus, sigmas))
    return GaborCoefficients(phase_grid, spec)


def synthesize(coeffs: GaborCoefficients, window: Window) -> Signal:
    """Weighted superposition ``dtau dsigma sum G[i,j] rho(tau_i, sigma_j) window``.

    Adjoint of :func:`analyze` with respect to the grid and phase-space
    quadrature inner products.
    """
    pg = coeffs.phase_grid
    grid = pg.grid
    _require_same_grid(grid, window.grid, "synthesize")
    taus = pg.tau_values
    sigmas = pg.sigma_values
    q = len(sigmas)
    s0 = sigmas[0]

    work = coeffs.values * np.exp(1j * np.pi * np.outer(taus, sigmas))
    work = work * np.exp(2j * np.pi * grid.t_start * pg.dsigma * np.arange(q))[None, :]
    padded = np.zeros((len(taus), grid.n), dtype=np.complex128)
    padded[:, :q] = work
    u = grid.n * np.fft.ifft(padded, axis=1)
    u *= pg.dsigma * np.exp(2j * np.pi * s0 * grid.times)[None, :]

    rows = shifted_rows(window.samples, pg.shift_indices)
    out = pg.dtau * np.sum(u * rows, axis=0)
    return Signal(grid, out)
