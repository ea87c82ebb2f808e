"""Uniform sample grids, discrete signals, the unitary transforms between them,
and the phase-space lattices over a grid.

All quadrature is the plain Riemann sum with weight ``dt``; the discrete
Fourier pair below is the exact Riemann sum of the defining integrals on the
grid and its induced frequency grid, so Plancherel and the round trip hold to
machine precision (not just asymptotically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "SampleGrid",
    "Signal",
    "grids_compatible",
    "inner_product",
    "fourier_transform",
    "inverse_fourier_transform",
    "tf_shift",
    "PhaseGrid",
]

#: relative tolerance used when deciding whether two grids (or a shift and a
#: grid step) are the same; grid steps surviving a Fourier round trip can move
#: by a few ulp, nothing more.
_REL_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SampleGrid:
    """Symmetric uniform grid of ``n`` samples with step ``dt``.

    The start time is pinned to ``-(n - 1) * dt / 2`` so the grid is symmetric
    about zero: for odd ``n`` the origin is a sample, for even ``n`` it falls
    between the two middle samples.
    """

    n: int
    dt: float
    t_start: float = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 samples, got n={self.n}")
        if not self.dt > 0:
            raise ValueError(f"sample step must be positive, got dt={self.dt}")
        if not math.isfinite(self.dt):
            raise ValueError(f"sample step must be finite, got {self.dt}")
        object.__setattr__(self, "t_start", -(self.n - 1) * self.dt / 2.0)

    @property
    def times(self) -> np.ndarray:
        """Sample positions ``dt * (k - (n - 1) / 2)``, so ``times[0] == t_start``.

        The offsets ``k - (n - 1) / 2`` are exact half-integers and each is
        multiplied by ``dt`` once, so the grid is exactly antisymmetric:
        ``times == -times[::-1]`` bit for bit, and an even profile sampled on
        it equals its reverse exactly, which ``t_start + k * dt`` (rounding
        unevenly) would lose.
        """
        return self.dt * (np.arange(self.n) - (self.n - 1) / 2)

    @property
    def span(self) -> float:
        """Half-width of the grid, ``|t_start|``."""
        return -self.t_start

    @property
    def dsigma(self) -> float:
        """Step of the induced frequency grid, ``1 / (n * dt)``."""
        return 1.0 / (self.n * self.dt)

    @property
    def dual(self) -> "SampleGrid":
        """The induced frequency grid as a grid in its own right.

        Same number of samples, step ``dsigma``, symmetric about zero; it stays
        inside the band ``[-1/(2 dt), 1/(2 dt))``.  ``grid.dual.dual`` has the
        original step back up to rounding.
        """
        return SampleGrid(self.n, self.dsigma)

    def shift_index(self, tau: float) -> int:
        """Integer ``m`` with ``tau == m * dt``, or DomainError.

        The shift must align with the grid within 1e-9 relative so that
        translated samples land on samples again.
        """
        ratio = tau / self.dt
        m = round(ratio)
        if abs(ratio - m) > _REL_TOL * max(1.0, abs(ratio)):
            raise DomainError(
                f"shift tau={tau!r} is not an integer multiple of dt={self.dt!r}"
            )
        return int(m)


def grids_compatible(a: SampleGrid, b: SampleGrid) -> bool:
    return a.n == b.n and math.isclose(a.dt, b.dt, rel_tol=_REL_TOL)


def _require_same_grid(a: SampleGrid, b: SampleGrid, what: str) -> None:
    if not grids_compatible(a, b):
        raise DomainError(
            f"{what}: grids differ (n={a.n}, dt={a.dt!r}) vs (n={b.n}, dt={b.dt!r})"
        )


@dataclass(frozen=True, slots=True, eq=False)
class Signal:
    """Complex samples attached to a grid."""

    grid: SampleGrid
    samples: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.samples, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ValueError(
                f"expected {self.grid.n} samples, got shape {vals.shape}"
            )
        object.__setattr__(self, "samples", vals)

    @property
    def norm(self) -> float:
        """Grid L2 norm ``sqrt(dt * sum |f|^2)``."""
        return float(np.sqrt(self.grid.dt * np.sum(np.abs(self.samples) ** 2)))


def inner_product(f: Signal, g: Signal) -> complex:
    """Riemann-sum inner product ``dt * sum f * conj(g)``.

    Conjugate-linear in the second argument, matching ``<f, g> = int f conj(g)``.
    """
    _require_same_grid(f.grid, g.grid, "inner_product")
    return complex(f.grid.dt * np.vdot(g.samples, f.samples))


# -- phase-corrected FFT cores ------------------------------------------------
#
# Both helpers evaluate exact Riemann sums on grids whose frequency offset is
# arbitrary; only the frequency *step* is pinned to dsigma = 1/(n*dt), which is
# what lets a length-n FFT do the work.


def _forward_sum(
    values: np.ndarray, grid: SampleGrid, sigma_start: float, n_out: int
) -> np.ndarray:
    """``dt * sum_m values[..., m] * exp(-2 pi i t_m sigma_k)`` for
    ``sigma_k = sigma_start + k * dsigma``, ``k = 0 .. n_out - 1``, along the
    last axis.
    """
    n, dt, t0 = grid.n, grid.dt, grid.t_start
    if not 1 <= n_out <= n:
        raise ValueError(f"n_out must be in [1, {n}], got {n_out}")
    ds = grid.dsigma
    pre = values * np.exp(-2j * np.pi * dt * sigma_start * np.arange(n))
    spec = np.fft.fft(pre)[..., :n_out]
    sigmas = sigma_start + ds * np.arange(n_out)
    return dt * np.exp(-2j * np.pi * t0 * sigmas) * spec


def _modulated_sum(
    coeffs: np.ndarray, grid: SampleGrid, sigma_start: float
) -> np.ndarray:
    """``dsigma * sum_j coeffs[..., j] * exp(+2 pi i t_m sigma_j)`` on all of
    ``grid``, with ``sigma_j = sigma_start + j * dsigma`` along the last axis,
    which holds at most ``n`` entries.
    """
    n, t0 = grid.n, grid.t_start
    q = coeffs.shape[-1]
    if q > n:
        raise ValueError(f"at most {n} frequency rows fit one FFT period, got {q}")
    ds = grid.dsigma
    padded = np.zeros((*coeffs.shape[:-1], n), dtype=np.complex128)
    padded[..., :q] = coeffs * np.exp(2j * np.pi * t0 * ds * np.arange(q))
    out = n * np.fft.ifft(padded)
    return ds * np.exp(2j * np.pi * grid.times * sigma_start) * out


def fourier_transform(f: Signal) -> Signal:
    """Integral Fourier transform ``f_hat(sigma) = int f(t) exp(-2 pi i t sigma) dt``
    sampled on the induced frequency grid.

    Returns a Signal on ``f.grid.dual``.  The computation is the exact Riemann
    sum at every frequency bin (phase-corrected FFT), so it is unitary from the
    grid inner product to the dual one.
    """
    dual = f.grid.dual
    vals = _forward_sum(f.samples, f.grid, dual.t_start, f.grid.n)
    return Signal(dual, vals)


def inverse_fourier_transform(spectrum: Signal) -> Signal:
    """Inverse of :func:`fourier_transform`; returns a Signal on ``spectrum.grid.dual``.

    ``inverse_fourier_transform(fourier_transform(f))`` reproduces ``f`` up to
    rounding (the two Riemann sums are exactly inverse maps on dual grids).
    """
    target = spectrum.grid.dual
    # the same modulated sum with roles of time and frequency swapped
    vals = _modulated_sum(spectrum.samples, target, spectrum.grid.t_start)
    return Signal(target, vals)


def tf_shift(f: Signal, tau: float, sigma: float) -> Signal:
    """Time-frequency shift ``e^{pi i tau sigma} e^{2 pi i sigma t} f(t + tau)``.

    ``tau`` must be grid-aligned (DomainError otherwise); ``sigma`` is
    unrestricted.  Samples translated past the grid edge are dropped and zeros
    shifted in -- the grid models the real line, not the circle, so no wrap.
    """
    grid = f.grid
    out = _shifted(f.samples, grid.shift_index(tau))
    phase = np.exp(1j * np.pi * tau * sigma + 2j * np.pi * sigma * grid.times)
    return Signal(grid, phase * out)


def _shifted(samples: np.ndarray, m: int) -> np.ndarray:
    """``out[k] = samples[k + m]``, zero where ``k + m`` leaves the array."""
    n = len(samples)
    out = np.zeros(n, dtype=np.complex128)
    a, b = max(0, -m), min(n, n - m)
    if a < b:
        out[a:b] = samples[a + m : b + m]
    return out


# -- phase-space lattices -----------------------------------------------------


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
            self.grid.shift_index(tau)  # alignment check, raises DomainError
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
