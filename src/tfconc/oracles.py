"""Slow independent routes, kept only as test oracles.

Each function here computes something the fast path in :mod:`tfconc.operators`
also computes, or checks one of its identities, by a different route: the
Gabor analysis and synthesis pair on a phase-space lattice (the paper's
analyze -> mask -> synthesize composition), the window's ambiguity function,
the operator matrix by direct quadrature of the kernel formula, the
Hilbert-Schmidt identity through the ambiguity double sum, and the
phase-space Gram matrix whose spectrum is the operator's.  No ``tfc`` command
imports this module.

The Gabor lattice is critically tied to the sample grid: shift step = ``dt``,
modulation step = ``1/(n*dt)``.  Analysis is one FFT per shift row, synthesis
is the adjoint sum, and both carry the symmetric half-phase so that
coefficients transform cleanly under Fourier rotation of phase space.  The
window's ambiguity function is its analysis by itself, conjugated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh

from .errors import CoverageError, NumericalError
from .grids import (
    PhaseGrid,
    Signal,
    _forward_sum,
    _modulated_sum,
    _require_same_grid,
    _require_step,
    _shifted,
    tf_shift,
)
from .operators import ConcentrationOperator, Spectrum, _budgeted_raster
from .regions import RasterizedRegion, Region
from .windows import Window

__all__ = [
    "GaborCoefficients",
    "analyze",
    "synthesize",
    "shifted_rows",
    "ambiguity_table",
    "assemble_direct",
    "hs_identity",
    "phase_space_matrix",
    "phase_space_eigenvalues",
]

#: phase_space_matrix beyond this many cells needs gigabytes (cells**2 entries)
_CELL_CAP = 4096


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


def assemble_direct(
    window: Window, region: Region | RasterizedRegion
) -> ConcentrationOperator:
    """The operator of :func:`tfconc.operators.assemble` by direct quadrature
    of the kernel formula: ``weight * outer(g_c, conj(g_c))`` summed over
    raster cells, with ``g_c`` the explicitly shifted window, then
    symmetrized.  Cost ``cells * n**2``.  The region, the budget and the
    errors are as for :func:`tfconc.operators.assemble`.
    """
    raster = _budgeted_raster(window, region)
    pg = raster.phase_grid
    n = window.grid.n
    matrix = np.zeros((n, n), dtype=np.complex128)
    for i, j in zip(*np.nonzero(raster.mask)):
        g = tf_shift(window.signal, pg.tau_values[i], pg.sigma_values[j]).samples
        matrix += raster.weights[i, j] * np.outer(g, g.conj())
    return ConcentrationOperator(window, raster, 0.5 * (matrix + matrix.conj().T))


def hs_identity(spectrum: Spectrum) -> dict:
    """Compare ``sum lambda^2`` with the ambiguity double sum over the region.

    The Hilbert-Schmidt norm has two independent discrete routes: eigenvalues
    from the time-side matrix, and ``sum_{c, c'} w_c w_c' |H(p_c - p_c')|^2``
    over pairs of raster cells with weights ``w``, where the weight products
    are summed per cell difference by correlating the weights with
    themselves.  The two routes are the same sum reordered, so they must agree
    to rounding: a relative gap above ``eps * (n + cells)`` raises
    NumericalError (``eps`` the float64 unit roundoff, ``n`` the matrix size
    the eigensolver's error grows with, ``cells`` the raster cells whose pair
    sum the other route accumulates).  The identity needs every active row's
    window inside the grid: a window clipped at a grid edge loses mass that
    the ambiguity route still counts, and that raises too.  The measured gap
    is returned.
    """
    op = spectrum.operator
    weights = op.raster.weights
    n_tau, n_sigma = weights.shape
    # zero-padded to the full lag range, so the circular correlation does not
    # wrap; the roll puts lag 0 at (n_tau - 1, n_sigma - 1)
    shape = (2 * n_tau - 1, 2 * n_sigma - 1)
    spec = np.fft.rfft2(weights, shape)
    pair_weights = np.roll(
        np.fft.irfft2(spec * spec.conj(), shape), (n_tau - 1, n_sigma - 1), axis=(0, 1)
    )
    double_sum = float(np.sum(pair_weights * np.abs(_lag_table(op)) ** 2))
    sum_sq = float(np.sum(spectrum.eigenvalues**2))
    rel_gap = abs(sum_sq - double_sum) / max(double_sum, 1e-300)
    tol = np.finfo(np.float64).eps * (op.grid.n + op.raster.cell_count)
    if rel_gap > tol:
        raise NumericalError(
            f"Hilbert-Schmidt mismatch: eigenvalue route {sum_sq!r}, "
            f"ambiguity route {double_sum!r} (rel gap {rel_gap:.3e} > {tol:.1e})"
        )
    return {"sum_sq": sum_sq, "double_integral": double_sum, "rel_gap": rel_gap}


def _lag_table(op: ConcentrationOperator) -> np.ndarray:
    """The window's ambiguity function at every difference of two raster
    cells: lag ``(k, l)`` cells sits at ``[k + n_tau - 1, l + n_sigma - 1]``."""
    pg = op.phase_grid
    n_tau, n_sigma = op.raster.weights.shape
    dtaus = pg.dtau * np.arange(-(n_tau - 1), n_tau)
    dsigmas = pg.dsigma * np.arange(-(n_sigma - 1), n_sigma)
    return ambiguity_table(op.window, dtaus, dsigmas)


def phase_space_matrix(op: ConcentrationOperator) -> np.ndarray:
    """Weight-conjugated kernel Gram on the region's cells.

    ``B[c, c'] = sqrt(w_c w_{c'}) * K(p_c; p_{c'})`` over raster-covered cells
    with weights ``w``; its eigenvalues coincide with the nonzero spectrum of
    the time-side operator (both are products of the same two rectangular
    maps, multiplied in the two orders).  The matrix holds cells**2 complex
    entries, so regions of more than 4096 raster cells raise CoverageError
    before anything is allocated.
    """
    cells = op.raster.cell_count
    if cells > _CELL_CAP:
        raise CoverageError(
            f"phase-space matrix wants {cells} cells > {_CELL_CAP}; "
            "shrink the region or coarsen the grid"
        )
    pg = op.phase_grid
    ii, jj = np.nonzero(op.raster.mask)
    n_tau, n_sigma = op.raster.mask.shape
    table = _lag_table(op)
    taus = pg.tau_values[ii]
    sigmas = pg.sigma_values[jj]
    di = (ii[:, None] - ii[None, :]) + (n_tau - 1)
    dj = (jj[:, None] - jj[None, :]) + (n_sigma - 1)
    phases = np.exp(
        1j * np.pi * (taus[:, None] * sigmas[None, :] - sigmas[:, None] * taus[None, :])
    )
    root_w = np.sqrt(op.raster.weights[ii, jj])
    return root_w[:, None] * root_w[None, :] * phases * table[di, dj]


def phase_space_eigenvalues(op: ConcentrationOperator) -> np.ndarray:
    """Descending eigenvalues of :func:`phase_space_matrix`."""
    b = phase_space_matrix(op)
    b = 0.5 * (b + b.conj().T)
    return eigvalsh(b)[::-1]
