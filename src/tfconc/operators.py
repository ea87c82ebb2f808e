"""Concentration operators: assembly, spectra, counting, and filtering.

The operator restricts phase-space content to a rasterized region: analyze,
mask, synthesize.  Its matrix realization stores kernel values ``k(t_a, t_b)``;
the operator acting on sample vectors is ``dt * matrix``, a PSD contraction,
so every spectrum lives in ``[0, 1]`` up to solver rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, DomainError, NumericalError
from .gabor import PhaseGrid, analyze
from .grids import SampleGrid, Signal
from .kernels import ambiguity_table
from .regions import RasterizedRegion, Region, rasterize
from .windows import Window

__all__ = [
    "ConcentrationOperator",
    "Spectrum",
    "assemble",
    "eigendecompose",
    "count",
    "trace_identity",
    "hs_identity",
    "energy",
    "eigenfilter",
    "phase_space_matrix",
    "phase_space_eigenvalues",
]

_HERMITIAN_TOL = 1e-12
_EIG_RANGE_TOL = 1e-8
#: window samples at or below this fraction of the peak lie outside a row's block
_SUPPORT_TOL = 1e-17
#: phase_space_matrix beyond this many cells needs gigabytes (cells**2 entries)
_CELL_CAP = 4096


@dataclass(frozen=True, eq=False)
class ConcentrationOperator:
    """Kernel-matrix realization of the region-concentration operator.

    ``matrix[a, b]`` approximates the integral kernel at ``(t_a, t_b)``; the
    matrix acting on coefficient vectors is ``dt * matrix``.  Hermitian by
    construction (symmetrized once after assembly).
    """

    window: Window
    raster: RasterizedRegion
    matrix: np.ndarray

    @property
    def grid(self) -> SampleGrid:
        return self.window.grid

    @property
    def phase_grid(self) -> PhaseGrid:
        return self.raster.phase_grid

    @property
    def trace(self) -> float:
        """Operator trace ``dt * sum(diag)``."""
        return float(self.grid.dt * np.real(np.trace(self.matrix)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigendecomposition, eigenvalues descending, raw (un-clamped)."""

    operator: ConcentrationOperator
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # column k, unit norm in the grid inner product

    def eigenfunction(self, k: int) -> Signal:
        return Signal(self.operator.grid, self.eigenfunctions[:, k])

    @property
    def clamped(self) -> np.ndarray:
        return np.clip(self.eigenvalues, 0.0, 1.0)


def assemble(
    window: Window,
    region: Region | RasterizedRegion,
    *,
    oracle: bool = False,
) -> ConcentrationOperator:
    """Assemble the operator matrix for ``window`` concentrated on ``region``.

    Fast path: group raster cells by shift row; the weighted modulation sum of
    each row collapses to a difference kernel ``D_i(t_a - t_b)`` (uniform sigma
    step), leaving one windowed outer product per row.  That product is
    nonzero only on the square block where the shifted window is, so each row
    updates just that block: the window's support (samples above
    ``1e-17 * max|w|``) shifted and clipped to the grid.  The cost is
    rows * width**2 for a support ``width`` samples wide, not rows * n**2.
    This is algebraically the column-by-column analyze -> mask -> synthesize
    composition, reorganized.

    ``oracle=True`` instead sums ``weight * outer(g_c, conj(g_c))`` over raster
    cells with ``g_c`` the explicitly shifted window -- the direct quadrature
    of the kernel formula, kept as an independent slow route.

    A :class:`Region` is rasterized on the smallest phase grid covering its
    bounding box; pass a :class:`RasterizedRegion` to choose the lattice or
    the cell weights.  Raises CoverageError (via rasterization) if the region
    does not fit the phase grid.
    """
    if isinstance(region, RasterizedRegion):
        raster = region
    else:
        t_lo, t_hi, s_lo, s_hi = region.bounding_box()
        pg = PhaseGrid.cover(window.grid, (t_lo, t_hi), (s_lo, s_hi))
        raster = rasterize(region, pg)

    if oracle:
        matrix = _assemble_oracle(window, raster)
    else:
        matrix = _assemble_fast(window, raster)
    matrix = 0.5 * (matrix + matrix.conj().T)
    return ConcentrationOperator(window, raster, matrix)


def _assemble_fast(window: Window, raster: RasterizedRegion) -> np.ndarray:
    grid = window.grid
    pg = raster.phase_grid
    n = grid.n
    out = np.zeros((n, n), dtype=np.complex128)

    # row i holds samples[m + shift_i], so its block is the support shifted
    samples = window.samples
    kept = np.nonzero(np.abs(samples) > _SUPPORT_TOL * np.abs(samples).max())[0]
    first, last = kept[0], kept[-1] + 1
    active = np.nonzero(raster.mask.any(axis=1))[0]
    shifts = pg.shift_indices[active]
    lo = np.maximum(first - shifts, 0)
    hi = np.minimum(last - shifts, n)
    live = np.nonzero(lo < hi)[0]
    if len(live) == 0:
        return out
    width = int((hi - lo)[live].max())

    support = samples[first:last]
    products = support[:, None] * support.conj()[None, :]
    lags = grid.dt * np.arange(-(width - 1), width)
    bins = np.exp(2j * np.pi * np.outer(pg.sigma_values, lags))
    # weights in cell units: a whole cell is exactly 1, so the lag-0 kernel
    # of a row is an exact count and the trace tracks the raster area
    diff_kernels = pg.cell_area * ((raster.weights[active] / pg.cell_area) @ bins)
    idx = (np.arange(width)[:, None] - np.arange(width)[None, :]) + (width - 1)
    for k in live:
        a, b = lo[k], hi[k]
        c, m = a + shifts[k] - first, b - a  # the block's samples: support[c : c + m]
        out[a:b, a:b] += products[c : c + m, c : c + m] * diff_kernels[k][idx[:m, :m]]
    return out


def _assemble_oracle(window: Window, raster: RasterizedRegion) -> np.ndarray:
    from .grids import tf_shift

    grid = window.grid
    pg = raster.phase_grid
    out = np.zeros((grid.n, grid.n), dtype=np.complex128)
    ii, jj = np.nonzero(raster.mask)
    for i, j in zip(ii, jj):
        g = tf_shift(window.signal, pg.tau_values[i], pg.sigma_values[j]).samples
        out += raster.weights[i, j] * np.outer(g, g.conj())
    return out


def eigendecompose(op: ConcentrationOperator) -> Spectrum:
    """Dense Hermitian eigendecomposition of ``dt * matrix``.

    Eigenvalues are returned raw and descending; they must land in
    ``[-1e-8, 1 + 1e-8]`` or a NumericalError is raised (the discrete operator
    is PSD and norm-bounded by one, so anything worse means a broken matrix).
    Eigenfunctions are scaled to unit grid norm.
    """
    vals, vecs = _checked_eigh(op, vectors=True)
    return Spectrum(op, vals, vecs / np.sqrt(op.grid.dt))


def _checked_eigh(op: ConcentrationOperator, *, vectors: bool):
    """Descending eigenvalues of ``dt * matrix`` and, with ``vectors``, the
    matching unit-Euclidean-norm columns (else None).

    Raises NumericalError if the matrix is not Hermitian or the spectrum
    leaves ``[0, 1]`` beyond tolerance.
    """
    a = op.grid.dt * op.matrix
    herm_gap = float(np.abs(a - a.conj().T).max())
    if herm_gap > _HERMITIAN_TOL * max(1.0, float(np.abs(a).max())):
        raise NumericalError(f"operator matrix lost Hermitian symmetry ({herm_gap:.2e})")
    if vectors:
        vals, vecs = np.linalg.eigh(a)
        vals, vecs = vals[::-1], vecs[:, ::-1]
    else:
        vals, vecs = np.linalg.eigvalsh(a)[::-1], None
    if vals[-1] < -_EIG_RANGE_TOL or vals[0] > 1.0 + _EIG_RANGE_TOL:
        raise NumericalError(
            f"eigenvalues [{vals[-1]:.3e}, {vals[0]:.3e}] leave [0, 1] beyond tolerance"
        )
    return vals, vecs


def count(eigenvalues: np.ndarray, lo: float, hi: float = 1.0) -> int:
    """Number of eigenvalues, clamped to [0, 1], in the closed band ``[lo, hi]``.

    The default ``hi = 1`` counts every eigenvalue ``>= lo`` (the scaling-law
    convention); ``hi < 1`` counts a plunge band.  Needs ``0 < lo < hi <= 1``,
    else DomainError -- outside that the count is degenerate.
    """
    if not 0.0 < lo < hi <= 1.0:
        raise DomainError(f"need 0 < lo < hi <= 1, got lo={lo}, hi={hi}")
    clamped = np.clip(eigenvalues, 0.0, 1.0)
    return int(np.sum((clamped >= lo) & (clamped <= hi)))


def trace_identity(op: ConcentrationOperator) -> dict:
    """Check trace == rasterized area and return both.

    These are equal by construction (the diagonal quadrature of each rank-one
    cell term is exactly the cell weight times the window norm); a gap above
    1e-8 is a genuine numerical fault and raises NumericalError.
    """
    trace = op.trace
    raster_area = op.raster.area
    gap = abs(trace - raster_area)
    if gap > 1e-8 * max(1.0, raster_area):
        raise NumericalError(
            f"trace {trace!r} vs raster area {raster_area!r}: gap {gap:.3e}"
        )
    return {"trace": trace, "raster_area": raster_area, "gap": gap}


def hs_identity(spectrum: Spectrum) -> dict:
    """Compare ``sum lambda^2`` with the ambiguity double sum over the region.

    The Hilbert-Schmidt norm has two independent discrete routes: eigenvalues
    from the time-side matrix, and ``sum_{c, c'} w_c w_c' |H(p_c - p_c')|^2``
    over pairs of raster cells with weights ``w``, where the weight products
    are summed per cell difference by correlating the weights with
    themselves.  Agreement within 1% is enforced; the measured gap is returned.
    """
    op = spectrum.operator
    pg = op.phase_grid
    weights = op.raster.weights
    n_tau, n_sigma = weights.shape
    # zero-padded to the full lag range, so the circular correlation does not
    # wrap; the roll puts lag 0 at (n_tau - 1, n_sigma - 1)
    shape = (2 * n_tau - 1, 2 * n_sigma - 1)
    spec = np.fft.rfft2(weights, shape)
    pair_weights = np.roll(
        np.fft.irfft2(spec * spec.conj(), shape), (n_tau - 1, n_sigma - 1), axis=(0, 1)
    )

    dtaus = pg.dtau * np.arange(-(n_tau - 1), n_tau)
    dsigmas = pg.dsigma * np.arange(-(n_sigma - 1), n_sigma)
    table = ambiguity_table(op.window, dtaus, dsigmas)
    double_sum = float(np.sum(pair_weights * np.abs(table) ** 2))
    sum_sq = float(np.sum(spectrum.eigenvalues**2))
    rel_gap = abs(sum_sq - double_sum) / max(double_sum, 1e-300)
    if rel_gap > 0.01:
        raise NumericalError(
            f"Hilbert-Schmidt mismatch: eigenvalue route {sum_sq!r}, "
            f"ambiguity route {double_sum!r} (rel gap {rel_gap:.3e})"
        )
    return {"sum_sq": sum_sq, "double_integral": double_sum, "rel_gap": rel_gap}


def energy(f: Signal, window: Window, raster: RasterizedRegion) -> float:
    """Phase-space energy of ``f`` inside the rasterized region.

    ``sum weights * |<f, rho phi>|^2``; never exceeds ``||f||^2`` (up to
    quadrature slack) because the full-plane energy already equals it.
    """
    coeffs = analyze(f, window, raster.phase_grid)
    return float(np.sum(raster.weights * np.abs(coeffs.values) ** 2))


def eigenfilter(f: Signal, spectrum: Spectrum, rank: int) -> Signal:
    """Orthogonal projection of ``f`` onto the span of the top ``rank``
    eigenfunctions."""
    n = len(spectrum.eigenvalues)
    if not 1 <= rank <= n:
        raise DomainError(f"rank must be in [1, {n}], got {rank}")
    basis = spectrum.eigenfunctions[:, :rank]
    dt = spectrum.operator.grid.dt
    coefs = dt * (basis.conj().T @ f.samples)
    return Signal(f.grid, basis @ coefs)


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
    dtaus = pg.dtau * np.arange(-(n_tau - 1), n_tau)
    dsigmas = pg.dsigma * np.arange(-(n_sigma - 1), n_sigma)
    table = ambiguity_table(op.window, dtaus, dsigmas)

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
    return np.linalg.eigvalsh(b)[::-1]
