"""Concentration operators: assembly, spectra, counting, and filtering.

The operator restricts phase-space content to a rasterized region: analyze,
mask, synthesize.  Its matrix realization stores kernel values ``k(t_a, t_b)``;
the operator acting on sample vectors is ``dt * matrix``, a PSD contraction,
so every spectrum lives in ``[0, 1]`` up to solver rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas, lapack

from .errors import CoverageError, DomainError, NumericalError
from .grids import PhaseGrid, SampleGrid, Signal, _require_same_grid
from .regions import RasterizedRegion, Region, rasterize
from .windows import Window

__all__ = [
    "ConcentrationOperator",
    "Spectrum",
    "assemble",
    "eigendecompose",
    "count",
    "energy",
    "eigenfilter",
]

_HERMITIAN_TOL = 1e-12
_EIG_RANGE_TOL = 1e-8
#: entries within this relative distance of a column's largest modulus tie
_PHASE_TIE = 1e-6
#: window samples at or below this fraction of the peak lie outside a row's
#: support, and lag products at or below it of the squared peak outside the
#: kernel's
_SUPPORT_TOL = 1e-17
#: a request for at least 1/24 of a tridiagonal block's eigenvectors takes all
#: of them by divide and conquer (see :func:`_tridiagonal_vectors`)
_DC_SHARE = 24
#: bytes that assembly's n x n matrix and the eigensolver's working copy may
#: take together, both counted as complex128 (the larger dtype): n <= 5792
_MATRIX_BUDGET = 1 << 30


@dataclass(frozen=True, eq=False)
class ConcentrationOperator:
    """Kernel-matrix realization of the region-concentration operator.

    ``matrix[a, b]`` approximates the integral kernel at ``(t_a, t_b)``; the
    matrix acting on coefficient vectors is ``dt * matrix``.  Exactly
    Hermitian: the fast assembly writes each entry with its conjugate twin,
    and :func:`tfconc.oracles.assemble_direct` symmetrizes its sum.  The fast
    assembly stores a real window on a region mirror-symmetric about
    ``sigma = 0`` as a float64 matrix (exactly symmetric), everything else as
    complex128.
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
    """Every eigenvalue, descending and raw (un-clamped), and the leading
    eigenfunctions: as many columns as :func:`eigendecompose` was asked for,
    float64 for a real operator matrix and complex128 otherwise.  For an
    operator that commutes with ``f(t) -> f(-t)`` (an even window on a region
    symmetric under ``(tau, sigma) -> (-tau, -sigma)``, such as every centred
    disc or rect) each eigenfunction is exactly even or exactly odd."""

    operator: ConcentrationOperator
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # column k, unit norm in the grid inner product

    def leading(self, count: int) -> np.ndarray:
        """The first ``count`` eigenfunction columns."""
        self._require(count)
        return self.eigenfunctions[:, :count]

    def eigenfunction(self, k: int) -> Signal:
        if k < 0:
            raise DomainError(f"eigenfunction index must be >= 0, got {k}")
        self._require(k + 1)
        return Signal(self.operator.grid, self.eigenfunctions[:, k])

    def _require(self, count: int) -> None:
        """DomainError past the computed columns, so a short spectrum never
        passes for a full one."""
        computed = self.eigenfunctions.shape[1]
        if count > computed:
            raise DomainError(
                f"{count} leading eigenfunctions needed, {computed} computed; "
                "ask eigendecompose for more vectors"
            )

    @property
    def clamped(self) -> np.ndarray:
        return np.clip(self.eigenvalues, 0.0, 1.0)


def assemble(window: Window, region: Region | RasterizedRegion) -> ConcentrationOperator:
    """Assemble the operator matrix for ``window`` concentrated on ``region``.

    Group raster cells by shift row; the weighted modulation sum of each row
    collapses to a difference kernel ``D_i(l)`` of the lag ``l = a - b``
    (uniform sigma step), so
    ``M[a, a - l] = sum_i D_i(l) g(a + s_i) conj(g(a - l + s_i))``.  The shifts
    ``s_i`` are consecutive (the tau step is ``dt``), so for each lag this is
    a correlation over rows of ``D_.(l)`` with ``g(u) conj(g(u - l))``.  Only
    the lags of the kernel's support are needed: ``0 <= l < lags``, up to the
    last lag at which some product ``|g(u) g(u - l)|`` exceeds
    ``1e-17 * max|g|**2`` (the window's own support, its samples above
    ``1e-17 * max|g|``, is ``width >= lags`` samples wide; the gaussian's
    kernel falls like ``exp(-pi l**2 dt**2 / 2)`` and needs about 5 time
    units of lags where its support is 7, the triangle's needs all of them).
    The row kernels at exactly those lags come from one GEMM of the raster
    weights, as given, against a table of roots of unity (see
    :func:`_row_kernels`), cost ``rows * sigma_cols * lags``, and all of them
    are correlated in one batched FFT of length ``L >= rows + width - 1``,
    cost about ``lags * L log L``, against ``rows * width**2`` for adding one
    outer-product block per row.  Each lower diagonal is written with its
    exact conjugate above, and only where some active row's shifted window
    covers both samples; entries outside the kernel's support are exact
    zeros, and inside it the error is absolute rounding of the GEMM and the
    FFT, about ``1e-15 * max|M|``.  The diagonal (lag 0) is summed directly
    from the row sums of the weights, which keeps it real and the trace on
    the raster area.  This is algebraically the column-by-column analyze ->
    mask -> synthesize composition, reorganized;
    :func:`tfconc.oracles.assemble_direct` is the same matrix by direct
    quadrature, kept as a test oracle.

    The matrix is real, and stored as float64, exactly when the window
    samples have no nonzero imaginary part and the raster is mirror-symmetric
    about ``sigma = 0`` (the sigma values equal their negated reverse and the
    weights their sigma-reverse): then every ``D_i(l)`` is real, so the row
    kernels come from a table of cosines over half the sigma columns, the lag
    correlation runs on ``rfft``/``irfft`` and the matrix takes half the
    storage.  The rule is exact; no tolerance on ``Im M`` enters it.

    A :class:`Region` is rasterized on the smallest phase grid covering its
    bounding box; pass a :class:`RasterizedRegion` to choose the lattice or
    the cell weights.  Raises CoverageError (via rasterization) if the region
    does not fit the phase grid, and, before rasterizing or allocating
    anything, if the grid is too large for the matrix budget (see
    :func:`_require_matrix_budget`).
    """
    raster = _budgeted_raster(window, region)
    return ConcentrationOperator(window, raster, _assemble_fast(window, raster))


def _budgeted_raster(window: Window, region: Region | RasterizedRegion) -> RasterizedRegion:
    """``region`` as a raster for :func:`assemble` and
    :func:`tfconc.oracles.assemble_direct`, after the matrix budget check: a
    :class:`Region` on the smallest phase grid covering its bounding box, a
    :class:`RasterizedRegion` as given."""
    _require_matrix_budget(window.grid.n)
    if isinstance(region, RasterizedRegion):
        return region
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    return rasterize(region, PhaseGrid.cover(window.grid, (t_lo, t_hi), (s_lo, s_hi)))


def _require_matrix_budget(n: int) -> None:
    """CoverageError when an ``n x n`` complex128 matrix plus the eigensolver's
    working copy of it would exceed 1 GiB, so an oversized grid fails fast
    instead of exhausting memory."""
    need = 2 * n * n * np.dtype(np.complex128).itemsize
    if need > _MATRIX_BUDGET:
        raise CoverageError(
            f"a grid of n={n} samples needs {need} bytes for the operator matrix "
            f"and its eigensolver copy, over the budget of {_MATRIX_BUDGET} bytes; "
            "coarsen dt or shrink the grid"
        )


def _assemble_fast(window: Window, raster: RasterizedRegion) -> np.ndarray:
    """The lag-by-lag assembly of :func:`assemble`: the row kernels at the
    kernel's ``lags`` lags only (:func:`_row_kernels`, cost
    ``rows * sigma_cols * lags``), one FFT correlation over rows for every
    lag, the diagonal from the weights' row sums, and each lower diagonal
    written with its conjugate inside the support band.  float64 when
    :func:`_mirror_symmetric`, complex128 otherwise."""
    grid = window.grid
    pg = raster.phase_grid
    n = grid.n
    real = _mirror_symmetric(window, raster)
    out = np.zeros((n, n), dtype=np.float64 if real else np.complex128)
    active = raster.mask.any(axis=1)
    if not active.any():
        return out

    # rows first..last active; row k's window is samples[m + s0 + k] (unit
    # tau step), and inactive rows between weigh zero
    rows = np.nonzero(active)[0]
    span = slice(rows[0], rows[-1] + 1)
    weights = raster.weights[span]
    n_rows = len(weights)
    s0 = int(pg.shift_indices[rows[0]])

    samples = window.samples
    kept = np.nonzero(np.abs(samples) > _SUPPORT_TOL * np.abs(samples).max())[0]
    first, width = int(kept[0]), int(kept[-1] + 1 - kept[0])
    support = samples[first : first + width]

    # M[a, a - l] = sum_k D_k(l) P_l(a + s0 + k) with P_l(u) = g(u) conj(g(u - l)):
    # per lag l, a correlation over rows of the row kernels D_k with the lag
    # product P_l, kept up to the last lag with a product above the tolerance
    if real:
        support = support.real
    offsets = np.arange(width)
    back = offsets[None, :] - offsets[:, None]  # [l, v] -> v - l
    products = np.where(back >= 0, support * support.conj()[np.maximum(back, 0)], 0)
    peak = np.abs(support).max()
    above = np.abs(products).max(axis=1) > _SUPPORT_TOL * peak * peak
    lags = int(np.nonzero(above)[0][-1]) + 1
    products = products[:lags]
    kernels = _row_kernels(weights, pg, lags, real)
    fft, ifft = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    size = n_rows + width - 1
    fft_len = _fast_length(size)
    spec = fft(kernels[::-1].T, fft_len) * fft(products, fft_len)
    # corr[l, j] = M[a, a - l] at j = a + s0 - first + n_rows - 1
    corr = ifft(spec, fft_len)[:, :size]
    # lag 0 directly from the weights' row sums, so the diagonal is real and
    # the trace tracks the raster area
    corr[0] = np.convolve(weights.sum(axis=1)[::-1], np.abs(support) ** 2)

    # keep (a, a - l) only where an active row's window covers both samples,
    # i.e. some active k in [l - v, width - v) with v = a + c, c = s0 - first.
    # The span's first and last rows are active, so lag l keeps a inside
    # [max(l, l + 1 - n_rows - c), width - c); inactive rows inside the span
    # leave holes there, and then column a keeps the lags 0..reach[a], with
    # reach[a] = v + the last active row below width - v
    c = s0 - first
    keep = True
    holes = not active[span].all()
    if holes:
        v = np.arange(n) + c
        last = np.maximum.accumulate(np.where(active[span], np.arange(n_rows), -1))
        reach = v + last[np.clip(width - v, 1, n_rows) - 1]
    flat = out.reshape(-1)
    for lag in range(lags):
        lo, hi = max(lag, lag + 1 - n_rows - c), min(n, width - c)
        if lo >= hi:
            continue
        vals = corr[lag, lo + c + n_rows - 1 : hi + c + n_rows - 1]
        if holes:
            keep = reach[lo:hi] >= lag
        # the diagonals M[a - l, a] then M[a, a - l], a in [lo, hi): on the
        # main diagonal the second write stands
        up, down = lo * (n + 1) - lag * n, lo * (n + 1) - lag
        np.copyto(flat[up : up + (hi - lo) * (n + 1) : n + 1], vals.conj(), where=keep)
        np.copyto(flat[down : down + (hi - lo) * (n + 1) : n + 1], vals, where=keep)
    return out


def _row_kernels(
    weights: np.ndarray, pg: PhaseGrid, count: int, real: bool
) -> np.ndarray:
    """Row kernels ``D_k(l) = sum_j w_kj exp(2 pi i sigma_j l dt)`` at the lags
    ``0 <= l < count`` for the raster weights ``w``, in their own unit: one
    GEMM of the weights against a gathered root-of-unity table.

    The sigma step is one bin of the n-point DFT, so the term of
    ``sigma_j = sigma_0 + j / (n dt)`` is ``exp(2 pi i sigma_0 l dt)`` times
    ``omega^(j l mod n)`` with ``omega = exp(2 pi i / n)``.  On a mirrored
    sigma grid (``m`` values ``(2 j - m + 1) / (2 n dt)``, weights equal to
    their sigma-reverse) the terms pair into conjugates, and ``D_k(l)`` is
    the real sum over the first ``ceil(m / 2)`` columns of
    ``(w_kj + w_k,m-1-j) cos(pi ((2 j - m + 1) l mod 2n) / n)``, the middle
    column of an odd ``m`` counted once: half the table and half the GEMM.
    The exponents are reduced into one period before the table lookup, so no
    entry is evaluated at an argument past ``2 pi``.  Costs
    ``rows * m * count`` (half that on the real path); the GEMM is scipy's
    ``dgemm`` with alpha 1, on the complex table viewed as interleaved real
    pairs.
    """
    n, m = pg.grid.n, weights.shape[1]
    lags = np.arange(count)
    if real:
        half = m - m // 2
        # column j plus its mirror m-1-j; an odd m's middle column is its own
        # mirror, doubled by the sum and halved back (both exact)
        weights = weights[:, :half] + weights[:, m - half :][:, ::-1]
        if m % 2:
            weights[:, -1] *= 0.5
        j = np.arange(half)[:, None]
        table = np.cos(np.pi / n * np.arange(2 * n))[((2 * j - m + 1) * lags) % (2 * n)]
    else:
        j = np.arange(m)[:, None]
        table = np.exp(2j * np.pi / n * np.arange(n))[(j * lags) % n]
    # the transposes of C-ordered operands are Fortran-ordered, so dgemm
    # copies neither, and its Fortran-ordered product transposes back into a
    # C-ordered (rows, count) array
    kernels = blas.dgemm(1.0, table.view(np.float64).T, weights.T).T
    if real:
        return kernels
    kernels = kernels.view(np.complex128)
    kernels *= np.exp(2j * np.pi * pg.sigma_values[0] * pg.grid.dt * lags)
    return kernels


def _mirror_symmetric(window: Window, raster: RasterizedRegion) -> bool:
    """Whether the operator matrix is exactly real: a real window on a raster
    mirror-symmetric about ``sigma = 0``, decided by exact comparisons."""
    sigmas, weights = raster.phase_grid.sigma_values, raster.weights
    return (
        not window.samples.imag.any()
        and np.array_equal(sigmas, -sigmas[::-1])
        and np.array_equal(weights, weights[:, ::-1])
    )


def _fast_length(m: int) -> int:
    """Smallest length >= m with no prime factor above 5 (fast for np.fft)."""
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def eigendecompose(
    op: ConcentrationOperator, vectors: int | Callable[[np.ndarray], int] | None = None
) -> Spectrum:
    """Every eigenvalue of ``dt * matrix`` and its leading eigenfunctions.

    ``vectors`` is the number of leading eigenfunctions to compute, or a
    function of the descending eigenvalues that returns it; None computes all
    ``n``.  One Householder reduction to real tridiagonal form serves both
    halves: ``dsterf`` gives every eigenvalue, and the tridiagonal solver
    gives the leading eigenvectors before the reflectors carry them back --
    divide and conquer (``dstevd``, all of them) when ``k`` is at least a
    24th of the block, else the MRRR solver ``dstemr`` on the leading index
    range only, at ``O(n k)`` cost (see :func:`_tridiagonal_vectors`).  The
    chain follows the matrix dtype: a float64 matrix (see :func:`assemble`)
    is reduced by ``dsytrd`` and back-transformed by ``dormqr``, in real
    arithmetic, and gets real eigenfunctions; a complex one goes through
    ``zhetrd`` and ``zunmqr``.  No ``n x n`` eigenvector matrix is formed
    unless all are asked for.  The dense linear algebra goes through
    ``scipy.linalg`` only, so one OpenBLAS library runs on the operator
    path.

    Parity split: an even window on a region that maps to itself under
    ``(tau, sigma) -> (-tau, -sigma)`` gives an operator that commutes with
    the reversal ``f(t) -> f(-t)`` (see :func:`_centrosymmetric`, an exact
    rule on the window and the raster).  Then ``dt * matrix`` is folded, in
    the orthonormal basis ``(e_a +- e_{n-1-a}) / sqrt(2)``, into an even block
    of size ``ceil(n / 2)`` and an odd block of size ``floor(n / 2)``, and
    the chain above runs on each block: about a quarter of the ``n^3`` work.
    The two spectra merge in descending order by a stable sort (an even
    eigenvalue ties ahead of an equal odd one), each block computes only the
    leading vectors that land among the first ``k``, and these unfold into
    eigenfunctions that are exactly even or exactly odd.  The fold drops the
    coupling between the halves, which must be rounding: a matrix that
    differs from its reverse by more than ``1e-12`` (relative, like the
    Hermitian check) -- one not assembled from its window and raster --
    takes the one-block path instead.  Real and complex matrices both split.

    Eigenvalues are returned raw and descending; they must land in
    ``[-1e-8, 1 + 1e-8]`` or a NumericalError is raised (the discrete operator
    is PSD and norm-bounded by one, so anything worse means a broken matrix),
    as is a matrix that is not Hermitian or a LAPACK failure.  The Hermitian
    and parity checks are relative to ``dt`` times the largest diagonal
    modulus (read in ``O(n)``), which for a PSD matrix is its largest
    modulus; for any other matrix it is at most that, so the checks only get
    stricter.  Eigenfunctions have unit grid norm and a canonical phase: the first entry within a
    relative 1e-6 of the largest modulus is real and positive (for real
    eigenfunctions the phase is a sign).  Inside a near-degenerate cluster
    the basis itself still depends on rounding, and it differs between the
    split, the real and the complex chain, and between the two tridiagonal
    solvers.
    """
    n = op.grid.n
    dt = op.grid.dt
    tol = _HERMITIAN_TOL * max(1.0, dt * float(np.abs(op.matrix.diagonal()).max()))
    if not _exactly_hermitian(op.matrix):
        herm_gap = dt * float(np.abs(op.matrix - op.matrix.conj().T).max())
        if herm_gap > tol:
            raise NumericalError(f"operator matrix lost Hermitian symmetry ({herm_gap:.2e})")

    dtype = np.complex128 if np.iscomplexobj(op.matrix) else np.float64
    halves = None
    if _centrosymmetric(op.window, op.raster):
        halves = _parity_blocks(op.matrix, dt, tol, dtype)
    if halves is None:
        a = np.empty((n, n), dtype=dtype, order="F")
        # filled through the C-ordered transpose, see _transposed_back
        np.multiply(op.matrix, dt, out=a.T)
        blocks = [_Reduced(_transposed_back(a))]
        vals = blocks[0].values
    else:
        blocks = [_Reduced(b) for b in halves]
        merged = np.concatenate([b.values for b in blocks])
        order = np.argsort(-merged, kind="stable")
        vals = merged[order]
    if vals[-1] < -_EIG_RANGE_TOL or vals[0] > 1.0 + _EIG_RANGE_TOL:
        raise NumericalError(
            f"eigenvalues [{vals[-1]:.3e}, {vals[0]:.3e}] leave [0, 1] beyond tolerance"
        )

    k = vectors(vals) if callable(vectors) else (n if vectors is None else vectors)
    if not 0 <= k <= n:
        raise DomainError(f"vectors must be in [0, {n}], got {k}")
    vecs = np.empty((n, k), dtype=dtype, order="F")
    if k:
        if halves is None:
            vecs[:] = blocks[0].leading(k)
        else:
            # the stable merge keeps each block's order: the even columns
            # among the first k are its leading ones, and so are the odd ones
            even = order[:k] < len(blocks[0].values)
            k_even = int(even.sum())
            vecs[:, even] = _unfold(blocks[0].leading(k_even), n, 1.0)
            vecs[:, ~even] = _unfold(blocks[1].leading(k - k_even), n, -1.0)
        vecs *= _canonical_phase(vecs) / np.sqrt(dt)
    return Spectrum(op, vals, vecs)


def _peak(a: np.ndarray) -> float:
    """The largest modulus in ``a``; for a real array from its extremes, with
    no ``|a|`` temporary."""
    if np.iscomplexobj(a):
        return float(np.abs(a).max())
    return float(max(a.max(), -a.min()))


def _exactly_hermitian(matrix: np.ndarray) -> bool:
    """Whether ``matrix`` equals its conjugate transpose exactly, compared
    part by part so that no complex ``n x n`` temporary is formed."""
    if not np.iscomplexobj(matrix):
        return np.array_equal(matrix, matrix.T)
    return np.array_equal(matrix.real, matrix.real.T) and np.array_equal(
        matrix.imag, -matrix.imag.T
    )


def _centrosymmetric(window: Window, raster: RasterizedRegion) -> bool:
    """Whether the operator commutes with the reversal ``f(t) -> f(-t)``: an
    even window on a raster symmetric under ``(tau, sigma) -> (-tau, -sigma)``,
    decided by exact comparisons (the grid times are exactly antisymmetric)."""
    samples, pg, weights = window.samples, raster.phase_grid, raster.weights
    return (
        np.array_equal(samples, samples[::-1])
        and np.array_equal(pg.tau_values, -pg.tau_values[::-1])
        and np.array_equal(pg.sigma_values, -pg.sigma_values[::-1])
        and np.array_equal(weights, weights[::-1, ::-1])
    )


def _parity_blocks(
    matrix: np.ndarray, dt: float, tol: float, dtype: type
) -> tuple[np.ndarray, np.ndarray] | None:
    """The even and odd blocks of ``dt * matrix`` in the basis
    ``(e_a +- e_{n-1-a}) / sqrt(2)`` (plus the middle ``e_{n // 2}`` in the
    even one for odd ``n``), Fortran-ordered for LAPACK; None when the matrix
    differs from its reverse by more than ``tol`` after scaling, so the halves
    couple.

    With ``q1 = M[a, b]``, ``q2 = M[a, n-1-b]``, ``q3 = M[n-1-a, b]`` and
    ``q4 = M[n-1-a, n-1-b]`` over the top-left quarter, the blocks are
    ``(q1 + q4 +- (q2 + q3)) / 2``; the coupling block is
    ``(q1 - q4 - (q2 - q3)) / 2``, which the gap bounds.
    """
    n = len(matrix)
    h, m = n // 2, n - n // 2
    flip = matrix[::-1, ::-1]
    even = np.empty((m, m), dtype=dtype, order="F")
    odd = np.empty((h, h), dtype=dtype, order="F")
    # filled through the C-ordered transposes, see _transposed_back
    ev, ov = even.T, odd.T
    # the gap over the top m rows, one column half at a time in the even
    # block's buffer
    gap = _peak(np.subtract(matrix[:m, :m], flip[:m, :m], out=ev))
    if h:
        gap = max(gap, _peak(np.subtract(matrix[:m, m:], flip[:m, m:], out=ev[:, :h])))
    if dt * gap > tol:
        return None
    # diag = q1 + q4 in the odd block, anti = q2 + q3
    np.add(matrix[:h, :h], flip[:h, :h], out=ov)
    anti = matrix[:h, ::-1][:, :h] + matrix[::-1][:h, :h]
    np.add(ov, anti, out=ev[:h, :h])
    np.subtract(ov, anti, out=ov)
    ev[:h, :h] *= 0.5 * dt
    ov *= 0.5 * dt
    if m > h:
        # the middle sample is its own mirror image
        edge = (matrix[h, :h] + matrix[h, ::-1][:h]) * (dt * np.sqrt(0.5))
        ev[h, :h] = edge
        ev[:h, h] = edge.conj()
        ev[h, h] = dt * matrix[h, h]
    return _transposed_back(even), _transposed_back(odd)


def _transposed_back(a: np.ndarray) -> np.ndarray:
    """A Fortran-ordered Hermitian block that was filled through its C-ordered
    transpose ``a.T`` (a contiguous write, where filling ``a`` itself from a
    C-ordered source is a strided one) holds the transpose of the block, which
    is its conjugate: conjugated back in place, a no-op for real blocks."""
    if np.iscomplexobj(a):
        np.conjugate(a, out=a)
    return a


def _unfold(y: np.ndarray, n: int, sign: float) -> np.ndarray:
    """Full-length columns from even-block (``sign = 1``) or odd-block
    (``sign = -1``) coordinates: ``x[a] = y[a] / sqrt(2)`` and
    ``x[n-1-a] = sign * x[a]`` for ``a < n // 2``, and for odd ``n`` the middle
    entry ``y[n // 2]`` (even) or 0 (odd).  The mirror entries are copies, so
    each column is exactly even or exactly odd."""
    h = n // 2
    x = np.zeros((n, y.shape[1]), dtype=y.dtype)
    x[:h] = y[:h] * np.sqrt(0.5)
    x[n - h :] = sign * x[:h][::-1]
    if n > 2 * h and sign > 0:
        x[h] = y[h]
    return x


class _Reduced:
    """One Hermitian block reduced to real tridiagonal form, with every
    eigenvalue (``values``, descending); :meth:`leading` computes vectors.

    The block's lower triangle is read and overwritten by the reflectors.
    """

    def __init__(self, block: np.ndarray) -> None:
        real = not np.iscomplexobj(block)
        trd, self._mqr = ("dsytrd", "dormqr") if real else ("zhetrd", "zunmqr")
        query = getattr(lapack, trd + "_lwork")
        lwork = int(_lapack_ok(trd + "_lwork", *query(len(block), lower=1)).real)
        self._reflectors, self._diag, self._off, self._tau = _lapack_ok(
            trd, *getattr(lapack, trd)(block, lower=1, lwork=lwork, overwrite_a=1)
        )
        self.values = _lapack_ok(
            "dsterf", *lapack.dsterf(self._diag, _padded(self._off))
        )[::-1]

    def leading(self, k: int) -> np.ndarray:
        """The block's leading ``k`` eigenvectors, descending, unit 2-norm."""
        n = len(self._diag)
        vecs = np.empty((n, k), dtype=self._reflectors.dtype, order="F")
        if not k:
            return vecs
        vecs[:] = _tridiagonal_vectors(self._diag, self._off, self.values, k)
        if n > 1:
            # Q = H(1) ... H(n-1) acts on rows 1..n-1; reflector i lives below
            # the subdiagonal of column i, a QR-shaped block
            block, rows = self._reflectors[1:, : n - 1], vecs[1:]
            ormqr = getattr(lapack, self._mqr)
            _, work = _lapack_ok(
                self._mqr, *ormqr("L", "N", block, self._tau, rows, -1)
            )
            lwork = int(work[0].real)
            rows[:] = _lapack_ok(
                self._mqr, *ormqr("L", "N", block, self._tau, rows, lwork)
            )[0]
        return vecs


def _tridiagonal_vectors(
    diag: np.ndarray, off: np.ndarray, vals: np.ndarray, k: int
) -> np.ndarray:
    """Eigenvectors of the leading ``k`` of ``vals`` (descending) for the real
    tridiagonal matrix ``diag``/``off``, descending.

    A request for at least a 24th of the block (``24 k >= n``, all-n requests
    included) takes every vector from divide and conquer (``dstevd``) and
    keeps the leading ``k``; a smaller one takes only the leading index range
    from MRRR (``dstemr``).  The crossover comes from a ladder of parity
    blocks of gaussian and triangle discs (sizes 46-437) and whole blocks of
    off-centre discs, ``k`` from 1 to the block size: across it the factor
    24 wasted the least time against the faster solver of each case (5%,
    against 8% for 16 and 6% for 32).  MRRR's cost depends on how the wanted
    vectors sit in clusters, so no factor is best for every block: 32 vectors
    of a 155 block took 1.9 ms by MRRR against 0.4 ms for all of them by
    divide and conquer, 64 of a 705 block 0.75 ms against 4.1 ms.

    The MRRR index range reaches one past the wanted ones: a vector at the
    range's lower edge can converge to the eigenvalue just outside it (seen
    with a single wanted index inside a cluster of width 1e-11), and that
    vector is dropped.  Each kept vector's Rayleigh quotient, from either
    solver, must match its eigenvalue in ``vals`` to ``n * eps`` (the
    backward error bound, the operator's norm being at most one), else
    NumericalError.  The quotient tests the vector itself; the eigenvalue
    MRRR reports alongside it can be off by more (3.2e-14 on a
    well-separated eigenvalue of a 24 x 24 block whose vector was exact).
    """
    n = len(diag)
    if _DC_SHARE * k >= n:
        want = n
        _, z = _lapack_ok("dstevd", *lapack.dstevd(diag, _padded(off)))
    else:
        want = k + 1
        # dstemr wants the off-diagonal padded to length n; the 1-based
        # ascending index range n-want+1..n is the leading ``want``
        stemr = (diag, np.append(off, 0.0), 2, 0.0, 1.0, n - want + 1, n)
        lw, liw = _lapack_ok("dstemr_lwork", *lapack.dstemr_lwork(*stemr))
        found, _, z = _lapack_ok(
            "dstemr", *lapack.dstemr(*stemr, lwork=int(lw), liwork=int(liw))
        )
        if found != want:
            raise NumericalError(f"dstemr returned {found} of {want} eigenvectors")
    # ascending: the wanted columns are the last k
    z = z[:, want - k : want][:, ::-1]
    # T z, for each column's Rayleigh quotient z^T T z
    tz = diag[:, None] * z
    tz[:-1] += off[:, None] * z[1:]
    tz[1:] += off[:, None] * z[:-1]
    mismatch = float(np.abs(np.sum(z * tz, axis=0) - vals[:k]).max())
    if mismatch > n * np.finfo(np.float64).eps:
        raise NumericalError(f"tridiagonal eigenvectors off their eigenvalues by {mismatch:.2e}")
    return z


def _padded(off: np.ndarray) -> np.ndarray:
    """The off-diagonal as the ``dsterf`` and ``dstevd`` wrappers take it, of
    length ``max(1, n - 1)``: a block of size 1 gets one zero."""
    return off if len(off) else np.zeros(1)


def _lapack_ok(name: str, *outputs):
    """The outputs of a LAPACK wrapper before its trailing ``info``, which must be 0."""
    *values, info = outputs
    if info != 0:
        raise NumericalError(f"LAPACK {name} failed (info={info})")
    return values[0] if len(values) == 1 else values


def _canonical_phase(vecs: np.ndarray) -> np.ndarray:
    """Per column, the unit factor that makes its leading entry real and
    positive: a sign for real columns.

    The leading entry is the first whose modulus is within a relative 1e-6 of
    the column's largest, so rounding cannot move it between the mirrored
    peaks of a symmetric eigenfunction.
    """
    mod = np.abs(vecs)
    lead = np.argmax(mod >= (1.0 - _PHASE_TIE) * mod.max(axis=0), axis=0)
    peak = vecs[lead, np.arange(vecs.shape[1])]
    return peak.conj() / np.abs(peak)


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


def energy(f: Signal, op: ConcentrationOperator) -> float:
    """Phase-space energy of ``f`` inside the operator's rasterized region.

    The quadratic form ``<A f, f> = dt^2 f^H M f`` of the assembled matrix
    ``M``, which is the Gabor-side sum ``sum weights * |<f, rho phi>|^2``
    reordered; it lies in ``[0, ||f||^2]`` up to rounding because ``A`` is a
    PSD contraction.  A float64 ``M`` goes through ``dsymv`` on the real and
    imaginary parts of ``f`` (the cross terms cancel), a complex one through
    ``zhemv``; either reads the C-ordered matrix as its Fortran-ordered
    transpose, so nothing is copied.
    """
    _require_same_grid(f.grid, op.grid, "energy")
    scale = op.grid.dt**2
    x = f.samples
    m = op.matrix
    if not np.iscomplexobj(m):
        re, im = x.real.copy(), x.imag.copy()
        return float(
            blas.ddot(re, blas.dsymv(scale, m.T, re))
            + blas.ddot(im, blas.dsymv(scale, m.T, im))
        )
    # m.T is conj(M) for a Hermitian M, and x^H M x = (conj x)^H conj(M) conj(x)
    return float(blas.zdotu(x, blas.zhemv(scale, m.T, x.conj())).real)


def eigenfilter(f: Signal, spectrum: Spectrum, rank: int) -> Signal:
    """Orthogonal projection of ``f`` onto the span of the top ``rank``
    eigenfunctions; the spectrum must hold at least ``rank`` of them, on the
    grid of ``f``."""
    _require_same_grid(f.grid, spectrum.operator.grid, "eigenfilter")
    n = len(spectrum.eigenvalues)
    if not 1 <= rank <= n:
        raise DomainError(f"rank must be in [1, {n}], got {rank}")
    basis = spectrum.leading(rank)
    dt = spectrum.operator.grid.dt
    coefs = blas.zgemv(dt, basis, f.samples, trans=2)
    return Signal(f.grid, blas.zgemv(1.0, basis, coefs))
