"""Eigenfunction regularity: the eigen-equation's own decay majorant, support
checks, and the two classical benchmarks (Fourier covariance, Gaussian/disc
Hermite case).

A unit-norm eigenfunction ``f = A f / lambda`` of the operator
``A = sum_c w_c <., g_c> g_c`` (``g_c`` the window shifted to raster cell
``c``) is a combination of shifted windows with coefficients
``|<f, g_c>| <= 1``, hence ``|f(t)| <= sum_tau p(tau) |g(t + tau)| / lambda``
and ``|f_hat(xi)| <= sum_sigma q(sigma) |g_hat(xi - sigma)| / lambda``, with
``p`` and ``q`` the raster's tau- and sigma-profiles.  The second says that
``f_hat`` decays at least as fast as ``g_hat``: the eigenfunctions are at
least as smooth as the window.  This holds for every window and region, with
no fitted exponent; :func:`majorant_check` evaluates both sides on the grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DomainError, NumericalError, UnsupportedCaseError
from .grids import Signal, _forward_sum, fourier_transform, inverse_fourier_transform
from .hermite import hermite_samples
from .operators import (
    ConcentrationOperator,
    Spectrum,
    _lapack_ok,
    assemble,
    eigendecompose,
)
from .regions import Disc, Region, region_label
from .scaling import _fit_line
from .windows import Window

__all__ = [
    "majorant_check",
    "kernel_vanishing_check",
    "fourier_side_check",
    "hermite_benchmark",
]

#: kernel amplitudes below this are treated as numerically zero
_MEASURE_FLOOR = 1e-14
#: leading eigenvalues the Fourier-side check compares
_FOURIER_LEADING = 8
#: leading eigenvalue clusters the Hermite benchmark compares
_HERMITE_CLUSTERS = 6
#: ``tfc decay`` checks the majorant of at most this many leading
#: eigenfunctions, each with an eigenvalue above ``_MAJORANT_LAMBDA``
_MAJORANT_ROWS = 16
_MAJORANT_LAMBDA = 1e-4
#: samples below this fraction of their side's peak are left out of the
#: majorant ratios: there the eigenvector's own rounding dominates
_MAJORANT_FLOOR = 1e-12
#: neighbouring eigenvalues closer than this belong to one cluster
_CLUSTER_GAP = 1e-6


def majorant_check(spectrum: Spectrum, count: int | None = None) -> np.ndarray:
    """The largest ratio ``lambda |psi| / B`` of each of the leading
    ``count`` eigenfunctions to its majorant ``B`` (see the module
    docstring): a ``(count, 2)`` array, time side then frequency side;
    NumericalError when one exceeds 1.  ``count`` defaults to ``tfc
    decay``'s rows, the leading 16 at most with eigenvalues above 1e-4.

    Both majorants are built once per operator, ``s_i`` the shift of raster
    row ``i``.  Time: ``sum_i p_i |g[m + s_i]|``, zero off the grid, which
    the clipped shifted windows satisfy exactly.  Frequency: ``q``
    cyclically correlated with ``|g_hat|`` over the sigma bins (its modulus
    has period ``1 / dt``), plus ``sum_i p_i dt`` times the ``|g|`` mass row
    ``i`` pushes off the grid, which bounds what clipping changes in a
    shifted window's transform.  Rounding adds ``n eps / sqrt(dt)`` per time
    sample for the eigensolver's residual (at most ``n eps`` in norm), and
    ``n eps (area dt sum |g| + 2 sqrt(n dt))`` per frequency sample for that
    residual and the forward sums (``eps`` the float64 unit roundoff).  The
    eigenfunctions are transformed in one batched forward sum.  Samples
    under 1e-12 of their side's peak are left out: there the eigenvector's
    own rounding dominates.
    """
    if count is None:
        count = _majorant_rows(spectrum.eigenvalues)
    lam = spectrum.eigenvalues[:count, None]
    vecs = spectrum.leading(count).T
    op = spectrum.operator
    grid, pg, raster = op.grid, op.phase_grid, op.raster
    n, dt, eps = grid.n, grid.dt, np.finfo(np.float64).eps
    g = np.abs(op.window.samples)
    p, q = raster.weights.sum(axis=1), raster.weights.sum(axis=0)
    shifts = pg.shift_indices

    # |g| at the sample indices s_0 .. s_last + n - 1, zero off the grid
    u = np.arange(shifts[0], shifts[-1] + n)
    reach = np.where((u >= 0) & (u < n), g[np.clip(u, 0, n - 1)], 0.0)
    time_bound = np.correlate(reach, p, "valid") + n * eps / math.sqrt(dt)

    # |g_hat| at xi_k - sigma_j = xi_0 - sigma_last + (k + cols - 1 - j) dsigma
    start = grid.dual.t_start - pg.sigma_values[-1]
    hat = np.abs(_forward_sum(op.window.samples, grid, start, n))
    left, right = (np.concatenate([[0.0], np.cumsum(a)]) for a in (g, g[::-1]))
    pushed = np.where(shifts > 0, left[np.clip(shifts, 0, n)], right[np.clip(-shifts, 0, n)])
    slack = dt * float(np.sum(p * pushed))
    slack += n * eps * (raster.area * dt * float(g.sum()) + 2.0 * math.sqrt(n * dt))
    freq_bound = np.convolve(np.concatenate([hat, hat[: len(q) - 1]]), q, "valid") + slack

    scaled = lam * np.abs(vecs), lam * np.abs(_forward_sum(vecs, grid, grid.dual.t_start, n))
    ratios = np.column_stack([_largest_ratio(*s) for s in zip(scaled, (time_bound, freq_bound))])
    over = np.argwhere(ratios > 1.0)
    if len(over):
        k, side = over[0]
        raise NumericalError(
            f"eigenfunction {k} exceeds its {('time', 'frequency')[side]} majorant "
            f"by a factor {ratios[k, side]:.3e}"
        )
    return ratios


def _largest_ratio(scaled: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per row of ``scaled``, its largest ratio to ``bound`` over the samples
    at or above 1e-12 of the row's peak; infinite where such a sample meets a
    zero bound."""
    kept = scaled >= _MAJORANT_FLOOR * scaled.max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(kept, scaled / bound, 0.0)
    return ratio.max(axis=1)


def kernel_vanishing_check(window: Window, op: ConcentrationOperator) -> bool | None:
    """Kernel entries must vanish where shifted copies cannot overlap.

    For a window supported in ``[-a, a]`` every kernel value with
    ``|x - y| >= 2a`` is a sum of products of disjointly supported factors,
    so it is exactly zero; verified to 1e-14.  Returns None (skipped) when the
    window has no compact support.

    Stock windows use their declared support edge (where the samples already
    vanish), so the threshold is exactly ``2a``.  For custom windows the edge
    is detected from the outermost nonzero sample and is only known to one
    grid cell, so the threshold is widened by one step -- for a box on
    [-0.5, 0.5] sampled off-node that reproduces the nominal threshold 1.
    """
    a = window.support_radius
    if a is None:
        return None
    threshold = 2.0 * a
    if window.family == "custom":
        threshold += op.grid.dt
    t = op.grid.times
    sep = np.abs(t[:, None] - t[None, :]) >= threshold * (1.0 - 1e-12)
    if not np.any(sep):
        return True
    return bool(np.max(np.abs(op.matrix[sep])) < _MEASURE_FLOOR)


def _clusters(eigenvalues: np.ndarray, count: int, floor: float) -> list[range]:
    """Group the leading eigenvalues into near-degenerate runs (gap < 1e-6)."""
    groups: list[range] = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        done = i == len(eigenvalues) or not splits_cluster(eigenvalues, i)
        if done:
            if eigenvalues[start] > floor:
                groups.append(range(start, i))
            start = i
        if len(groups) >= count:
            break
    return groups[:count]


def splits_cluster(eigenvalues: np.ndarray, k: int) -> bool:
    """Whether a cut after the leading ``k`` eigenvalues falls inside a
    near-degenerate run (gap below 1e-6), where the span of the leading ``k``
    eigenfunctions depends on rounding."""
    return 0 < k < len(eigenvalues) and eigenvalues[k - 1] - eigenvalues[k] < _CLUSTER_GAP


def _fourier_clusters(eigenvalues: np.ndarray) -> list[range]:
    """The clusters whose spans :func:`fourier_side_check` compares: those
    above 1e-3 that end within the leading 8."""
    k = min(_FOURIER_LEADING, len(eigenvalues))
    return [cl for cl in _clusters(eigenvalues, k, floor=1e-3) if cl.stop <= k]


def _hermite_clusters(eigenvalues: np.ndarray) -> list[range]:
    """The clusters :func:`hermite_benchmark` compares with Hermite spans."""
    return _clusters(eigenvalues, _HERMITE_CLUSTERS, floor=1e-3)


def _end(clusters: list[range]) -> int:
    return max((cl.stop for cl in clusters), default=0)


def _majorant_rows(eigenvalues: np.ndarray) -> int:
    """How many leading eigenfunctions get a majorant row in ``tfc decay``."""
    return min(_MAJORANT_ROWS, int(np.count_nonzero(eigenvalues > _MAJORANT_LAMBDA)))


def decay_columns(window: Window, region: Region):
    """The leading eigenfunction count ``tfc decay`` reads, as a function of
    the descending eigenvalues (the ``vectors`` of :func:`eigendecompose`):
    the rows of :func:`majorant_check`, the Fourier-side clusters and, where
    the Hermite benchmark applies to ``window`` and ``region``, its clusters."""
    hermite = _hermite_unsupported(window, region) is None

    def columns(eigenvalues: np.ndarray) -> int:
        need = max(_end(_fourier_clusters(eigenvalues)), _majorant_rows(eigenvalues))
        return max(need, _end(_hermite_clusters(eigenvalues))) if hermite else need

    return columns


def _principal_cosine(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Smallest principal-angle cosine between two orthonormal column spans."""
    gram = blas.zgemm(dx, a, b, trans_a=2)
    return float(_lapack_ok("zgesdd", *lapack.zgesdd(gram, compute_uv=0))[1].min())


def _twin_window(window: Window) -> Window:
    """The unit-norm Fourier transform of ``window`` on the dual grid, with
    the forward sum's rounding taken out.

    When the window samples are real and exactly equal their reverse, the
    transform is exactly real and even on the exactly antisymmetric grids:
    only its real part is kept, averaged with its reverse, so the imaginary
    and odd parts (rounding, each up to 7e-14 of the peak for the gaussian
    at ``n = 309``) are dropped.  Then every sample at or below the bound
    ``n * eps * dt * sum |g|`` (``eps`` the float64 unit roundoff; 6.8e-14 of
    the peak for the gaussian at ``n = 307``) is set to an exact zero.  On
    the even real path the rounding stays far below that bound (at most 0.02
    of it against a long-double sum, for gaussian and triangle windows on
    auto grids of ``n = 59..1149``), so only samples below measurement go;
    on the complex path the phase ramps' rounding of the imaginary part
    reaches 1.4 times the bound, so some rounding may stay.  The gaussian
    twin's support shrinks from the whole grid to about a third of it.  A
    twin made real and even passes the exact rules of
    :func:`tfconc.operators.assemble` for a float64 matrix and of
    :func:`tfconc.operators.eigendecompose` for the parity split whenever the
    quarter-turned raster does.
    """
    g = window.samples
    hat = fourier_transform(window.signal).samples
    if not g.imag.any() and np.array_equal(g, g[::-1]):
        hat = hat.real
        hat = 0.5 * (hat + hat[::-1])
    grid = window.grid
    bound = grid.n * np.finfo(np.float64).eps * grid.dt * float(np.abs(g).sum())
    hat = np.where(np.abs(hat) > bound, hat, 0.0)
    trimmed = Signal(grid.dual, hat)
    return Window(Signal(grid.dual, hat / trimmed.norm), "custom", None)


def fourier_side_check(spectrum: Spectrum, region: Region) -> dict:
    """Cross-check an operator's spectrum against its Fourier-side twin.

    ``spectrum`` is the decomposition of the operator for ``region``; its
    window, transformed onto the dual grid and concentrated on the
    quarter-turned region, must reproduce the leading 8 eigenvalues.
    Eigenspaces are compared cluster by cluster (principal angles between the
    transformed eigenfunctions and the dual-side ones).  Only clusters above
    1e-3 that end within the leading 8 enter the space comparison -- below
    that the spans are numerically unstable while the eigenvalue comparison
    is still meaningful.  ``spectrum`` must hold the eigenfunctions of those
    clusters, else DomainError; the twin computes only those.

    The transformed window is cleaned of its rounding first (see
    :func:`_twin_window`): samples below the forward sum's rounding bound
    become exact zeros, and an even real window gets an exactly even real
    transform.  A stock window on a centred disc or rect therefore gets a
    float64 twin on the parity split, like the operator it checks, with a
    support of about a third of the grid for the gaussian.  Complex windows
    and regions whose quarter turn is not mirror-symmetric about
    ``sigma = 0`` keep a complex twin.
    """
    clusters = _fourier_clusters(spectrum.eigenvalues)
    need = _end(clusters)
    spectrum.leading(need)
    window = spectrum.operator.window
    window_hat = _twin_window(window)
    twin = eigendecompose(assemble(window_hat, region.fourier_rotate()), vectors=need)

    # the twin lives on the dual grid, which has the same n
    k = min(_FOURIER_LEADING, len(spectrum.eigenvalues))
    lam1 = spectrum.eigenvalues[:k]
    lam2 = twin.eigenvalues[:k]
    compare = np.maximum(lam1, lam2) > 1e-6
    gap = float(np.max(np.abs(lam1 - lam2)[compare])) if np.any(compare) else 0.0

    defect = 0.0
    dual_dt = window.grid.dual.dt
    for cluster in clusters:
        # the quarter turn used here is the *preimage* map, so eigenfunctions
        # transport along the inverse transform (forward FT lands on the
        # mirrored region instead, which only matches for symmetric regions)
        transported = np.column_stack(
            [
                inverse_fourier_transform(spectrum.eigenfunction(j)).samples
                for j in cluster
            ]
        )
        native = twin.eigenfunctions[:, cluster.start : cluster.stop]
        defect = max(defect, 1.0 - _principal_cosine(transported, native, dual_dt))
    return {"max_eigenvalue_gap": gap, "max_overlap_defect": defect}


def _hermite_unsupported(window: Window, region: Region) -> str | None:
    """Why the Hermite benchmark does not apply to ``window`` on ``region``,
    or None when it does."""
    if not (
        window.family == "gaussian"
        and math.isclose(window.parameter, math.pi, rel_tol=1e-12)
    ):
        return (
            f"hermite benchmark needs the gaussian:pi window (isotropic case), "
            f"got {window.label}"
        )
    if not (isinstance(region, Disc) and region.center == (0.0, 0.0)):
        return (
            f"hermite benchmark needs a disc centered at the origin, got "
            f"{region_label(region)}"
        )
    return None


def hermite_benchmark(spectrum: Spectrum, region: Region) -> dict:
    """Gaussian window, centered disc: eigenfunctions against the Hermite ladder.

    Reads the window and its grid from ``spectrum.operator`` and checks the
    spectrum the caller already holds; nothing is assembled or solved here.
    Only the ``c = pi`` gaussian on a centered :class:`Disc` is supported,
    else UnsupportedCaseError -- that is the window whose ambiguity function
    is isotropic, so a centered disc commutes with the phase-space rotation
    symmetry and the classical result applies verbatim.  Other ``c`` would
    need elliptical regions.

    Returns principal-angle overlaps of the leading 6 eigenvalue clusters
    against the matching span of Hermite functions, plus a log-linear fit of
    the post-plunge eigenvalue tail and flags confirming super-polynomial
    decay.
    """
    window = spectrum.operator.window
    unsupported = _hermite_unsupported(window, region)
    if unsupported is not None:
        raise UnsupportedCaseError(unsupported)
    grid = window.grid

    lam = spectrum.clamped
    clusters = _hermite_clusters(spectrum.eigenvalues)
    n_herm = _end(clusters)
    vectors = spectrum.leading(n_herm)
    basis = hermite_samples(grid, max(n_herm, 1))
    overlaps = []
    for cl in clusters:
        overlaps.append(
            _principal_cosine(
                vectors[:, cl.start : cl.stop], basis[:, cl.start : cl.stop], grid.dt
            )
        )

    tail = np.nonzero((lam < 0.05) & (lam > 1e-10))[0]
    if len(tail) < 4:
        raise DomainError(
            "eigenvalue tail too short to fit; enlarge the disc or refine dt"
        )
    slope, _, r2 = _fit_line(tail.astype(float), np.log(lam[tail]))

    n_s, n_e = tail[0], tail[-1]
    beaten = {
        m: bool(lam[n_e] / lam[n_s] < (n_s / n_e) ** m) for m in (2, 3, 4)
    }
    return {
        "overlaps": np.array(overlaps),
        "cluster_sizes": [len(cl) for cl in clusters],
        "decay_slope": slope,
        "r2": r2,
        "fit_range": (int(n_s), int(n_e)),
        "polynomial_beaten": beaten,
        "eigenvalues": spectrum.eigenvalues,
    }
