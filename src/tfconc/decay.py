"""Eigenfunction regularity: decay envelopes, support checks, and the two
classical benchmarks (Fourier covariance, Gaussian/disc Hermite case).

An envelope is a positive nonincreasing majorant with a closed-form
logarithm.  Eigenfunction decay is checked against ``gamma^(1-eps)`` using
log-binned maxima, which ride over the oscillatory zeros that make pointwise
ratios meaningless.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DomainError, UnsupportedCaseError
from .grids import Signal, fourier_transform, inverse_fourier_transform
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
    "DecayEnvelope",
    "PowerLaw",
    "StretchedExp",
    "decay_check",
    "kernel_vanishing_check",
    "fourier_side_check",
    "hermite_benchmark",
]

#: amplitudes below this are treated as numerically zero when checking decay
_MEASURE_FLOOR = 1e-14
#: leading eigenvalues the Fourier-side check compares
_FOURIER_LEADING = 8
#: leading eigenvalue clusters the Hermite benchmark compares
_HERMITE_CLUSTERS = 6
#: ``tfc decay`` checks the envelope of at most this many leading
#: eigenfunctions, each with an eigenvalue above ``_ENVELOPE_FLOOR``
_ENVELOPE_ROWS = 16
_ENVELOPE_FLOOR = 1e-4
#: neighbouring eigenvalues closer than this belong to one cluster
_CLUSTER_GAP = 1e-6
#: slack exponent of ``tfc decay``'s envelope checks
ENVELOPE_EPSILON = 0.1


class DecayEnvelope(ABC):
    """Positive nonincreasing majorant on ``[0, infinity)``."""

    @abstractmethod
    def __call__(self, s):
        ...

    @abstractmethod
    def log_eval(self, s):
        """``log(gamma(s))`` in closed form, free of underflow."""

    def _validate(self) -> None:
        s = np.concatenate([[0.0], np.logspace(-2.0, 8.0, 201)])
        v = np.asarray(self(s), dtype=float)
        if v[0] <= 0 or np.any(v < 0):
            raise DomainError("envelope must be positive (underflow to 0 aside)")
        if np.any(np.diff(v) > 1e-12 * np.maximum(v[:-1], 1e-300)):
            raise DomainError("envelope must be nonincreasing")


@dataclass(frozen=True)
class PowerLaw(DecayEnvelope):
    """``(1 + s^2)^(-q/2)``."""

    q: float

    def __post_init__(self) -> None:
        self._validate()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 + s * s) ** (-self.q / 2.0)

    def log_eval(self, s):
        s = np.asarray(s, dtype=float)
        return -(self.q / 2.0) * np.log1p(s * s)


@dataclass(frozen=True)
class StretchedExp(DecayEnvelope):
    """``exp(-kappa s^q)``."""

    kappa: float
    q: float

    def __post_init__(self) -> None:
        if self.kappa <= 0 or self.q <= 0:
            raise DomainError("kappa and q must be positive")
        self._validate()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.exp(-self.kappa * s**self.q)

    def log_eval(self, s):
        s = np.asarray(s, dtype=float)
        return -self.kappa * s**self.q


def decay_check(
    psi: Signal,
    gamma: DecayEnvelope,
    epsilon: float = ENVELOPE_EPSILON,
    t_min: float = 1.0,
) -> dict:
    """Check ``|psi(t)| <= C gamma(|t|)^(1-epsilon)`` beyond ``t_min``.

    Returns the fitted constant (max ratio) and an ok verdict: the log-binned
    ratio maxima must not trend upward over the last decade of ``|t|``.
    Samples under 1e-14 are below measurement and ignored; if nothing beyond
    ``t_min`` is measurable the check passes vacuously, flagged as such.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if t_min <= 0:
        raise DomainError(f"t_min must be positive, got {t_min}")
    s = np.abs(psi.grid.times)
    vals = np.abs(psi.samples)
    meas = (s >= t_min) & (vals >= _MEASURE_FLOOR)
    if not np.any(meas):
        return {"ok": True, "C_fit": 0.0, "flag": "vacuous"}
    s = s[meas]
    log_ratio = np.log(vals[meas]) - (1.0 - epsilon) * gamma.log_eval(s)
    c_fit = float(np.exp(np.max(log_ratio)))

    s_lo, s_hi = float(s.min()), float(s.max())
    if s_hi / s_lo < 1.2:
        # too narrow a shell to measure a trend; the constant is all there is
        return {"ok": True, "C_fit": c_fit, "flag": "narrow"}
    n_bins = max(3, int(math.ceil(8.0 * math.log10(s_hi / s_lo))))
    edges = np.logspace(math.log10(s_lo), math.log10(s_hi) + 1e-12, n_bins + 1)
    which = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, n_bins - 1)
    centers, maxima = [], []
    for b in range(n_bins):
        hit = which == b
        if np.any(hit):
            centers.append(math.sqrt(edges[b] * edges[b + 1]))
            maxima.append(float(np.max(log_ratio[hit])))
    centers = np.array(centers)
    maxima = np.array(maxima)
    tail = centers >= s_hi / 10.0
    if np.sum(tail) < 3:
        tail = np.ones_like(centers, dtype=bool)
    slope = _fit_line(np.log(centers[tail]), maxima[tail])[0]
    return {"ok": bool(slope <= 0.1), "C_fit": c_fit, "flag": None}


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


def _envelope_rows(eigenvalues: np.ndarray) -> int:
    """How many leading eigenfunctions get an envelope check in ``tfc decay``."""
    return min(_ENVELOPE_ROWS, int(np.count_nonzero(eigenvalues > _ENVELOPE_FLOOR)))


def _envelope_rule(window: Window, region: Region):
    """``(side, envelope, t_min)`` of ``tfc decay``'s envelope checks for the
    window's family: the side of each eigenfunction where its decay is
    nontrivial, the envelope it must stay under and where the check starts;
    None for a custom window, which gets no envelope check."""
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    if window.family == "gaussian":
        t_min = max(abs(t_lo), abs(t_hi)) + window.essential_radius + 1.0
        return (lambda psi: psi), StretchedExp(window.parameter, 2.0), t_min
    if window.family == "triangle":
        # time side is compactly supported; the frequency side carries the
        # actual decay content (Fejer-type squared-sinc tail)
        return fourier_transform, PowerLaw(1.9), max(abs(s_lo), abs(s_hi)) + 2.0
    return None


def envelope_checks(spectrum: Spectrum, region: Region) -> list[tuple]:
    """``tfc decay``'s rows ``(k, lambda_k, C_fit, ok)``: a
    :func:`decay_check` of each leading eigenfunction on the side, under the
    envelope and beyond the ``t_min`` its window family calls for."""
    rule = _envelope_rule(spectrum.operator.window, region)
    if rule is None:
        return []
    side, gamma, t_min = rule
    rows = []
    for k in range(_envelope_rows(spectrum.eigenvalues)):
        res = decay_check(side(spectrum.eigenfunction(k)), gamma, t_min=t_min)
        rows.append((k, float(spectrum.clamped[k]), res["C_fit"], res["ok"]))
    return rows


def decay_columns(window: Window, region: Region):
    """The leading eigenfunction count ``tfc decay`` reads, as a function of
    the descending eigenvalues (the ``vectors`` of :func:`eigendecompose`):
    the rows of :func:`envelope_checks`, the Fourier-side clusters and, where
    the Hermite benchmark applies to ``window`` and ``region``, its clusters."""
    envelope = _envelope_rule(window, region) is not None
    hermite = _hermite_unsupported(window, region) is None

    def columns(eigenvalues: np.ndarray) -> int:
        need = _end(_fourier_clusters(eigenvalues))
        if envelope:
            need = max(need, _envelope_rows(eigenvalues))
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
