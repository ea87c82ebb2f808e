"""Scaling experiments: eigenvalue counting, plunge growth, and the
density-autocorrelation integrals that drive the large-``r`` analysis.

A scaling run dilates one region through a list of scales, assembles and
diagonalizes the operator at each, and records the counting statistics.  The
time step is frozen across scales (auto-chosen from the largest one) so the
discretization error stays comparable and fits measure geometry, not the grid.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.special

from .errors import (
    ConfigError,
    CoverageError,
    DomainError,
    NormalizationError,
    NumericalError,
)
from .grids import SampleGrid
from .operators import _checked_eigh, assemble, count
from .regions import Disc, Rect, Region
from .windows import _stock_radii, make_window

__all__ = [
    "ScalingRow",
    "ScalingReport",
    "auto_grid",
    "scaling_experiment",
    "plunge_fit",
    "hs_error_rate",
    "GaussianDensity",
    "CustomDensity",
    "SELF_DUAL_SIGMA",
    "standard_density",
    "autocorr_integral",
    "decay_condition_margins",
]

#: dense eigensolves beyond this order are a design non-goal
_N_CAP = 2048


def _max_workers(n_jobs: int) -> int:
    cap = os.environ.get("TFC_THREADS")
    try:
        limit = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ConfigError(f"TFC_THREADS must be an integer >= 1, got {cap!r}")
    return max(1, min(limit, n_jobs))


def _halfwidths(region: Region) -> tuple[float, float]:
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    return max(abs(t_lo), abs(t_hi)), max(abs(s_lo), abs(s_hi))


def auto_grid(
    family: str,
    region: Region,
    *,
    c: float = math.pi,
    dt: float | None = None,
) -> SampleGrid:
    """Sample grid sized for a stock window family on ``region``.

    ``family`` and ``c`` name the window as in
    :func:`tfconc.windows.make_window`; the grid is sized from that family's
    closed-form time and frequency radii, so no window has to exist first.
    The time step resolves the largest modulation in play (region frequency
    extent plus window bandwidth, half-cell slack); the half-width covers the
    region's time extent plus the window tail plus one time unit.  ``n`` is odd
    so 0 is a sample.  Orders beyond 2048 raise CoverageError -- dense
    eigensolves past that are out of scope, coarsen or shrink instead.
    Custom windows raise UnsupportedCaseError: they keep their own grid.
    """
    essential, bandwidth = _stock_radii(family, c)
    t_half, s_half = _halfwidths(region)
    if dt is None:
        dt = 0.5 / (s_half + bandwidth + 0.5)
    half_width = t_half + essential + 1.0
    n = int(math.ceil(2.0 * half_width / dt)) + 1
    if n % 2 == 0:
        n += 1
    if n > _N_CAP:
        raise CoverageError(
            f"auto grid wants n={n} > {_N_CAP} (dt={dt:.4g}, half-width "
            f"{half_width:.4g}); coarsen dt or shrink the region"
        )
    if 2.0 * s_half >= 1.0 / dt:
        raise CoverageError(
            f"region frequency extent {s_half:.4g} exceeds the band of dt={dt:.4g}"
        )
    return SampleGrid(n, dt)


@dataclass(frozen=True, eq=False)
class ScalingRow:
    """One scale's worth of spectral statistics."""

    r: float
    area: float  # analytic area of the dilated region
    raster_area: float
    trace: float
    sum_sq: float
    n_lambda: int
    n_plunge: int
    eigenvalues: np.ndarray
    grid_n: int


@dataclass(frozen=True, eq=False)
class ScalingReport:
    plunge_band: tuple[float, float]
    rows: tuple[ScalingRow, ...]  # sorted by r


def scaling_experiment(
    family: str,
    region: Region,
    scales,
    *,
    c: float = math.pi,
    plunge_band: tuple[float, float] = (0.1, 0.9),
    dt: float | None = None,
) -> ScalingReport:
    """Assemble and diagonalize across dilations, collecting counting data.

    ``family`` and ``c`` name a stock window as in
    :func:`tfconc.windows.make_window`.  Each scale builds that window once,
    on its own grid from :func:`auto_grid` (fixed dt, auto-chosen from the
    largest scale unless given), and solves for eigenvalues only.  Scales run
    in a thread pool (the heavy lifting is in BLAS which drops the GIL) of one
    worker per scale, at most ``TFC_THREADS`` (default: the core count).
    ``n_lambda`` counts eigenvalues ``>= 1/2`` and ``n_plunge`` those in the
    closed ``plunge_band``, both through :func:`tfconc.operators.count`; the
    band is checked here once and travels in the report.
    Coverage failures surface per scale, tagged with the offending ``r``.
    Custom windows have no rule to resample them and raise
    UnsupportedCaseError.
    """
    scales = sorted(float(r) for r in scales)
    if not scales:
        raise DomainError("need at least one scale")
    if any(r <= 0 for r in scales):
        raise DomainError(f"scales must be positive, got {scales}")
    lo, hi = plunge_band
    if not 0.0 < lo < hi < 1.0:
        raise DomainError(f"plunge band must satisfy 0 < lo < hi < 1, got {plunge_band}")

    if dt is None:
        dt = auto_grid(family, region.scale(scales[-1]), c=c).dt

    def run(r: float) -> ScalingRow:
        region_r = region.scale(r)
        try:
            grid_r = auto_grid(family, region_r, c=c, dt=dt)
            op = assemble(make_window(family, grid_r, c=c), region_r)
        except CoverageError as exc:
            raise CoverageError(f"scale r={r:g}: {exc}") from exc
        eigenvalues, _ = _checked_eigh(op, vectors=False)
        return ScalingRow(
            r=r,
            area=region_r.area(),
            raster_area=op.raster.area,
            trace=op.trace,
            sum_sq=float(np.sum(eigenvalues**2)),
            n_lambda=count(eigenvalues, 0.5),
            n_plunge=count(eigenvalues, lo, hi),
            eigenvalues=eigenvalues,
            grid_n=grid_r.n,
        )

    with ThreadPoolExecutor(_max_workers(len(scales))) as pool:
        rows = tuple(pool.map(run, scales))
    return ScalingReport((lo, hi), rows)


def _fit_loglog(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    """OLS fit of log y against log x; returns (slope, intercept, r2)."""
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def plunge_fit(report: ScalingReport) -> dict:
    """Log-log fit of the plunge count against scale.

    Fits each row's own ``n_plunge``, the count in the report's
    ``plunge_band``; rows with fewer than 2 such eigenvalues are dropped
    (single-eigenvalue counts are discretization noise).  Needs >= 3 scales
    and >= 2 usable rows, else DomainError -- a one-point fit would be fiction.
    """
    if len(report.rows) < 3:
        raise DomainError(f"plunge fit needs >= 3 scales, got {len(report.rows)}")
    rs, counts = [], []
    for row in report.rows:
        if row.n_plunge >= 2:
            rs.append(row.r)
            counts.append(row.n_plunge)
    if len(rs) < 2:
        raise DomainError("plunge fit underdetermined: fewer than 2 usable rows")
    slope, intercept, r2 = _fit_loglog(np.array(rs), np.array(counts, dtype=float))
    return {"slope": slope, "intercept": intercept, "r2": r2, "rows_used": len(rs)}


def hs_error_rate(report: ScalingReport) -> dict:
    """Growth rate of the plunge deficit ``trace - sum lambda^2``.

    The deficit is the Hilbert-Schmidt shortfall concentrated along the
    region's boundary; its absolute size should grow like ``r`` (area grows
    r^2, relative deficit shrinks like 1/r).  Returns the fitted log-log slope
    over the report's rows; fewer than 3 rows raise DomainError.
    """
    if len(report.rows) < 3:
        raise DomainError("hs_error_rate needs >= 3 scales")
    rs, deficits = [], []
    for row in report.rows:
        d = row.trace - row.sum_sq
        if d > 1e-12 * max(1.0, row.trace):
            rs.append(row.r)
            deficits.append(d)
    if len(rs) < 2:
        return {"rate": float("nan"), "r2": float("nan"), "rows_used": 0,
                "flag": "degenerate"}
    slope, _, r2 = _fit_loglog(np.array(rs), np.array(deficits))
    return {"rate": slope, "r2": r2, "rows_used": len(rs), "flag": None}


# ---------------------------------------------------------------------------
# densities and the Lemma-style integrals


@dataclass(frozen=True)
class GaussianDensity:
    """Centered isotropic Gaussian probability density on the plane.

    Masses over rectangles
    (``mass_on_rect``) and discs (``mass_on_disc``) are exact, which gives
    ``autocorr_integral`` its exact inner integral on those regions.
    """

    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise DomainError(f"sigma must be positive, got {self.sigma}")

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        s2 = self.sigma**2
        return 1.0 / (2.0 * math.pi * s2) * np.exp(-(x * x + y * y) / (2.0 * s2))

    @property
    def extent(self) -> float:
        """Radius holding all but ~1e-14 of the mass."""
        return 8.5 * self.sigma

    def mass_on_rect(self, x_lo, x_hi, y_lo, y_hi):
        """Exact integral over an axis-aligned rectangle (product of erfs)."""
        root2 = math.sqrt(2.0) * self.sigma

        def cdf(z):
            return 0.5 * (1.0 + scipy.special.erf(np.asarray(z) / root2))

        return (cdf(x_hi) - cdf(x_lo)) * (cdf(y_hi) - cdf(y_lo))

    def mass_on_disc(self, x0, y0, radius):
        """Exact integral over the disc of ``radius`` centred at ``(x0, y0)``.

        For ``u`` drawn from this density, ``|u - (x0, y0)|^2 / sigma^2`` is
        noncentral chi-squared with 2 degrees of freedom and noncentrality
        ``(x0^2 + y0^2) / sigma^2``; the mass is its CDF at
        ``radius^2 / sigma^2``.  Arguments broadcast together.
        """
        s2 = self.sigma**2
        x0 = np.asarray(x0, dtype=float)
        y0 = np.asarray(y0, dtype=float)
        radius = np.asarray(radius, dtype=float)
        return scipy.special.chndtr(
            radius * radius / s2, 2.0, (x0 * x0 + y0 * y0) / s2
        )


#: Width at which GaussianDensity equals exp(-pi (x^2+y^2)) -- the spectrogram
#: of the unit Gaussian window, and the reference density for the scaling
#: experiments.  (2 pi sigma^2 = 1.)
SELF_DUAL_SIGMA = 1.0 / math.sqrt(2.0 * math.pi)


def standard_density() -> GaussianDensity:
    """The self-dual Gaussian density exp(-pi |u|^2), mass exactly 1."""
    return GaussianDensity(sigma=SELF_DUAL_SIGMA)


@dataclass(frozen=True, eq=False)
class CustomDensity:
    """Wrap a plain callable density with an extent hint.

    ``extent`` should cover the bulk of the mass; it splits the normalization
    quadrature and bounds the inner-integral sampling in autocorr_integral,
    so heavy tails beyond it are the caller's responsibility.
    """

    fn: object
    extent: float

    def __call__(self, x, y):
        return np.asarray(self.fn(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


_N_THETA = 64
_THETAS = 2.0 * math.pi * np.arange(_N_THETA) / _N_THETA
_COS = np.cos(_THETAS)
_SIN = np.sin(_THETAS)


def _ring_mean(f, rho: float) -> float:
    return float(np.mean(f(rho * _COS, rho * _SIN)))


def _disc_mass(f, radius: float) -> float:
    """Integral of ``f`` over the centered disc, by polar quadrature.

    The angular trapezoid rule is spectrally accurate for smooth densities;
    the radial integral goes to adaptive quadrature.
    """
    val, _ = scipy.integrate.quad(
        lambda rho: rho * _ring_mean(f, rho), 0.0, radius, limit=200
    )
    return 2.0 * math.pi * val


def _total_mass(f) -> float:
    extent = float(getattr(f, "extent", 10.0))
    inner, _ = scipy.integrate.quad(
        lambda rho: rho * _ring_mean(f, rho), 0.0, extent, limit=200
    )
    outer, _ = scipy.integrate.quad(
        lambda rho: rho * _ring_mean(f, rho), extent, np.inf, limit=200
    )
    return 2.0 * math.pi * (inner + outer)


def _check_density(f) -> None:
    mass = _total_mass(f)
    if not abs(mass - 1.0) <= 1e-6:
        raise NormalizationError(f"density mass {mass!r} is not 1 within 1e-6")


def _sampled_inner_sum(f, q: Region, r: float, ex, ey, u_per_axis: int) -> float:
    """Sum over outer points ``eta`` of the sampled mass of ``f`` on ``r(Q - eta)``.

    ``f`` is sampled on a ``u_per_axis``-square midpoint lattice over its
    extent; each outer point tests every kept sample for membership in ``Q``,
    128 outer points at a time.
    """
    extent = float(getattr(f, "extent", 10.0))
    h_u = 2.0 * extent / u_per_axis
    u = -extent + (np.arange(u_per_axis) + 0.5) * h_u
    uu, vv = np.meshgrid(u, u, indexing="ij")
    f_vals = (f(uu, vv) * h_u * h_u).ravel()
    if np.min(f_vals) < -1e-12:
        raise DomainError("density takes negative values")
    keep = f_vals > 1e-18 * max(f_vals.max(), 1e-300)
    du_x = (uu.ravel()[keep]) / r
    du_y = (vv.ravel()[keep]) / r
    f_keep = f_vals[keep]

    total = 0.0
    for start in range(0, len(ex), 128):
        px = ex[start : start + 128, None] + du_x[None, :]
        py = ey[start : start + 128, None] + du_y[None, :]
        total += float(np.sum(q.contains(px, py).astype(float) @ f_keep))
    return total


def autocorr_integral(
    f,
    q: Region,
    r: float,
    *,
    eta_per_axis: int = 128,
    u_per_axis: int = 96,
) -> float:
    """``r^-2`` times the double integral of ``f(x - y)`` over ``rQ x rQ``.

    Computed in the substituted form: the outer variable runs over ``Q`` on a
    midpoint lattice, and the inner integral of ``f`` over ``r(Q - eta)`` is
    exact for densities that know their mass on the region -- erf products
    (``mass_on_rect``) for rectangles, a noncentral chi-squared CDF
    (``mass_on_disc``) for discs, one call per lattice point.  Anything else
    takes a sampled sum over the density's support, ``u_per_axis^2`` point
    tests per lattice point.  The value can never exceed ``area(Q)`` since
    each inner mass is at most the density's total.
    """
    if not r > 0:
        raise DomainError(f"scale r must be positive, got {r}")
    _check_density(f)
    area = q.area()
    if area == 0.0:
        return 0.0

    t_lo, t_hi, s_lo, s_hi = q.bounding_box()
    hx = (t_hi - t_lo) / eta_per_axis
    hy = (s_hi - s_lo) / eta_per_axis
    eta_x = t_lo + (np.arange(eta_per_axis) + 0.5) * hx
    eta_y = s_lo + (np.arange(eta_per_axis) + 0.5) * hy

    if isinstance(q, Rect) and hasattr(f, "mass_on_rect"):
        masses = f.mass_on_rect(
            r * (t_lo - eta_x)[:, None],
            r * (t_hi - eta_x)[:, None],
            r * (s_lo - eta_y)[None, :],
            r * (s_hi - eta_y)[None, :],
        )
        value = float(hx * hy * masses.sum())
        bound = area
    else:
        ex, ey = np.meshgrid(eta_x, eta_y, indexing="ij")
        inside_q = q.contains(ex, ey)
        ex, ey = ex[inside_q], ey[inside_q]
        bound = max(area, float(np.sum(inside_q)) * hx * hy)
        if isinstance(q, Disc) and hasattr(f, "mass_on_disc"):
            cx, cy = q.center
            masses = f.mass_on_disc(r * (cx - ex), r * (cy - ey), r * q.radius)
            value = float(hx * hy * masses.sum())
        else:
            value = hx * hy * _sampled_inner_sum(f, q, r, ex, ey, u_per_axis)

    if value > bound * (1.0 + 1e-6):
        raise NumericalError(
            f"autocorr value {value!r} exceeds the area bound {bound!r}"
        )
    return value


def decay_condition_margins(f, p: float, C: float, radii) -> list[dict]:
    """Per-radius tail-versus-bound ledger for the polynomial decay condition.

    Each entry reports ``tail = |1 - mass(B_r)|``, the bound ``C / r^p``, and
    whether the condition holds there.
    """
    _check_density(f)
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise DomainError(f"radii must be positive, got {r}")
        tail = abs(1.0 - _disc_mass(f, r))
        bound = C / r**p
        out.append({"r": r, "tail": tail, "bound": bound, "ok": tail <= bound + 1e-12})
    return out
