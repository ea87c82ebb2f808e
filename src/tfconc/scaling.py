"""Scaling experiments: eigenvalue counting, plunge growth, and the
density-autocorrelation integrals that drive the large-``r`` analysis.

A scaling run dilates one region through a list of scales, assembles and
diagonalizes the operator at each, and records the counting statistics.  The
time step is frozen across scales (auto-chosen from the largest one) so the
discretization error stays comparable and fits measure geometry, not the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import (
    CoverageError,
    DomainError,
    NumericalError,
    UnsupportedCaseError,
)
from .grids import SampleGrid
from .operators import assemble, count, eigendecompose
from .regions import Disc, Mask, Polygon, Rect, Region
from .windows import _stock_radii, make_window

__all__ = [
    "ScalingRow",
    "ScalingReport",
    "auto_grid",
    "scaling_experiment",
    "plunge_fit",
    "hs_error_rate",
    "GaussianDensity",
    "SELF_DUAL_SIGMA",
    "standard_density",
    "autocorr_integral",
    "decay_condition_margins",
]

#: dense eigensolves beyond this order are a design non-goal
_N_CAP = 2048


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
    one after another, in ascending order, on the calling thread, with
    whatever BLAS thread count the caller has set.  Threads would not overlap
    the scales: scipy's f2py BLAS and LAPACK wrappers hold the GIL for the
    whole call, so GEMMs, reductions and eigenvalue solves run one at a time.
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
        eigenvalues = eigendecompose(op, vectors=0).eigenvalues
        return ScalingRow(
            r=r,
            area=region_r.area(),
            raster_area=op.raster.area,
            trace=op.trace,
            sum_sq=float(np.sum(eigenvalues**2)),
            n_lambda=count(eigenvalues, 0.5),
            n_plunge=count(eigenvalues, lo, hi),
            grid_n=grid_r.n,
        )

    return ScalingReport((lo, hi), tuple(run(r) for r in scales))


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

#: outer lattice points per axis in autocorr_integral's route for rects,
#: masks and polygons (discs have a closed form and no lattice)
_ETA = 128
#: below this X = (r R / sigma)^2 a disc's value comes from the power series
#: of 1 - e^-X (I0(X) + I1(X)), whose closed form cancels there; at the switch
#: both are within 7e-13 relative of the exact value
_DISC_SERIES_X = 2e-3


@dataclass(frozen=True)
class GaussianDensity:
    """Centered isotropic Gaussian probability density on the plane.

    Its marginal distribution function (``_cdf``) and its polygon masses
    (``mass_on_polygon``) are exact, which gives ``autocorr_integral`` an
    exact inner integral on every lattice route -- erf differences for
    rectangles and masks, Owen's T sums for polygons; discs need no inner
    mass.
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

    def _cdf(self, z):
        """Marginal distribution function along either axis."""
        root2 = math.sqrt(2.0) * self.sigma
        return 0.5 * (1.0 + scipy.special.erf(np.asarray(z) / root2))

    def mass_on_polygon(self, x, y):
        """Exact integral over the simple polygon with vertices ``(x, y)``.

        The vertices run along the last axis, in either orientation; leading
        axes index separate polygons.  Each edge spans a triangle with the
        density's centre.  With ``h`` the centre's distance (in units of
        ``sigma``) to the edge's line and ``t`` a point's coordinate along
        that line from the foot of the perpendicular, the right triangle with
        legs ``h`` and ``t`` holds ``atan(t / h) / (2 pi) - T(h, t / h)``,
        where ``T`` is Owen's T function (Owen 1956).  The polygon's mass is
        the sum of the edge triangles, each signed by its orientation about
        the centre, times the polygon's own orientation.
        """
        x = np.asarray(x, dtype=float) / self.sigma
        y = np.asarray(y, dtype=float) / self.sigma
        x2 = np.roll(x, -1, axis=-1)
        y2 = np.roll(y, -1, axis=-1)
        dx, dy = x2 - x, y2 - y
        cross = x * y2 - x2 * y
        with np.errstate(divide="ignore", invalid="ignore"):
            # t / h for each end of the edge is its dot product with the edge
            # over |cross|.  An edge whose line passes through the centre spans
            # no triangle; its nan terms are masked below.
            h = np.abs(cross) / np.hypot(dx, dy)
            start = (x * dx + y * dy) / np.abs(cross)
            end = (x2 * dx + y2 * dy) / np.abs(cross)

        def leg(a):
            return np.arctan(a) / (2.0 * math.pi) - scipy.special.owens_t(h, a)

        edges = np.where(cross != 0.0, np.sign(cross) * (leg(end) - leg(start)), 0.0)
        return np.sign(np.sum(cross, axis=-1)) * np.sum(edges, axis=-1)


#: Width at which GaussianDensity equals exp(-pi (x^2+y^2)) -- the spectrogram
#: of the unit Gaussian window, and the reference density for the scaling
#: experiments.  (2 pi sigma^2 = 1.)
SELF_DUAL_SIGMA = 1.0 / math.sqrt(2.0 * math.pi)


def standard_density() -> GaussianDensity:
    """The self-dual Gaussian density exp(-pi |u|^2), mass exactly 1."""
    return GaussianDensity(sigma=SELF_DUAL_SIGMA)


def _cells(q: Rect | Mask) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell edges along each axis and the cell flags; a Rect is one cell."""
    if isinstance(q, Rect):
        return (np.array([q.tau_lo, q.tau_hi]), np.array([q.sigma_lo, q.sigma_hi]),
                np.ones((1, 1)))
    dt, ds = q._steps()
    t_edges = np.append(q.tau_values - dt / 2, q.tau_values[-1] + dt / 2)
    s_edges = np.append(q.sigma_values - ds / 2, q.sigma_values[-1] + ds / 2)
    return t_edges, s_edges, q.inside.astype(float)


def autocorr_integral(f: GaussianDensity, q: Region, r: float) -> float:
    """``r^-2`` times the double integral of ``f(x - y)`` over ``rQ x rQ``.

    For a disc of radius ``R`` the value is the closed form
    ``pi R^2 [1 - e^-X (I0(X) + I1(X))]`` with ``X = (r R / sigma)^2``: the
    disc's set covariogram transforms to ``(rho J1(2 pi rho |xi|) / |xi|)^2``
    (``rho = r R``), and Weber's second exponential integral against the
    Gaussian's transform leaves two exponentially scaled Bessel values
    (``i0e``, ``i1e``; finite for every ``X``, unlike ``ive``).  Below
    ``X = 2e-3`` the bracket cancels, so there it is the power series
    ``X/2 - X^2/4 + 5 X^3/48 - 7 X^4/192``, positive for every ``X > 0``.
    The value does not depend on the centre, and for large ``r`` it approaches
    ``area - 2 pi R sigma / (sqrt(2 pi) r)``.

    Rects, masks and polygons are computed in the substituted form: the outer
    variable runs over the points of a 128 x 128 midpoint lattice on ``Q``'s
    bounding box that lie in ``Q``, and the inner integral of ``f`` over
    ``r(Q - eta)`` is exact at each -- Owen's T sum (``mass_on_polygon``) for
    polygons, and for rectangles and masks the sum of the cells' erf
    products, which over the lattice is ``Ax inside Ay^T`` with ``Ax[p, i]``
    the marginal mass of cell column ``i`` seen from ``eta_x[p]``.  The value
    can never exceed ``area(Q)`` since each inner mass is at most 1.
    """
    if not r > 0:
        raise DomainError(f"scale r must be positive, got {r}")
    area = q.area()
    if area == 0.0:
        return 0.0

    if isinstance(q, Disc):
        rho = r * q.radius / f.sigma
        x = rho * rho  # overflows to inf, where the value is the area
        if x < _DISC_SERIES_X:
            # coefficients c_k = -c_(k-1) (2k - 1) / (k (k + 1)), c_1 = 1/2;
            # the first omitted term is below 4e-13 relative here
            value = area * x * (0.5 - x * (0.25 - x * (5 / 48 - x * 7 / 192)))
        else:
            value = area * float(1.0 - scipy.special.i0e(x) - scipy.special.i1e(x))
        bound = area
    else:
        value, bound = _lattice_autocorr(f, q, r, area)

    if value > bound * (1.0 + 1e-6):
        raise NumericalError(
            f"autocorr value {value!r} exceeds the area bound {bound!r}"
        )
    return value


def _lattice_autocorr(
    f: GaussianDensity, q: Region, r: float, area: float
) -> tuple[float, float]:
    """The outer-lattice route of :func:`autocorr_integral`: its value, and the
    larger of ``area`` and the selected lattice cells' area as its bound."""
    t_lo, t_hi, s_lo, s_hi = q.bounding_box()
    hx = (t_hi - t_lo) / _ETA
    hy = (s_hi - s_lo) / _ETA
    eta_x = t_lo + (np.arange(_ETA) + 0.5) * hx
    eta_y = s_lo + (np.arange(_ETA) + 0.5) * hy
    ex, ey = np.meshgrid(eta_x, eta_y, indexing="ij")
    inside_q = q.contains(ex, ey)
    ex, ey = ex[inside_q], ey[inside_q]
    bound = max(area, float(np.sum(inside_q)) * hx * hy)

    if isinstance(q, Polygon):
        vx, vy = q.vertices.T
        masses = f.mass_on_polygon(r * (vx - ex[:, None]), r * (vy - ey[:, None]))
    elif isinstance(q, (Rect, Mask)):
        t_edges, s_edges, inside = _cells(q)
        ax = np.diff(f._cdf(r * (t_edges - eta_x[:, None])), axis=1)
        ay = np.diff(f._cdf(r * (s_edges - eta_y[:, None])), axis=1)
        lattice = np.einsum("pj,qj->pq", np.einsum("pi,ij->pj", ax, inside), ay)
        masses = lattice[inside_q]
    else:
        raise UnsupportedCaseError(f"no inner mass for region {type(q).__name__}")
    return float(hx * hy * masses.sum()), bound


def decay_condition_margins(f: GaussianDensity, p: float, C: float, radii) -> list[dict]:
    """Per-radius tail-versus-bound ledger for the polynomial decay condition.

    Each entry reports the mass outside the centred disc of radius ``r``,
    ``tail = exp(-r^2 / (2 sigma^2))``, the bound ``C / r^p``, and whether the
    condition holds there.
    """
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise DomainError(f"radii must be positive, got {r}")
        tail = math.exp(-r * r / (2.0 * f.sigma**2))
        bound = C / r**p
        out.append({"r": r, "tail": tail, "bound": bound, "ok": tail <= bound + 1e-12})
    return out
