"""Scaling runs, plunge fits, and the density autocorrelation integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erf, i0e, i1e

import tfconc as tc

# closed-form autocorrelation for the unit square with an isotropic Gaussian:
# the integral factorizes per axis into
#   F(r) = erf(r / (sigma sqrt(2))) - (2 sigma / (r sqrt(2 pi))) (1 - e^{-r^2/(2 sigma^2)})
# and the 2-D value is F(r)^2.  Frozen spot values guard the formula itself.
FROZEN_SELF_DUAL = {
    1.0: 0.466839648451225,
    2.0: 0.707020443130394,
    4.0: 0.847177630885751,
    8.0: 0.922005671948464,
    16.0: 0.960607050100629,
}


def _square_autocorr(sigma, r):
    a = r / (sigma * math.sqrt(2.0))
    f = erf(a) - (2.0 * sigma / (r * math.sqrt(2.0 * math.pi))) * (
        1.0 - math.exp(-(r**2) / (2.0 * sigma**2))
    )
    return f * f


def _lens(s, a):
    """Area shared by two discs of radius ``a`` whose centres are ``s`` apart."""
    if s >= 2.0 * a:
        return 0.0
    return 2.0 * a * a * math.acos(s / (2.0 * a)) - 0.5 * s * math.sqrt(4.0 * a * a - s * s)


def _disc_autocorr(sigma, a, r):
    # for a disc Q of radius a the autocorrelation reduces to one radial
    # integral: f(rho) times the lens area |Q & (Q + rho/r)|, over the plane
    def integrand(rho):
        density = math.exp(-rho * rho / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2)
        return density * _lens(rho / r, a) * 2.0 * math.pi * rho

    value, _ = quad(integrand, 0.0, min(2.0 * a * r, 40.0 * sigma), limit=200,
                    epsabs=1e-14, epsrel=1e-13)
    return value


def _count_calls(monkeypatch, cls):
    """Wrap ``cls.contains`` to record the number of points of every call."""
    sizes = []
    original = cls.contains

    def counted(self, tau, sigma):
        sizes.append(int(np.size(tau)))
        return original(self, tau, sigma)

    monkeypatch.setattr(cls, "contains", counted)
    return sizes


@pytest.fixture(scope="module")
def small_report():
    return tc.scaling_experiment("gaussian", tc.Disc((0.0, 0.0), 1.0), [1.0, 1.5, 2.0])


def test_auto_grid_properties():
    g = tc.auto_grid("gaussian", tc.Disc((0.0, 0.0), 2.0))
    assert g.n % 2 == 1
    assert np.min(np.abs(g.times)) < 1e-12  # zero is a sample
    # half-width covers region extent + window tail + one time unit
    window = tc.make_window("gaussian", g)
    assert g.span >= 2.0 + window.essential_radius + 1.0 - g.dt


#: (family, c, region, dt) -> (n, dt), computed with the prototype-window
#: sizing that the closed-form radii replaced; the zero-extent rect gives the
#: smallest grid a family fits on
_PINNED_GRIDS = [
    ("gaussian", math.pi, tc.Disc((0.0, 0.0), 2.0), None, 93, 0.1108284039946261),
    ("gaussian", 2.0, tc.Disc((0.0, 0.0), 2.0), None, 93, 0.12180481860291048),
    ("triangle", math.pi, tc.Disc((0.0, 0.0), 2.0), None, 169, 0.047619047619047616),
    ("gaussian", math.pi, tc.Rect(-1.0, 2.0, -0.5, 1.5), None, 83, 0.12464231256657941),
    ("triangle", math.pi, tc.Rect(-1.0, 2.0, -0.5, 1.5), None, 161, 0.05),
    ("gaussian", 2.0, tc.Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.5)]), None,
     81, 0.1386990286249755),
    ("triangle", math.pi, tc.Polygon([(0.0, 0.0), (2.0, 0.0), (0.0, 1.5)]), None,
     161, 0.05),
    ("gaussian", math.pi, tc.Disc((0.0, 0.0), 1.0), 0.1, 83, 0.1),
    ("gaussian", math.pi, tc.Rect(0.0, 0.0, 0.0, 0.0), None, 33, 0.19908588960628615),
    ("gaussian", 2.0, tc.Rect(0.0, 0.0, 0.0, 0.0), None, 31, 0.2375378256722757),
    ("triangle", math.pi, tc.Rect(0.0, 0.0, 0.0, 0.0), None, 69, 0.058823529411764705),
]


def test_auto_grid_pinned():
    for family, c, region, dt, n, step in _PINNED_GRIDS:
        g = tc.auto_grid(family, region, c=c, dt=dt)
        assert (g.n, g.dt) == (n, step), (family, c, tc.region_label(region))
        tc.make_window(family, g, c=c)  # the family fits: no TruncationError


def test_auto_grid_honors_fixed_dt():
    g = tc.auto_grid("gaussian", tc.Disc((0.0, 0.0), 1.0), dt=0.1)
    assert g.dt == 0.1


def test_auto_grid_rejects_oversize():
    with pytest.raises(tc.CoverageError):
        tc.auto_grid("gaussian", tc.Disc((0.0, 0.0), 60.0))
    with pytest.raises(tc.CoverageError):
        # frequency extent exceeds the band dt supports
        tc.auto_grid("gaussian", tc.Rect(-1.0, 1.0, -6.0, 6.0), dt=0.1)


@pytest.mark.parametrize("scales", [[1, 2, 6, 8], [8, 1, 6, 2]], ids=["sorted", "shuffled"])
def test_sweep_reports_the_smallest_failing_scale(scales):
    # r = 6 and r = 8 both overrun the band of dt = 0.2; the sweep runs in
    # ascending order and stops at the first failure
    with pytest.raises(tc.CoverageError, match=r"^scale r=6: "):
        tc.scaling_experiment("gaussian", tc.Rect(-0.5, 0.5, -0.5, 0.5), scales, dt=0.2)


def test_scaling_report_shape(small_report):
    assert [row.r for row in small_report.rows] == [1.0, 1.5, 2.0]
    for row in small_report.rows:
        assert row.area == pytest.approx(math.pi * row.r**2, rel=1e-12)
        assert abs(row.trace - row.raster_area) < 1e-8
        assert row.grid_n % 2 == 1


def test_scaling_row_inequalities(small_report):
    lo, hi = small_report.plunge_band
    for row in small_report.rows:
        assert 0.0 <= row.sum_sq <= row.trace + 1e-10
        # Markov: n(1/2) / 2 <= sum of eigenvalues
        assert row.n_lambda * 0.5 <= row.trace + 1e-6
        # plunge-count step: n(lo, hi) (lo - lo^2) <= trace - sum_sq
        assert row.n_plunge * (lo - lo * lo) <= row.trace - row.sum_sq + 1e-10


def test_scaling_counts_grow(small_report):
    counts = [row.n_lambda for row in small_report.rows]
    assert counts == sorted(counts)
    assert counts[-1] > 0


def test_scaling_argument_validation():
    disc = tc.Disc((0.0, 0.0), 1.0)
    with pytest.raises(tc.DomainError):
        tc.scaling_experiment("gaussian", disc, [])
    with pytest.raises(tc.DomainError):
        tc.scaling_experiment("gaussian", disc, [1.0, -2.0])
    with pytest.raises(tc.DomainError):
        tc.scaling_experiment("gaussian", disc, [1.0], plunge_band=(0.9, 0.1))


def _fake_report(rows_spec):
    band = (0.1, 0.9)
    rows = tuple(
        tc.ScalingRow(
            r=r,
            area=float(r * r),
            raster_area=float(r * r),
            trace=trace,
            sum_sq=sum_sq,
            n_lambda=tc.count(np.asarray(eigs, dtype=float), 0.5),
            n_plunge=tc.count(np.asarray(eigs, dtype=float), *band),
            grid_n=101,
        )
        for (r, trace, sum_sq, eigs) in rows_spec
    )
    return tc.ScalingReport(band, rows)


def test_plunge_fit_all_equal_counts():
    report = _fake_report(
        [(r, 3.0, 2.0, [0.5, 0.5, 0.5]) for r in (1.0, 2.0, 4.0)]
    )
    fit = tc.plunge_fit(report)
    assert fit["slope"] == pytest.approx(0.0, abs=1e-12)
    assert fit["rows_used"] == 3


def test_plunge_fit_underdetermined():
    report = _fake_report(
        [
            (1.0, 1.0, 0.5, [0.5, 0.5]),
            (2.0, 1.0, 0.5, [0.005]),
            (4.0, 1.0, 0.5, [0.003]),
        ]
    )
    with pytest.raises(tc.DomainError):
        tc.plunge_fit(report)


def test_plunge_fit_validation():
    short = _fake_report([(1.0, 1.0, 0.5, [0.5, 0.5]), (2.0, 1.0, 0.5, [0.5, 0.5])])
    with pytest.raises(tc.DomainError):
        tc.plunge_fit(short)


def test_plunge_fit_uses_report_band(small_report):
    # the fit is a log-log fit of each row's count in the report's own band,
    # recounted on a spectrum solved afresh at each scale (the sweep's grid:
    # dt from the largest scale, n from the row's own)
    disc = tc.Disc((0.0, 0.0), 1.0)
    dt = tc.auto_grid("gaussian", disc.scale(small_report.rows[-1].r)).dt
    rs, counts = [], []
    for row in small_report.rows:
        region = disc.scale(row.r)
        grid = tc.auto_grid("gaussian", region, dt=dt)
        assert grid.n == row.grid_n
        window = tc.make_window("gaussian", grid)
        spectrum = tc.eigendecompose(tc.assemble(window, region))
        n = tc.count(spectrum.eigenvalues, *small_report.plunge_band)
        assert row.n_plunge == n
        if n >= 2:
            rs.append(row.r)
            counts.append(n)
    slope, intercept = np.polyfit(np.log(rs), np.log(counts), 1)
    fit = tc.plunge_fit(small_report)
    assert fit["rows_used"] == len(rs) >= 2
    assert fit["slope"] == pytest.approx(slope, rel=1e-12)
    assert fit["intercept"] == pytest.approx(intercept, rel=1e-12, abs=1e-12)


def test_hs_error_rate_from_report(small_report):
    out = tc.hs_error_rate(small_report)
    assert out["flag"] is None
    assert out["rows_used"] == 3
    assert out["rate"] > 0.0


def test_hs_error_rate_degenerate():
    report = _fake_report([(r, 2.0, 2.0, [1.0, 1.0]) for r in (1.0, 2.0, 4.0)])
    out = tc.hs_error_rate(report)
    assert out["flag"] == "degenerate"
    assert math.isnan(out["rate"])


def test_hs_error_rate_needs_scales():
    report = _fake_report([(r, 2.0, 1.0, [0.5, 0.5]) for r in (1.0, 2.0)])
    with pytest.raises(tc.DomainError):
        tc.hs_error_rate(report)


# -- densities ---------------------------------------------------------------


def test_gaussian_density_values():
    d = tc.GaussianDensity(sigma=0.5)
    assert d(0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi * 0.25))
    with pytest.raises(tc.DomainError):
        tc.GaussianDensity(sigma=0.0)


@pytest.mark.parametrize(
    "centre",
    [(0.3, 0.2), (1.5, -0.7), (0.6, 0.4), (0.0, 0.0), (1.2, 0.0)],
    ids=["inside", "outside", "on-edge", "on-vertex", "on-far-vertex"],
)
def test_mass_on_polygon_matches_quadrature(centre):
    # the right triangle (0, 0), (1.2, 0), (0, 0.8), integrated over x and
    # then y below the hypotenuse; a centre on the hypotenuse or a vertex puts
    # h = 0 on the edges through it
    d = tc.standard_density()
    cx, cy = centre
    vx, vy = np.array([0.0, 1.2, 0.0]), np.array([0.0, 0.0, 0.8])
    expect, _ = dblquad(lambda y, x: float(d(x - cx, y - cy)), 0.0, 1.2,
                        0.0, lambda x: 0.8 * (1.0 - x / 1.2), epsabs=1e-13, epsrel=1e-12)
    ccw = d.mass_on_polygon(vx - cx, vy - cy)
    cw = d.mass_on_polygon(vx[::-1] - cx, vy[::-1] - cy)
    assert ccw == pytest.approx(expect, abs=1e-12)
    assert cw == pytest.approx(expect, abs=1e-12)


def test_standard_density_is_self_dual():
    d = tc.standard_density()
    assert d.sigma == pytest.approx(tc.SELF_DUAL_SIGMA)
    for x, y in [(0.0, 0.0), (0.5, 0.25), (1.0, -1.0)]:
        assert d(x, y) == pytest.approx(math.exp(-math.pi * (x * x + y * y)), rel=1e-12)


def test_autocorr_frozen_oracle():
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    d = tc.standard_density()
    for r, frozen in FROZEN_SELF_DUAL.items():
        assert _square_autocorr(tc.SELF_DUAL_SIGMA, r) == pytest.approx(
            frozen, abs=1e-12
        )
        assert tc.autocorr_integral(d, square, r) == pytest.approx(frozen, abs=1e-3)


def test_autocorr_wide_density_oracle():
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    d = tc.GaussianDensity(sigma=1.0)
    assert _square_autocorr(1.0, 16.0) == pytest.approx(0.902751225885453, abs=1e-12)
    assert tc.autocorr_integral(d, square, 16.0) == pytest.approx(
        0.902751225885453, abs=1e-3
    )


def test_autocorr_near_delta():
    # sharply peaked density: inner mass ~ 1 for interior points, value ~ |Q|
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    v = tc.autocorr_integral(tc.GaussianDensity(sigma=0.01), square, 1.0)
    assert v == pytest.approx(0.984105970761179, abs=1e-3)
    assert abs(v - 1.0) < 0.02


def test_autocorr_monotone_in_r():
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    d = tc.standard_density()
    vals = [tc.autocorr_integral(d, square, r) for r in (2.0, 4.0, 8.0, 16.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(v <= 1.0 + 1e-6 for v in vals)


def test_autocorr_translation_invariant():
    d = tc.standard_density()
    a = tc.autocorr_integral(d, tc.Rect(0.0, 1.0, 0.0, 1.0), 4.0)
    b = tc.autocorr_integral(d, tc.Rect(-0.5, 0.5, -0.5, 0.5), 4.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_autocorr_empty_region():
    d = tc.standard_density()
    assert tc.autocorr_integral(d, tc.Rect(0.0, 0.0, 0.0, 1.0), 2.0) == 0.0


def test_autocorr_validation():
    d = tc.standard_density()
    with pytest.raises(tc.DomainError):
        tc.autocorr_integral(d, tc.Rect(0.0, 1.0, 0.0, 1.0), 0.0)


def test_autocorr_square_routes_match_rect():
    # the unit square as a polygon in either orientation and as a 4 x 5 cell
    # mask: the same outer lattice, an exact inner mass on every route
    d = tc.standard_density()
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tiling = tc.Mask((np.arange(4) + 0.5) / 4, (np.arange(5) + 0.5) / 5,
                     np.ones((4, 5), dtype=bool))
    for r in (1.0, 4.0, 16.0):
        exact = tc.autocorr_integral(d, tc.Rect(0.0, 1.0, 0.0, 1.0), r)
        for q in (tc.Polygon(corners), tc.Polygon(corners[::-1]), tiling):
            assert tc.autocorr_integral(d, q, r) == pytest.approx(exact, abs=1e-12)


def test_autocorr_l_shape_mask_matches_polygon():
    # three cells of a 2 x 2 mask against the same L traced as a polygon
    d = tc.standard_density()
    mask = tc.Mask([0.25, 0.75], [0.25, 0.75], np.array([[True, True], [True, False]]))
    poly = tc.Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5), (0.5, 1.0),
                       (0.0, 1.0)])
    assert mask.area() == poly.area() == 0.75
    for r in (2.0, 8.0):
        assert tc.autocorr_integral(d, mask, r) == pytest.approx(
            tc.autocorr_integral(d, poly, r), abs=1e-12
        )


@pytest.mark.parametrize(
    "sigma, center, radius",
    [
        (tc.SELF_DUAL_SIGMA, (0.0, 0.0), 0.6),
        (tc.SELF_DUAL_SIGMA, (0.25, -0.4), 0.6),
        (tc.SELF_DUAL_SIGMA, (1.0, 0.5), 0.75),
        (1.0, (0.0, 0.0), 0.6),
        (tc.SELF_DUAL_SIGMA, (0.0, 0.0), 1.3),
        (tc.SELF_DUAL_SIGMA, (-0.2, 0.3), 1.5),
        (0.05, (0.0, 0.0), 1.3),
    ],
)
def test_autocorr_disc_lens_oracle(sigma, center, radius):
    # the closed form against the lens-area integral, which shares no formula
    # with it: both are exact, so only the quadrature's rounding separates them
    d = tc.GaussianDensity(sigma=sigma)
    q = tc.Disc(center, radius)
    for r in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0):
        assert tc.autocorr_integral(d, q, r) == pytest.approx(
            _disc_autocorr(sigma, radius, r), rel=1e-11
        )


def test_autocorr_disc_two_term_limit():
    # area - value ~ 2 pi R sigma / (sqrt(2 pi) r) + O(r^-2): the boundary
    # term of the two-term law; the next term is 1 / (8 X) relative to it,
    # X = (r R / sigma)^2, ~1e-6 at r R / sigma ~ 385
    d = tc.standard_density()
    q = tc.Disc((0.0, 0.0), 1.2)
    r = 128.0
    assert r * q.radius / d.sigma == pytest.approx(385.0, rel=1e-3)
    deficit = r * (q.area() - tc.autocorr_integral(d, q, r))
    expect = 2.0 * math.pi * q.radius * d.sigma / math.sqrt(2.0 * math.pi)
    assert deficit == pytest.approx(expect, rel=1e-5)


def test_autocorr_disc_extremes():
    d = tc.GaussianDensity(sigma=1.0)
    q = tc.Disc((0.3, -0.1), 2.0)
    area = q.area()
    # r R / sigma = 1e6: finite (ive would give nan past ~3.3e4) and at most
    # the area
    far = tc.autocorr_integral(d, q, 5e5)
    assert math.isfinite(far) and 0.0 < far <= area
    # X overflows to inf: the whole area
    assert tc.autocorr_integral(d, q, 1e300) == area
    # small X: 1 - e^-X (I0 + I1) = X / 2 + O(X^2)
    for r in (1e-9, 1e-8, 1e-7):
        x = (r * q.radius / d.sigma) ** 2
        assert abs(tc.autocorr_integral(d, q, r) - area * x / 2.0) <= 1e-15 * area


def _disc_bracket_series(x):
    """``1 - e^-X (I0(X) + I1(X))`` by its power series summed until the terms
    stop counting: ``c_1 = 1/2``, ``c_k = -c_(k-1) (2k - 1) / (k (k + 1))``."""
    term, total, k = 0.5 * x, 0.0, 1
    while total + term != total:
        total += term
        k += 1
        term *= -x * (2 * k - 1) / (k * (k + 1))
    return total


def test_autocorr_disc_small_scales():
    from tfconc import scaling

    d = tc.GaussianDensity(sigma=1.0)
    q = tc.Disc((0.0, 0.0), 2.0)
    area = q.area()

    def value_and_x(r):
        return tc.autocorr_integral(d, q, r), (r * q.radius / d.sigma) ** 2

    # r R / sigma = 1e-9, where the closed form alone went negative
    assert tc.autocorr_integral(d, q, 0.5e-9) > 0.0
    for r in np.geomspace(5e-7, 5e-4, 7):  # X from 1e-12 to 1e-6
        value, x = value_and_x(r)
        assert value == pytest.approx(area * (x / 2 - x**2 / 4 + 5 * x**3 / 48), rel=1e-12)
    # either side of the switch, both branches against the summed series
    switch = scaling._DISC_SERIES_X
    for r in np.geomspace(0.25, 4.0, 41) * math.sqrt(switch) * d.sigma / q.radius:
        value, x = value_and_x(r)
        assert value == pytest.approx(area * _disc_bracket_series(x), rel=1e-12)
    # and the two branches at the switch itself
    below, x = value_and_x(math.sqrt(switch) * d.sigma / q.radius * (1.0 - 1e-12))
    assert x < switch
    closed = area * (1.0 - i0e(switch) - i1e(switch))
    assert below == pytest.approx(closed, rel=1e-11)


def test_autocorr_disc_translation_invariant():
    d = tc.standard_density()
    for r in (2.0, 8.0):
        a = tc.autocorr_integral(d, tc.Disc((0.0, 0.0), 0.7), r)
        b = tc.autocorr_integral(d, tc.Disc((-1.3, 0.45), 0.7), r)
        assert a == b


def test_autocorr_disc_route_tests_no_points(monkeypatch):
    # structural guard: the disc's closed form samples nothing
    sizes = _count_calls(monkeypatch, tc.Disc)
    d = tc.standard_density()
    q = tc.Disc((0.2, 0.1), 0.6)
    for r in (2.0, 16.0):
        tc.autocorr_integral(d, q, r)
    assert sizes == []


@pytest.mark.parametrize("cls", [tc.Polygon, tc.Mask])
def test_autocorr_exact_routes_test_points_once(monkeypatch, cls):
    # structural guard: polygons and masks select the outer lattice with one
    # contains() call; their inner masses are closed forms, not point tests
    sizes = _count_calls(monkeypatch, cls)
    regions = {
        tc.Polygon: tc.Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
        tc.Mask: tc.Mask([0.0, 0.5], [0.0, 0.5, 1.0], np.array([[1, 0, 1], [1, 1, 0]])),
    }
    for r in (2.0, 16.0):
        sizes.clear()
        tc.autocorr_integral(tc.standard_density(), regions[cls], r)
        assert sizes == [128 * 128]


def test_decay_condition_gaussian_tail():
    # self-dual density tail over the disc of radius r is exactly e^{-pi r^2}
    d = tc.standard_density()
    rows = tc.decay_condition_margins(d, 4.0, 1.0, [1.0, 2.0, 3.0])
    for row in rows:
        assert row["tail"] == pytest.approx(math.exp(-math.pi * row["r"] ** 2), rel=1e-12)
        assert row["ok"]


def test_decay_condition_binding_radius():
    # with a small constant the bound binds at small r and relaxes at large r
    d = tc.standard_density()
    rows = tc.decay_condition_margins(d, 1.0, 0.01, [0.1, 3.0])
    assert not rows[0]["ok"]
    assert rows[1]["ok"]
    with pytest.raises(tc.DomainError):
        tc.decay_condition_margins(d, 1.0, 1.0, [0.0])
