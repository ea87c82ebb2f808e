"""Scaling runs, plunge fits, and the density autocorrelation integrals."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import tfconc as tc
from tfconc.scaling import _disc_mass

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

    value, _ = quad(integrand, 0.0, min(2.0 * a * r, 40.0 * sigma), limit=200)
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
            eigenvalues=np.asarray(eigs, dtype=float),
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
    # the fit is a log-log fit of each row's count in the report's own band
    rs, counts = [], []
    for row in small_report.rows:
        n = tc.count(row.eigenvalues, *small_report.plunge_band)
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
    assert d.mass_on_rect(-10.0, 10.0, -10.0, 10.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(tc.DomainError):
        tc.GaussianDensity(sigma=0.0)


def test_mass_on_disc_centred_closed_form():
    rho = np.linspace(0.0, 5.0, 41)
    for sigma in (1.0, 0.3, tc.SELF_DUAL_SIGMA):
        d = tc.GaussianDensity(sigma=sigma)
        expect = -np.expm1(-(rho**2) / (2.0 * sigma**2))
        got = d.mass_on_disc(0.0, 0.0, rho)
        assert np.max(np.abs(got - expect)) <= 1e-14


def test_mass_on_disc_limits():
    d = tc.GaussianDensity(sigma=0.5)
    # a disc covering the whole plane holds the total mass
    assert d.mass_on_disc(1.0, -2.0, 1e3) == pytest.approx(1.0, abs=1e-15)
    # a unit disc 50 sigma away holds essentially nothing
    assert 0.0 <= d.mass_on_disc(25.0, 0.0, 0.5) < 1e-200


def test_mass_on_disc_off_centre_matches_polar_quadrature():
    for sigma in (1.0, tc.SELF_DUAL_SIGMA):
        d = tc.GaussianDensity(sigma=sigma)
        for x0, y0, radius in [(0.5, 0.0, 1.0), (-0.3, 0.8, 0.4), (1.2, -1.5, 2.5)]:
            x0, y0, radius = x0 * sigma, y0 * sigma, radius * sigma
            shifted = tc.CustomDensity(lambda x, y: d(x + x0, y + y0), extent=d.extent)
            assert d.mass_on_disc(x0, y0, radius) == pytest.approx(
                _disc_mass(shifted, radius), abs=1e-10
            )


def test_mass_on_disc_broadcasts():
    d = tc.standard_density()
    x0 = np.array([[0.0], [0.5]])
    y0 = np.array([0.0, 0.25, -1.0])
    got = d.mass_on_disc(x0, y0, 0.75)
    assert got.shape == (2, 3)
    for i in range(2):
        for j in range(3):
            assert got[i, j] == d.mass_on_disc(x0[i, 0], y0[j], 0.75)


def test_standard_density_is_self_dual():
    d = tc.standard_density()
    assert d.sigma == pytest.approx(tc.SELF_DUAL_SIGMA)
    for x, y in [(0.0, 0.0), (0.5, 0.25), (1.0, -1.0)]:
        assert d(x, y) == pytest.approx(math.exp(-math.pi * (x * x + y * y)), rel=1e-12)


def test_normalization_guard():
    d = tc.GaussianDensity(sigma=1.0)
    bad = tc.CustomDensity(lambda x, y: 1.2 * d(x, y), extent=d.extent)
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(tc.NormalizationError):
        tc.autocorr_integral(bad, square, 2.0)
    with pytest.raises(tc.NormalizationError):
        tc.decay_condition_margins(bad, 1.0, 1.0, [1.0])


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


def test_autocorr_sampled_path_matches_analytic():
    # a square given as a Polygon goes through the sampled route; it should
    # land near the exact-rectangle value at matching resolution
    d = tc.standard_density()
    square_rect = tc.Rect(0.0, 1.0, 0.0, 1.0)
    square_poly = tc.Polygon(
        np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    )
    exact = tc.autocorr_integral(d, square_rect, 4.0)
    sampled = tc.autocorr_integral(
        d, square_poly, 4.0, eta_per_axis=32, u_per_axis=48
    )
    assert sampled == pytest.approx(exact, abs=0.02)


@pytest.mark.parametrize(
    "sigma, center, radius",
    [
        (tc.SELF_DUAL_SIGMA, (0.0, 0.0), 0.6),
        (tc.SELF_DUAL_SIGMA, (0.25, -0.4), 0.6),
        (tc.SELF_DUAL_SIGMA, (1.0, 0.5), 0.75),
        (1.0, (0.0, 0.0), 0.6),
    ],
)
def test_autocorr_disc_lens_oracle(sigma, center, radius):
    # the exact inner mass leaves only the 128^2 outer lattice's error, which
    # is ~1.7e-3 for radius 0.75 and shrinks with the radius
    d = tc.GaussianDensity(sigma=sigma)
    q = tc.Disc(center, radius)
    for r in (1.0, 2.0, 4.0, 8.0, 16.0):
        assert tc.autocorr_integral(d, q, r) == pytest.approx(
            _disc_autocorr(sigma, radius, r), abs=2.5e-3
        )


def test_autocorr_disc_translation_invariant():
    d = tc.standard_density()
    for r in (2.0, 8.0):
        a = tc.autocorr_integral(d, tc.Disc((0.0, 0.0), 0.7), r)
        b = tc.autocorr_integral(d, tc.Disc((-1.3, 0.45), 0.7), r)
        assert a == pytest.approx(b, rel=1e-10)


def test_autocorr_disc_exact_matches_sampled():
    # the same Gaussian behind a plain callable has no mass_on_disc, so it
    # takes the sampled route over the same outer lattice; what is left is
    # the sampled route's own inner error (up to ~1.6e-4 on these cases)
    d = tc.standard_density()
    wrapped = tc.CustomDensity(d, extent=d.extent)
    cases = [((0.0, 0.0), 0.6, 4.0), ((0.0, 0.0), 0.6, 8.0),
             ((0.3, -0.2), 0.9, 2.0), ((0.3, -0.2), 0.9, 16.0)]
    for center, radius, r in cases:
        q = tc.Disc(center, radius)
        exact = tc.autocorr_integral(d, q, r)
        sampled = tc.autocorr_integral(wrapped, q, r)
        assert exact == pytest.approx(sampled, abs=5e-4)


def test_autocorr_disc_route_tests_points_once(monkeypatch):
    # structural guard: the exact disc route selects the outer lattice with
    # one contains() call and never samples the inner integral
    sizes = _count_calls(monkeypatch, tc.Disc)
    d = tc.standard_density()
    q = tc.Disc((0.2, 0.1), 0.6)
    for r in (2.0, 16.0):
        sizes.clear()
        tc.autocorr_integral(d, q, r)
        assert sizes == [128 * 128]
    sizes.clear()
    tc.autocorr_integral(d, q, 4.0, eta_per_axis=40)
    assert sizes == [40 * 40]


def test_autocorr_polygon_takes_sampled_route(monkeypatch):
    sizes = _count_calls(monkeypatch, tc.Polygon)
    triangle = tc.Polygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    eta = 24
    tc.autocorr_integral(tc.standard_density(), triangle, 2.0, eta_per_axis=eta,
                         u_per_axis=32)
    assert sizes[0] == eta * eta
    h = 1.0 / eta
    centres = (np.arange(eta) + 0.5) * h
    inside = int(np.sum(triangle.contains(*np.meshgrid(centres, centres, indexing="ij"))))
    # one lattice selection, then one batch of up to 128 centres at a time
    assert len(sizes) == 2 + math.ceil(inside / 128)
    assert all(n > 128 for n in sizes[1:-1])


def test_decay_condition_gaussian_tail():
    # self-dual density tail over the disc of radius r is exactly e^{-pi r^2}
    d = tc.standard_density()
    rows = tc.decay_condition_margins(d, 4.0, 1.0, [1.0, 2.0, 3.0])
    for row in rows:
        assert row["tail"] == pytest.approx(math.exp(-math.pi * row["r"] ** 2), rel=1e-6)
        assert row["ok"]


def test_decay_condition_power_law_tail():
    # f(|u|) = (1/pi) (1 + |u|)^{-3} has unit mass and tail
    # 2 [1/(1+r) - 1/(2 (1+r)^2)] ~ 2/r: passes p=1, fails p=2
    f = tc.CustomDensity(
        lambda x, y: (1.0 + np.hypot(x, y)) ** -3.0 / math.pi, extent=50.0
    )
    radii = [2.0, 4.0, 8.0, 16.0, 32.0]
    rows = tc.decay_condition_margins(f, 1.0, 2.5, radii)
    for row in rows:
        u = 1.0 + row["r"]
        expect = 2.0 * (1.0 / u - 0.5 / u**2)
        assert row["tail"] == pytest.approx(expect, rel=1e-6)
    assert all(row["ok"] for row in rows)
    assert not all(row["ok"] for row in tc.decay_condition_margins(f, 2.0, 2.5, radii))


def test_decay_condition_binding_radius():
    # with a small constant the bound binds at small r and relaxes at large r
    d = tc.standard_density()
    rows = tc.decay_condition_margins(d, 1.0, 0.01, [0.1, 3.0])
    assert not rows[0]["ok"]
    assert rows[1]["ok"]
    with pytest.raises(tc.DomainError):
        tc.decay_condition_margins(d, 1.0, 1.0, [0.0])
