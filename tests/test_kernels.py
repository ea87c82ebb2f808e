"""The reproducing-kernel structure of a window's coefficient space.

Ambiguity function ``H`` from :func:`tfconc.oracles.ambiguity_table`, the
reproducing kernel as a phase times an ``H`` entry, and the projection
``analyze(synthesize(.))``, each checked against its defining inner products.
"""

import numpy as np
import pytest

import tfconc as tc
from tfconc.grids import inner_product, tf_shift
from tfconc.oracles import GaborCoefficients, ambiguity_table, synthesize

# e^{-pi (0.5^2 + 0.25^2) / 2}, confirmed by 2e6-point quadrature of the
# defining integral (agreement to 5e-12)
GAUSS_AMBIGUITY_05_025 = 0.6120912831470138


@pytest.fixture(scope="module")
def fine_gauss():
    # dt = 1/16 so tau = 0.5 is grid-aligned
    return tc.make_window("gaussian", tc.SampleGrid(257, 1.0 / 16.0))


def _entry(window, tau, sigma):
    """``H(tau, sigma)``: a one-node ambiguity table."""
    return ambiguity_table(window, np.array([tau]), np.array([sigma]))[0, 0]


def _kernel(window, p, q):
    """``<rho(p) phi, rho(q) phi> = e^{pi i (tau_p sigma_q - sigma_p tau_q)} H(p - q)``."""
    phase = np.exp(1j * np.pi * (p[0] * q[1] - p[1] * q[0]))
    return phase * _entry(window, p[0] - q[0], p[1] - q[1])


def _defined(window, p, q=(0.0, 0.0)):
    """The kernel's definition, ``<rho(p) phi, rho(q) phi>``; ``H(p)`` at q = 0."""
    phi = window.signal
    return inner_product(tf_shift(phi, *p), tf_shift(phi, *q))


def test_ambiguity_at_origin(fine_gauss, tri_window):
    for w in (fine_gauss, tri_window):
        assert _entry(w, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_ambiguity_closed_form(fine_gauss):
    got = abs(_entry(fine_gauss, 0.5, 0.25))
    assert got == pytest.approx(GAUSS_AMBIGUITY_05_025, abs=1e-8)
    # |H| = e^{-pi (tau^2 + sigma^2)/2} on a grid of aligned shifts
    for tau, sigma in [(0.25, 0.0), (1.0, 0.5), (0.0, 1.25), (-0.75, 0.3)]:
        expect = np.exp(-np.pi * (tau**2 + sigma**2) / 2.0)
        assert abs(_entry(fine_gauss, tau, sigma)) == pytest.approx(expect, abs=1e-8)


def test_triangle_ambiguity_disjoint_support(tri_window):
    # supports [-1, 1] and shifted by 2 or more: no overlap at all
    taus = np.array([2.0, 2.5, -2.0, 3.0])
    assert np.all(ambiguity_table(tri_window, taus, np.array([0.0])) == 0.0)


def test_ambiguity_magnitude_bound(fine_gauss, rng):
    dt = fine_gauss.grid.dt
    for _ in range(25):
        tau = dt * rng.integers(-40, 41)
        sigma = rng.uniform(-2.0, 2.0)
        assert abs(_entry(fine_gauss, tau, sigma)) <= 1.0 + 1e-12


def test_ambiguity_unit_l2_mass(fine_gauss):
    # dtau dsigma sum |H|^2 = 1 over a covering lattice
    g = fine_gauss.grid
    taus = g.dt * np.arange(-64, 65)
    sigmas = g.dsigma * np.arange(-64, 65)
    table = ambiguity_table(fine_gauss, taus, sigmas)
    mass = g.dt * g.dsigma * np.sum(np.abs(table) ** 2)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_ambiguity_table_matches_pointwise(tri_window, rng):
    g = tri_window.grid
    taus = g.dt * np.array([-20, -3, 0, 7, 16])
    sigmas = g.dsigma * np.arange(-5, 6)
    table = ambiguity_table(tri_window, taus, sigmas)
    for i, tau in enumerate(taus):
        for j, sigma in enumerate(sigmas):
            assert abs(table[i, j] - _defined(tri_window, (tau, sigma))) < 1e-12


def test_ambiguity_table_rejects_bad_sigma_step(fine_gauss):
    g = fine_gauss.grid
    with pytest.raises(ValueError):
        ambiguity_table(fine_gauss, np.array([0.0]), np.array([0.0, 1.5 * g.dsigma]))
    # 5e-7 relative off dsigma = 1/101 is under an absolute 1e-8, but PhaseGrid
    # refuses it, and so does the table
    window = tc.make_window("gaussian", tc.SampleGrid(101, 1.0))
    ds = window.grid.dsigma
    with pytest.raises(ValueError, match="must equal"):
        ambiguity_table(window, np.array([0.0]), np.array([0.0, ds * (1.0 + 5e-7)]))


def test_kernel_diagonal(fine_gauss):
    g = fine_gauss.grid
    for p in [(0.0, 0.0), (0.5, -0.75), (8 * g.dt, 1.0)]:
        assert _kernel(fine_gauss, p, p) == pytest.approx(1.0, abs=1e-12)


def test_kernel_cauchy_schwarz(fine_gauss, rng):
    dt = fine_gauss.grid.dt
    for _ in range(100):
        p = (dt * rng.integers(-30, 31), rng.uniform(-2, 2))
        q = (dt * rng.integers(-30, 31), rng.uniform(-2, 2))
        assert abs(_kernel(fine_gauss, p, q)) <= 1.0 + 1e-12


def test_kernel_factorization_vs_direct(fine_gauss, rng):
    # phase * H(p - q) against the explicit double-shift inner product
    dt = fine_gauss.grid.dt
    for _ in range(20):
        p = (dt * rng.integers(-24, 25), rng.uniform(-1.5, 1.5))
        q = (dt * rng.integers(-24, 25), rng.uniform(-1.5, 1.5))
        assert abs(_kernel(fine_gauss, p, q) - _defined(fine_gauss, p, q)) < 1e-10


def test_kernel_hermitian_symmetry(fine_gauss):
    dt = fine_gauss.grid.dt
    p, q = (4 * dt, 0.8), (-6 * dt, -0.3)
    assert _kernel(fine_gauss, p, q) == pytest.approx(
        np.conj(_kernel(fine_gauss, q, p)), abs=1e-12
    )


def _random_coeffs(pg, rng):
    vals = rng.standard_normal(pg.shape) + 1j * rng.standard_normal(pg.shape)
    return GaborCoefficients(pg, vals)


def test_project_reproduces_transforms(gauss_grid, gauss_window):
    vals = 2.0**0.25 * np.exp(-np.pi * (gauss_grid.times + 0.4) ** 2)
    f = tc.Signal(gauss_grid, vals.astype(complex))
    pg = tc.PhaseGrid.cover(gauss_grid, (-4.0, 4.0), (-4.0, 4.0))
    coeffs = tc.analyze(f, gauss_window, pg)
    projected = tc.analyze(synthesize(coeffs, gauss_window), gauss_window, pg)
    assert np.max(np.abs(projected.values - coeffs.values)) < 1e-6


def test_project_idempotent(gauss_grid, gauss_window, rng):
    # needs the moyal cover: there synthesize is the exact left inverse of
    # analyze, so projecting twice is projecting once (partial covers leak)
    pg = tc.PhaseGrid.moyal_cover(gauss_grid)
    coeffs = _random_coeffs(pg, rng)
    once = tc.analyze(synthesize(coeffs, gauss_window), gauss_window, pg)
    twice = tc.analyze(synthesize(once, gauss_window), gauss_window, pg)
    assert np.max(np.abs(twice.values - once.values)) < 1e-10


def test_project_contracts(gauss_grid, gauss_window, rng):
    pg = tc.PhaseGrid.cover(gauss_grid, (-3.0, 3.0), (-3.0, 3.0))
    coeffs = _random_coeffs(pg, rng)
    projected = tc.analyze(synthesize(coeffs, gauss_window), gauss_window, pg)
    assert projected.energy <= coeffs.energy + 1e-8


def test_reproducing_identity(gauss_grid, gauss_window):
    # F(p) = sum over q of F(q) K(q, p) dA for F in the window's range, with
    # K(q, p) = e^{pi i (tau_q sigma_p - sigma_q tau_p)} H(q - p): one table
    # over the cover's lags from p
    vals = 2.0**0.25 * np.exp(-np.pi * (gauss_grid.times - 0.2) ** 2)
    f = tc.Signal(gauss_grid, vals.astype(complex))
    pg = tc.PhaseGrid.cover(gauss_grid, (-4.0, 4.0), (-4.0, 4.0))
    coeffs = tc.analyze(f, gauss_window, pg)
    i = int(np.argmin(np.abs(pg.tau_values - 0.4)))
    j = int(np.argmin(np.abs(pg.sigma_values + 0.2)))
    tau, sigma = pg.tau_values[i], pg.sigma_values[j]
    table = ambiguity_table(gauss_window, pg.tau_values - tau, pg.sigma_values - sigma)
    phases = np.exp(
        1j * np.pi * np.subtract.outer(pg.tau_values * sigma, pg.sigma_values * tau)
    )
    acc = pg.cell_area * np.sum(coeffs.values * phases * table)
    assert abs(acc - coeffs.values[i, j]) < 1e-6
