"""Phase-space lattices, windowed Fourier analysis, and adjoint synthesis."""

import numpy as np
import pytest

import tfconc as tc
from tfconc.grids import inner_product, tf_shift
from tfconc.oracles import GaborCoefficients, synthesize

from conftest import random_signal


def _index_of(values, x):
    hits = np.nonzero(np.isclose(values, x, atol=1e-12))[0]
    assert len(hits) == 1
    return int(hits[0])


def _coeff_at(coeffs, tau, sigma):
    i = _index_of(coeffs.phase_grid.tau_values, tau)
    j = _index_of(coeffs.phase_grid.sigma_values, sigma)
    return coeffs.values[i, j]


def test_phase_grid_steps():
    g = tc.SampleGrid(64, 0.1)
    pg = tc.PhaseGrid.cover(g, (-1.0, 1.0), (-1.0, 1.0))
    assert pg.dtau == pytest.approx(g.dt)
    assert pg.dsigma == pytest.approx(g.dsigma)
    assert pg.cell_area == pytest.approx(g.dt * g.dsigma)
    assert pg.tau_values[0] <= -1.0 and pg.tau_values[-1] >= 1.0
    assert pg.sigma_values[0] <= -1.0 and pg.sigma_values[-1] >= 1.0


def test_phase_grid_rejects_bad_tau_step():
    g = tc.SampleGrid(64, 0.1)
    with pytest.raises(ValueError):
        tc.PhaseGrid(g, np.array([0.0, 0.15]), np.array([0.0]))


def test_phase_grid_rejects_bad_sigma_step():
    g = tc.SampleGrid(64, 0.1)
    with pytest.raises(ValueError):
        tc.PhaseGrid(g, np.array([0.0]), np.array([0.0, 0.1]))


def test_phase_grid_rejects_misaligned_tau():
    g = tc.SampleGrid(64, 0.1)
    with pytest.raises(tc.DomainError, match="is not an integer multiple of dt"):
        tc.PhaseGrid(g, np.array([0.03]), np.array([0.0]))


def test_phase_grid_rejects_excess_sigma_rows():
    g = tc.SampleGrid(16, 0.25)
    with pytest.raises(ValueError):
        tc.PhaseGrid(g, np.array([0.0]), g.dsigma * np.arange(-9, 9))


def test_full_cover_shape():
    g = tc.SampleGrid(65, 0.1)
    pg = tc.PhaseGrid.full_cover(g)
    assert pg.shape == (65, 65)
    assert pg.tau_values[0] == pytest.approx(-3.2)


def test_shift_indices_consecutive(gauss_grid):
    # the tau step is dt, so row i shifts by the first row's shift plus i
    even = tc.SampleGrid(48, 0.25)
    for pg in (
        tc.PhaseGrid.cover(gauss_grid, (-1.3, 2.1), (-1.0, 1.0)),
        tc.PhaseGrid.cover(gauss_grid, (-9.0, -8.2), (0.0, 0.5)),
        tc.PhaseGrid.full_cover(gauss_grid),
        tc.PhaseGrid.full_cover(even),
    ):
        shifts = pg.shift_indices
        assert shifts.dtype.kind == "i"
        assert shifts.tolist() == [pg.grid.shift_index(t) for t in pg.tau_values]
        assert np.all(np.diff(shifts) == 1)
    for grid, m in ((gauss_grid, 112), (even, 23)):
        assert tc.PhaseGrid.full_cover(grid).shift_indices[[0, -1]].tolist() == [-m, m]


def test_analyze_self_at_origin(gauss_window):
    pg = tc.PhaseGrid.cover(gauss_window.grid, (-0.2, 0.2), (-0.2, 0.2))
    coeffs = tc.analyze(gauss_window.signal, gauss_window, pg)
    assert _coeff_at(coeffs, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_analyze_matches_direct_definition(rng):
    # FFT fast path vs the literal inner-product definition
    g = tc.SampleGrid(32, 0.2)
    w = tc.make_window("gaussian", g)
    f = random_signal(g, rng)
    pg = tc.PhaseGrid.cover(g, (-0.8, 0.8), (-0.8, 0.8))
    coeffs = tc.analyze(f, w, pg)
    for i, tau in enumerate(pg.tau_values):
        for j, sigma in enumerate(pg.sigma_values):
            direct = inner_product(f, tf_shift(w.signal, tau, sigma))
            assert abs(coeffs.values[i, j] - direct) < 1e-10


def test_moyal_identity(gauss_grid, gauss_window, rng):
    pg = tc.PhaseGrid.moyal_cover(gauss_grid)
    for _ in range(5):
        f = random_signal(gauss_grid, rng)
        coeffs = tc.analyze(f, gauss_window, pg)
        assert coeffs.energy == pytest.approx(1.0, abs=1e-6)


def test_fourier_covariance(gauss_grid, gauss_window):
    # S_phi f at (tau, sigma) = S_phihat fhat at (-sigma, tau); phi self-dual
    vals = 2.0**0.25 * np.exp(-np.pi * (gauss_grid.times - 0.3) ** 2)
    f = tc.Signal(gauss_grid, vals * np.exp(0.4j * np.pi * gauss_grid.times))
    fhat = tc.fourier_transform(f)
    pg = tc.PhaseGrid.cover(gauss_grid, (-1.0, 1.0), (-1.0, 1.0))
    c_time = tc.analyze(f, gauss_window, pg)
    c_freq = tc.analyze(tc.Signal(gauss_grid, fhat.samples), gauss_window, pg)
    for tau, sigma in [(0.4, 0.2), (0.0, 0.6), (-0.6, -0.4), (0.2, 0.0)]:
        lhs = _coeff_at(c_time, tau, sigma)
        rhs = _coeff_at(c_freq, -sigma, tau)
        assert abs(lhs - rhs) < 1e-8


def test_analyze_linearity(gauss_grid, gauss_window, rng):
    f = random_signal(gauss_grid, rng)
    h = random_signal(gauss_grid, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    combo = tc.Signal(gauss_grid, a * f.samples + b * h.samples)
    pg = tc.PhaseGrid.cover(gauss_grid, (-1.0, 1.0), (-1.0, 1.0))
    lhs = tc.analyze(combo, gauss_window, pg).values
    rhs = (
        a * tc.analyze(f, gauss_window, pg).values
        + b * tc.analyze(h, gauss_window, pg).values
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pointwise_bound(gauss_grid, gauss_window, rng):
    f = random_signal(gauss_grid, rng)
    pg = tc.PhaseGrid.cover(gauss_grid, (-2.0, 2.0), (-2.0, 2.0))
    coeffs = tc.analyze(f, gauss_window, pg)
    assert np.max(np.abs(coeffs.values)) <= f.norm + 1e-12


def test_analyze_grid_mismatch(gauss_window, rng):
    f = random_signal(tc.SampleGrid(64, 0.1), rng)
    pg = tc.PhaseGrid.cover(gauss_window.grid, (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(tc.DomainError, match="analyze: grids differ"):
        tc.analyze(f, gauss_window, pg)


def test_synthesize_zero(gauss_grid, gauss_window):
    pg = tc.PhaseGrid.cover(gauss_grid, (-1.0, 1.0), (-1.0, 1.0))
    coeffs = GaborCoefficients(pg, np.zeros(pg.shape, dtype=complex))
    out = synthesize(coeffs, gauss_window)
    assert np.all(out.samples == 0)


def test_round_trip(gauss_grid, gauss_window):
    # S* S = identity on well-covered signals
    vals = 2.0**0.25 * np.exp(-np.pi * (gauss_grid.times - 0.2) ** 2)
    f = tc.Signal(gauss_grid, vals.astype(complex))
    pg = tc.PhaseGrid.cover(gauss_grid, (-3.5, 3.5), (-3.5, 3.5))
    back = synthesize(tc.analyze(f, gauss_window, pg), gauss_window)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-6


def test_synthesize_single_coefficient(gauss_grid, gauss_window):
    pg = tc.PhaseGrid.cover(gauss_grid, (-1.0, 1.0), (-1.0, 1.0))
    tau0, sigma0 = 0.4, -0.2
    values = np.zeros(pg.shape, dtype=complex)
    i = _index_of(pg.tau_values, tau0)
    j = _index_of(pg.sigma_values, sigma0)
    values[i, j] = 1.0
    out = synthesize(GaborCoefficients(pg, values), gauss_window)
    expect = pg.cell_area * tf_shift(gauss_window.signal, tau0, sigma0).samples
    assert np.max(np.abs(out.samples - expect)) < 1e-12


def test_adjoint_pairing(gauss_grid, gauss_window, rng):
    # <analyze(f), G>_pg = <f, synthesize(G)>_grid -- exact adjointness
    f = random_signal(gauss_grid, rng)
    pg = tc.PhaseGrid.cover(gauss_grid, (-1.5, 1.5), (-1.5, 1.5))
    gvals = rng.standard_normal(pg.shape) + 1j * rng.standard_normal(pg.shape)
    coeffs = GaborCoefficients(pg, gvals)
    lhs = pg.cell_area * np.sum(tc.analyze(f, gauss_window, pg).values * np.conj(gvals))
    rhs = inner_product(f, synthesize(coeffs, gauss_window))
    assert abs(lhs - rhs) < 1e-10
