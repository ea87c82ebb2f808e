"""Concentration operator: assembly, spectrum, traces, energies, filtering."""

import numpy as np
import pytest
from scipy.special import gammainc

import tfconc as tc
from tfconc import operators
from tfconc.gabor import shifted_rows

from conftest import random_signal


def _empty_op(grid, window):
    pg = tc.PhaseGrid.cover(grid, (-1.0, 1.0), (-1.0, 1.0))
    return tc.assemble(window, tc.rasterize(tc.Rect(0.0, 0.0, 0.0, 1.0), pg))


def test_assemble_empty_region(gauss_grid, gauss_window):
    op = _empty_op(gauss_grid, gauss_window)
    assert np.all(op.matrix == 0)


def test_matrix_exactly_hermitian(gauss_disc_op, tri_disc_op):
    for op in (gauss_disc_op, tri_disc_op):
        assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_fast_path_matches_oracle(rng):
    # N = 48: direct quadrature of the kernel formula vs the FFT assembly
    g = tc.SampleGrid(48, 0.25)
    w = tc.make_window("gaussian", g)
    region = tc.Disc((0.0, 0.0), 1.0)
    fast = tc.assemble(w, region)
    slow = tc.assemble(w, region, oracle=True)
    assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-8


def _dense_reference(window, raster):
    """rows * n**2 assembly: every active row adds a full n x n outer product
    times its difference kernel over all 2n - 1 lags."""
    grid, pg = window.grid, raster.phase_grid
    n = grid.n
    u = grid.dt * np.arange(-(n - 1), n)
    kernels = raster.weights @ np.exp(2j * np.pi * np.outer(pg.sigma_values, u))
    rows = shifted_rows(window.samples, pg.shift_indices)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) + (n - 1)
    out = np.zeros((n, n), dtype=np.complex128)
    for i in np.nonzero(raster.mask.any(axis=1))[0]:
        out += np.outer(rows[i], rows[i].conj()) * kernels[i][idx]
    return 0.5 * (out + out.conj().T)


def _raster(window, region):
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    pg = tc.PhaseGrid.cover(window.grid, (t_lo, t_hi), (s_lo, s_hi))
    return tc.rasterize(region, pg)


@pytest.mark.parametrize(
    "family, region",
    [
        ("gaussian", tc.Disc((0.0, 0.0), 1.5)),
        ("triangle", tc.Disc((0.0, 0.0), 1.0)),
        ("gaussian", tc.Disc((1.2, -0.7), 1.0)),  # off-centre
        ("gaussian", tc.Rect(5.0, 7.0, -1.0, 1.0)),  # rows clipped at the grid edge
        ("triangle", tc.Rect(-7.5, -6.0, 0.0, 2.0)),  # rows clipped at the grid edge
        ("gaussian", tc.Rect(0.0, 0.0, 0.0, 1.0)),  # empty: no active rows
    ],
)
def test_blocked_assembly_matches_dense_reference(
    family, region, gauss_window, tri_window
):
    window = gauss_window if family == "gaussian" else tri_window
    raster = _raster(window, region)
    got = tc.assemble(window, raster).matrix
    want = _dense_reference(window, raster)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()


def test_triangle_zero_outside_support_blocks(tri_window):
    raster = _raster(tri_window, tc.Disc((0.5, 0.0), 1.0))
    matrix = tc.assemble(tri_window, raster).matrix
    n = tri_window.grid.n
    inside = np.zeros((n, n), dtype=bool)
    rows = shifted_rows(tri_window.samples, raster.phase_grid.shift_indices)
    for i in np.nonzero(raster.mask.any(axis=1))[0]:
        support = np.nonzero(rows[i])[0]
        inside[support[0] : support[-1] + 1, support[0] : support[-1] + 1] = True
    assert not inside.all()
    assert np.all(matrix[~inside] == 0)
    assert matrix[inside].any()


def test_fast_path_uses_cell_weights(rng):
    # non-uniform weights: the fast route must weigh each cell as the oracle does
    g = tc.SampleGrid(48, 0.25)
    w = tc.make_window("gaussian", g)
    raster = _raster(w, tc.Disc((0.0, 0.0), 1.0))
    scaled = tc.RasterizedRegion(
        raster.phase_grid, raster.weights * rng.uniform(0.1, 1.0, raster.weights.shape)
    )
    fast = tc.assemble(w, scaled)
    slow = tc.assemble(w, scaled, oracle=True)
    assert np.max(np.abs(fast.matrix - slow.matrix)) < 1e-8
    assert fast.trace == pytest.approx(scaled.area, abs=1e-8)


def test_trace_identity(gauss_disc_op):
    out = tc.trace_identity(gauss_disc_op)
    assert out["gap"] < 1e-8
    assert abs(out["trace"] - out["raster_area"]) < 1e-8
    # raster area tracks the analytic disc area at this resolution
    assert out["raster_area"] == pytest.approx(np.pi * 1.5**2, rel=0.02)


def test_trace_empty(gauss_grid, gauss_window):
    out = tc.trace_identity(_empty_op(gauss_grid, gauss_window))
    assert out["trace"] == 0.0
    assert out["raster_area"] == 0.0


def test_trace_equals_eigenvalue_sum(gauss_disc_op, gauss_disc_spectrum):
    assert gauss_disc_op.trace == pytest.approx(
        float(np.sum(gauss_disc_spectrum.eigenvalues)), abs=1e-8
    )


def test_eigenvalue_bounds(gauss_disc_spectrum, tri_disc_spectrum):
    for spec in (gauss_disc_spectrum, tri_disc_spectrum):
        assert spec.eigenvalues[0] <= 1.0 + 1e-8
        assert spec.eigenvalues[-1] >= -1e-8
        assert np.all(np.diff(spec.eigenvalues) <= 1e-15)  # descending


def test_eigenfunction_orthonormality(gauss_disc_spectrum):
    for k in range(6):
        for l in range(6):
            ip = tc.inner_product(
                gauss_disc_spectrum.eigenfunction(k),
                gauss_disc_spectrum.eigenfunction(l),
            )
            assert abs(ip - (1.0 if k == l else 0.0)) < 1e-8


def test_eigen_residuals(gauss_disc_op, gauss_disc_spectrum):
    a = gauss_disc_op.grid.dt * gauss_disc_op.matrix
    for k, lam in enumerate(gauss_disc_spectrum.eigenvalues[:20]):
        if lam <= 1e-6:
            break
        v = gauss_disc_spectrum.eigenfunctions[:, k]
        resid = a @ v - lam * v
        assert np.sqrt(gauss_disc_op.grid.dt * np.sum(np.abs(resid) ** 2)) < 1e-8


def test_empty_spectrum(gauss_grid, gauss_window):
    spec = tc.eigendecompose(_empty_op(gauss_grid, gauss_window))
    assert np.max(np.abs(spec.eigenvalues)) < 1e-12


def test_large_box_top_eigenvalue(gauss_grid, gauss_window):
    # box capturing all but ~e^{-9 pi} of the ambiguity mass
    op = tc.assemble(gauss_window, tc.Rect(-3.0, 3.0, -3.0, 3.0))
    spec = tc.eigendecompose(op)
    assert spec.eigenvalues[0] >= 0.999


def test_daubechies_closed_form(gauss_disc_spectrum):
    # Gaussian window, centered disc radius R: lambda_n = P(n+1, pi R^2),
    # the regularized incomplete gamma function, each eigenvalue simple
    expect = gammainc(np.arange(1, 9), np.pi * 1.5**2)
    got = gauss_disc_spectrum.eigenvalues[:8]
    assert np.max(np.abs(got - expect)) < 5e-3


@pytest.mark.parametrize("vectors", [True, False])
def test_spectrum_checks_shared_by_both_routes(gauss_disc_op, vectors):
    skew = gauss_disc_op.matrix.copy()
    skew[0, 1] += 1.0
    too_big = 2.0 * gauss_disc_op.matrix  # top eigenvalue near 2
    for matrix in (skew, too_big):
        op = tc.ConcentrationOperator(gauss_disc_op.window, gauss_disc_op.raster, matrix)
        with pytest.raises(tc.NumericalError):
            operators._checked_eigh(op, vectors=vectors)


def test_eigenvalues_only_route_matches(gauss_disc_op, gauss_disc_spectrum):
    vals, vecs = operators._checked_eigh(gauss_disc_op, vectors=False)
    assert vecs is None
    assert np.max(np.abs(vals - gauss_disc_spectrum.eigenvalues)) < 1e-12


def test_counting_semantics():
    vals = np.array([0.99, 0.8, 0.3, 0.01])
    assert tc.count(vals, 0.5) == 2
    assert tc.count(vals, 0.992) == 0
    assert tc.count(vals, 0.8) == 2  # closed
    assert tc.count(vals, 0.01, 0.8) == 3
    assert tc.count(vals, 0.1, 0.5) == 1
    # clamped to [0, 1] first: solver overshoot above 1 still counts at hi = 1
    assert tc.count(np.array([1.0 + 1e-9, 0.5, -1e-9]), 0.4) == 2


def test_counting_domain_errors():
    vals = np.array([0.5])
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(tc.DomainError):
            tc.count(vals, bad)
    with pytest.raises(tc.DomainError):
        tc.count(vals, 0.9, 0.1)
    with pytest.raises(tc.DomainError):
        tc.count(vals, 0.5, 1.2)


def test_counting_scan_oracle(rng):
    for _ in range(10):
        vals = rng.uniform(-0.05, 1.05, size=40)
        clamped = np.clip(vals, 0.0, 1.0)
        for lam in (0.1, 0.5, 0.9):
            assert tc.count(vals, lam) == int(sum(1 for v in clamped if v >= lam))
            assert tc.count(vals, lam, 0.95) == int(
                sum(1 for v in clamped if lam <= v <= 0.95)
            )


def test_hs_identity(gauss_disc_spectrum):
    out = tc.hs_identity(gauss_disc_spectrum)
    lam = gauss_disc_spectrum.clamped
    assert out["sum_sq"] == pytest.approx(float(np.sum(lam**2)), rel=1e-10)
    assert out["sum_sq"] <= float(np.sum(lam)) + 1e-12
    assert out["rel_gap"] < 0.01


def test_hs_identity_empty(gauss_grid, gauss_window):
    spec = tc.eigendecompose(_empty_op(gauss_grid, gauss_window))
    out = tc.hs_identity(spec)
    assert out["sum_sq"] == pytest.approx(0.0, abs=1e-12)
    assert out["double_integral"] == pytest.approx(0.0, abs=1e-12)


def test_energy_empty(gauss_grid, gauss_window, rng):
    op = _empty_op(gauss_grid, gauss_window)
    f = random_signal(gauss_grid, rng)
    assert tc.energy(f, gauss_window, op.raster) == 0.0


def test_energy_of_top_eigenfunction(gauss_disc_op, gauss_disc_spectrum, gauss_window):
    psi1 = gauss_disc_spectrum.eigenfunction(0)
    e = tc.energy(psi1, gauss_window, gauss_disc_op.raster)
    assert e == pytest.approx(gauss_disc_spectrum.eigenvalues[0], abs=1e-6)


def test_energy_bounded(gauss_disc_op, gauss_window, rng):
    for _ in range(15):
        f = random_signal(gauss_disc_op.grid, rng)
        e = tc.energy(f, gauss_window, gauss_disc_op.raster)
        assert 0.0 <= e <= 1.0 + 1e-8


def test_eigenfilter_full_rank(gauss_grid, gauss_disc_spectrum, rng):
    f = random_signal(gauss_grid, rng)
    out = tc.eigenfilter(f, gauss_disc_spectrum, gauss_grid.n)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-8


def test_eigenfilter_orthogonality(gauss_disc_spectrum):
    psi2 = gauss_disc_spectrum.eigenfunction(1)
    out = tc.eigenfilter(psi2, gauss_disc_spectrum, 1)
    assert np.max(np.abs(out.samples)) < 1e-8


def test_eigenfilter_idempotent(gauss_grid, gauss_disc_spectrum, rng):
    f = random_signal(gauss_grid, rng)
    once = tc.eigenfilter(f, gauss_disc_spectrum, 5)
    twice = tc.eigenfilter(once, gauss_disc_spectrum, 5)
    assert np.max(np.abs(twice.samples - once.samples)) < 1e-10


def test_eigenfilter_rank_validation(gauss_grid, gauss_disc_spectrum, rng):
    f = random_signal(gauss_grid, rng)
    with pytest.raises(tc.DomainError):
        tc.eigenfilter(f, gauss_disc_spectrum, 0)
    with pytest.raises(tc.DomainError):
        tc.eigenfilter(f, gauss_disc_spectrum, gauss_grid.n + 1)


def test_phase_space_side_spectrum():
    # the cell-side Gram matrix has the same nonzero eigenvalues
    g = tc.SampleGrid(48, 0.25)
    w = tc.make_window("gaussian", g)
    op = tc.assemble(w, tc.Disc((0.0, 0.0), 1.0))
    signal_side = tc.eigendecompose(op).eigenvalues
    cell_side = tc.phase_space_eigenvalues(op)
    keep = signal_side > 1e-6
    m = int(np.sum(keep))
    assert m > 0
    assert np.max(np.abs(signal_side[keep] - cell_side[:m])) < 1e-6


def test_phase_side_oracles_use_cell_weights(rng):
    # non-uniform weights: both phase-side routes weigh each cell as assembly does
    g = tc.SampleGrid(48, 0.25)
    w = tc.make_window("gaussian", g)
    raster = _raster(w, tc.Disc((0.0, 0.0), 1.0))
    scaled = tc.RasterizedRegion(
        raster.phase_grid, raster.weights * rng.uniform(0.2, 1.0, raster.weights.shape)
    )
    spectrum = tc.eigendecompose(tc.assemble(w, scaled))
    signal_side = spectrum.eigenvalues
    cell_side = tc.phase_space_eigenvalues(spectrum.operator)
    keep = signal_side > 1e-6
    m = int(np.sum(keep))
    assert m > 0
    assert np.max(np.abs(signal_side[keep] - cell_side[:m])) < 1e-10
    b = tc.phase_space_matrix(spectrum.operator)
    sum_sq = float(np.sum(signal_side**2))
    assert float(np.sum(np.abs(b) ** 2)) == pytest.approx(sum_sq, rel=1e-10)
    out = tc.hs_identity(spectrum)
    assert out["rel_gap"] < 1e-10


def test_assemble_region_exceeds_grid(gauss_window):
    with pytest.raises(tc.CoverageError):
        tc.assemble(gauss_window, tc.Disc((0.0, 0.0), 8.0))


def test_phase_space_matrix_cell_cap(gauss_window, monkeypatch):
    # full cover: 225 x 225 cells, far past the cap; must fail before any work
    pg = tc.PhaseGrid.full_cover(gauss_window.grid)
    raster = tc.RasterizedRegion(pg, np.full(pg.shape, pg.cell_area))
    n = gauss_window.grid.n
    op = tc.ConcentrationOperator(gauss_window, raster, np.zeros((n, n)))

    def no_table(*args, **kwargs):
        raise AssertionError("ambiguity table built before the size guard")

    monkeypatch.setattr(operators, "ambiguity_table", no_table)
    with pytest.raises(tc.CoverageError, match="cells"):
        tc.phase_space_matrix(op)
    with pytest.raises(tc.CoverageError):
        tc.phase_space_eigenvalues(op)
