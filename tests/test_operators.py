"""Concentration operator: assembly, spectrum, traces, energies, filtering."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

import tfconc as tc
from tfconc import operators
from tfconc.decay import _clusters
from tfconc.gabor import shifted_rows

from conftest import chirped, random_signal


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


@dataclass(frozen=True)
class _Reweighted:
    """``region`` rasterized as usual, its cell weights then scaled by U(0.1, 1)."""

    region: tc.Region
    seed: int = 99


@dataclass(frozen=True)
class _FullPeriod:
    """``region`` rasterized on sigma rows spanning one whole FFT period of an
    even-n grid: bins ``-n/2 .. n/2 - 1``, one more row at the Nyquist band
    below than above, so the sigma values are not mirrored about 0."""

    region: tc.Region


def _raster(window, region):
    if isinstance(region, _FullPeriod):
        grid = window.grid
        t_lo, t_hi, _, _ = region.region.bounding_box()
        taus = tc.PhaseGrid.cover(grid, (t_lo, t_hi), (0.0, 0.0)).tau_values
        bins = np.arange(-(grid.n // 2), grid.n - grid.n // 2)
        return tc.rasterize(region.region, tc.PhaseGrid(grid, taus, grid.dsigma * bins))
    if isinstance(region, _Reweighted):
        raster = _raster(window, region.region)
        rng = np.random.default_rng(region.seed)
        scale = rng.uniform(0.1, 1.0, raster.weights.shape)
        return tc.RasterizedRegion(raster.phase_grid, raster.weights * scale)
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    pg = tc.PhaseGrid.cover(window.grid, (t_lo, t_hi), (s_lo, s_hi))
    return tc.rasterize(region, pg)


def _fourier_twin(window):
    """The raw unit-norm transform of ``window``, FFT rounding and all: every
    sample stays above the support cut, so the support is the whole grid.
    ``fourier_side_check`` assembles a cleaned form instead (rounding cut to
    exact zeros, an even real window's transform made exactly even and
    real); the tests that need a full-width window keep this raw one."""
    hat = tc.fourier_transform(window.signal)
    return tc.Window(tc.Signal(hat.grid, hat.samples / hat.norm), "custom", None)


def _two_blobs():
    """Two cell blobs at |tau| in [1.75, 2.75]: the active shift rows have a
    3.5-wide gap, wider than the triangle window's support."""
    taus = np.arange(-3.0, 3.01, 0.25)
    sigmas = np.arange(-1.0, 1.01, 0.25)
    inside = (np.abs(np.abs(taus)[:, None] - 2.25) <= 0.5) & (np.abs(sigmas) <= 0.5)
    return tc.Mask(taus, sigmas, inside)


@pytest.mark.parametrize(
    "family, region",
    [
        ("gaussian", tc.Disc((0.0, 0.0), 1.5)),
        ("triangle", tc.Disc((0.0, 0.0), 1.0)),
        ("gaussian", tc.Disc((1.2, -0.7), 1.0)),  # off-centre
        ("gaussian", tc.Rect(5.0, 7.0, -1.0, 1.0)),  # rows clipped at the grid edge
        ("triangle", tc.Rect(-7.5, -6.0, 0.0, 2.0)),  # rows clipped at the grid edge
        ("gaussian", tc.Rect(0.0, 0.0, 0.0, 1.0)),  # empty: no active rows
        ("gaussian", _two_blobs()),  # inactive rows between active ones
        ("triangle", _two_blobs()),
        ("gaussian", _Reweighted(tc.Disc((0.3, 0.2), 1.2))),  # non-uniform weights
        ("triangle", _Reweighted(tc.Rect(-1.0, 0.5, -1.5, 1.0))),
        ("fourier", tc.Disc((0.4, -0.3), 1.2)),  # full-support window: width = n
        ("chirp", tc.Disc((0.4, -0.3), 1.2)),  # complex window samples
        # wider than the grid in tau: rows clip at both edges, the outermost
        # rows' windows miss the grid entirely
        ("gaussian", tc.Rect(-11.5, 11.5, -0.5, 0.5)),
        # the sweep's r = 2 operator (dt of its r = 8 grid): n = 213, width
        # 149 > n / 2, on the real (cosine) row-kernel table
        ("sweep", tc.Disc((0.0, 0.0), 2.0)),
        # a sigma grid with an odd excess at the Nyquist band, weighted in
        # every row: the complex (root-of-unity) row-kernel table
        ("even n", _Reweighted(_FullPeriod(tc.Rect(-1.0, 1.0, -2.02, 1.95)))),
    ],
)
def test_blocked_assembly_matches_dense_reference(
    family, region, gauss_window, tri_window
):
    if family == "fourier":
        window = _fourier_twin(gauss_window)
        # its FFT rounding tail keeps every sample above the support cut
        cut = operators._SUPPORT_TOL * np.abs(window.samples).max()
        assert np.all(np.abs(window.samples) > cut)
    elif family == "chirp":
        window = chirped(gauss_window)
    elif family == "sweep":
        dt = tc.auto_grid("gaussian", tc.Disc((0.0, 0.0), 8.0)).dt
        window = tc.make_window("gaussian", tc.auto_grid("gaussian", region, dt=dt))
    elif family == "even n":
        window = tc.make_window("gaussian", tc.SampleGrid(64, 0.25))
    else:
        window = gauss_window if family == "gaussian" else tri_window
    raster = _raster(window, region)
    got = tc.assemble(window, raster).matrix
    want = _dense_reference(window, raster)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()
    if family in ("sweep", "even n"):
        # the row-kernel table's exponents run past one period, so its
        # lookup wraps: mod 2n on the real table, mod n on the complex one
        n, m = window.grid.n, raster.weights.shape[1]
        s = np.abs(window.samples)
        kept = np.nonzero(s > operators._SUPPORT_TOL * s.max())[0]
        width = kept[-1] + 1 - kept[0]
        real = family == "sweep"
        assert got.dtype == (np.float64 if real else np.complex128)
        assert (m - 1) * (width - 1) >= (2 * n if real else n)
        if real:
            assert (n, width) == (213, 149)
        else:
            assert m == n and raster.weights[:, 0].any()


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


def test_zero_outside_support_blocks_across_row_gap(tri_window):
    # the band between the two blobs' blocks, and the cross blocks, stay exact zeros
    raster = _raster(tri_window, _two_blobs())
    matrix = tc.assemble(tri_window, raster).matrix
    n = tri_window.grid.n
    inside = np.zeros((n, n), dtype=bool)
    rows = shifted_rows(tri_window.samples, raster.phase_grid.shift_indices)
    active = np.nonzero(raster.mask.any(axis=1))[0]
    assert len(active) < active[-1] - active[0] + 1  # the active rows have a gap
    for i in active:
        support = np.nonzero(rows[i])[0]
        inside[support[0] : support[-1] + 1, support[0] : support[-1] + 1] = True
    band = np.nonzero(np.diagonal(inside))[0]
    assert not np.diagonal(inside)[band[0] : band[-1] + 1].all()  # a gap in the band
    assert np.all(matrix[~inside] == 0)
    assert matrix[inside].any()


def _auto_op(family, spec):
    region = tc.parse_region(spec)
    return tc.assemble(tc.make_window(family, tc.auto_grid(family, region)), region)


def test_real_matrix_for_mirror_symmetric_operators(
    gauss_disc_op, tri_disc_op, gauss_window
):
    centred_rect = tc.assemble(gauss_window, tc.Rect(-1.5, 0.5, -1.0, 1.0))
    tau_offset = _auto_op("gaussian", "disc 1.5 0 6")  # still mirrored in sigma
    for op in (gauss_disc_op, tri_disc_op, centred_rect, tau_offset):
        assert op.matrix.dtype == np.float64
        assert np.array_equal(op.matrix, op.matrix.T)


def test_complex_matrix_otherwise(gauss_window):
    sigma_offset = _auto_op("gaussian", "disc 0 1.5 6")
    chirp = tc.assemble(chirped(gauss_window), tc.Disc((0.0, 0.0), 1.5))
    reweighted = _raster(gauss_window, _Reweighted(tc.Disc((0.0, 0.0), 1.5)))
    unmirrored = tc.assemble(gauss_window, reweighted)
    # mirrored weights on a sigma grid that is not symmetric about 0
    centred = _raster(gauss_window, tc.Disc((0.0, 0.0), 1.5))
    pg = centred.phase_grid
    up = tc.PhaseGrid(pg.grid, pg.tau_values, pg.sigma_values + 3 * pg.dsigma)
    shifted = tc.assemble(gauss_window, tc.RasterizedRegion(up, centred.weights))
    for op in (sigma_offset, chirp, unmirrored, shifted):
        assert op.matrix.dtype == np.complex128
        assert np.abs(op.matrix.imag).max() > 1e-3 * np.abs(op.matrix).max()


def _mirrored_polygon(taus, heights):
    """The polygon over the sorted ``taus`` (in eighths) whose upper chain has
    the given ``heights`` (in eighths) and whose lower chain mirrors it."""
    taus = np.sort(taus) / 8
    upper = np.column_stack([taus, np.asarray(heights) / 8])
    lower = upper[::-1] * [1.0, -1.0]
    return tc.Polygon(np.vstack([upper, lower]))


def _mirrored_regions():
    """Regions mirror-symmetric about sigma = 0 that fit the 48-point grid of
    step 0.25: rects centred in sigma, discs offset in tau only, and polygons
    whose lower chain mirrors the upper one, all on a 1/8 lattice."""
    eighths = st.integers(-20, 20).map(lambda i: i / 8)
    size = st.integers(1, 12).map(lambda i: i / 8)
    rect = st.builds(
        lambda t0, t1, h: tc.Rect(min(t0, t1), max(t0, t1), -h, h), eighths, eighths, size
    )
    disc = st.builds(lambda cx, r: tc.Disc((cx, 0.0), r), eighths, size)
    poly = st.lists(st.integers(-20, 20), min_size=2, max_size=5, unique=True).flatmap(
        lambda taus: st.builds(
            _mirrored_polygon,
            st.just(taus),
            st.lists(st.integers(1, 12), min_size=len(taus), max_size=len(taus)),
        )
    )
    return st.one_of(rect, disc, poly)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(family=st.sampled_from(["gaussian", "triangle"]), region=_mirrored_regions())
def test_mirrored_regions_assemble_real(family, region):
    window = tc.make_window(family, tc.SampleGrid(48, 0.25))
    raster = _raster(window, region)
    assert np.array_equal(raster.weights, raster.weights[:, ::-1])
    fast = tc.assemble(window, raster)
    slow = tc.assemble(window, raster, oracle=True)
    assert fast.matrix.dtype == np.float64
    gap = np.abs(fast.matrix - slow.matrix).max()
    assert gap <= 1e-13 * np.abs(slow.matrix).max(initial=0.0)
    assert fast.trace == pytest.approx(raster.area, rel=1e-13, abs=1e-13)
    vals = tc.eigendecompose(fast, vectors=0).eigenvalues
    assert -1e-12 <= vals[-1] and vals[0] <= 1.0 + 1e-12


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


@pytest.mark.parametrize("vectors", [None, 0])
def test_spectrum_checks_shared_by_both_routes(gauss_disc_op, vectors):
    skew = gauss_disc_op.matrix.copy()
    skew[0, 1] += 1.0
    too_big = 2.0 * gauss_disc_op.matrix  # top eigenvalue near 2
    for matrix in (skew, too_big):
        op = tc.ConcentrationOperator(gauss_disc_op.window, gauss_disc_op.raster, matrix)
        with pytest.raises(tc.NumericalError):
            tc.eigendecompose(op, vectors=vectors)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_check_equality_then_tolerance(gauss_disc_op, dtype):
    # an exactly Hermitian matrix passes on equality; a rounding-sized skew
    # fails equality and passes the tolerance; a larger skew raises
    base = gauss_disc_op.matrix.astype(dtype)
    assert operators._exactly_hermitian(base)
    assert operators._peak(base) == np.abs(base).max()
    unit = 1j if np.iscomplexobj(base) else 1.0
    for bump, passes in ((1e-15, True), (1e-6, False)):
        matrix = base.copy()
        matrix[0, 1] += bump * unit
        assert not operators._exactly_hermitian(matrix)
        op = tc.ConcentrationOperator(gauss_disc_op.window, gauss_disc_op.raster, matrix)
        if passes:
            assert tc.eigendecompose(op, vectors=2).eigenvalues[0] <= 1.0 + 1e-8
        else:
            with pytest.raises(tc.NumericalError, match="Hermitian"):
                tc.eigendecompose(op, vectors=2)


def test_eigenvalues_only_route_matches(gauss_disc_op, gauss_disc_spectrum):
    spec = tc.eigendecompose(gauss_disc_op, vectors=0)
    assert spec.eigenfunctions.shape == (gauss_disc_op.grid.n, 0)
    assert np.max(np.abs(spec.eigenvalues - gauss_disc_spectrum.eigenvalues)) < 1e-12


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


def test_hs_identity_catches_small_weight_fault(gauss_disc_spectrum):
    # one cell weighed 1% heavier in the raster than in the assembled matrix:
    # a relative gap of about 1.6e-5, far under 1% but far over rounding
    op = gauss_disc_spectrum.operator
    weights = op.raster.weights.copy()
    cells = np.argwhere(weights > 0)
    i, j = cells[len(cells) // 2]
    weights[i, j] *= 1.01
    faulty = tc.ConcentrationOperator(
        op.window, tc.RasterizedRegion(op.phase_grid, weights), op.matrix
    )
    spectrum = tc.Spectrum(
        faulty, gauss_disc_spectrum.eigenvalues, gauss_disc_spectrum.eigenfunctions
    )
    with pytest.raises(tc.NumericalError, match="Hilbert-Schmidt"):
        tc.hs_identity(spectrum)


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


def test_oversized_grid_refused_before_any_array(monkeypatch):
    # the budget covers the n x n complex matrix and the eigensolver's copy
    n_max = math.isqrt(operators._MATRIX_BUDGET // (2 * 16))
    operators._require_matrix_budget(n_max)
    operators._require_matrix_budget(2048)  # the auto-grid cap fits
    n = n_max + 1
    window = tc.make_window("gaussian", tc.SampleGrid(n, 0.01))

    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the matrix budget check")

    for name in ("rasterize", "_assemble_fast", "_assemble_oracle"):
        monkeypatch.setattr(operators, name, forbidden)
    raster = tc.RasterizedRegion(
        tc.PhaseGrid(window.grid, [0.0], [0.0]), np.ones((1, 1))
    )
    for region in (tc.Disc((0.0, 0.0), 1.0), raster):
        for oracle in (False, True):
            with pytest.raises(tc.CoverageError) as err:
                tc.assemble(window, region, oracle=oracle)
            assert f"n={n} " in str(err.value)
            assert f"{2 * 16 * n * n} bytes" in str(err.value)


def _tiny_op(n, eigenvalues, rng):
    """An operator of ``n <= 3`` samples with the given spectrum: too small a
    grid for any window's support, so the matrix is set directly."""
    grid = tc.SampleGrid(n, 0.5)
    window = tc.Window(tc.Signal(grid, np.ones(n, dtype=complex)), "custom", None)
    raster = tc.RasterizedRegion(tc.PhaseGrid(grid, [0.0], [0.0]), np.zeros((1, 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(z)
    a = (q * eigenvalues) @ q.conj().T
    return tc.ConcentrationOperator(window, raster, 0.5 * (a + a.conj().T) / grid.dt)


@pytest.fixture(scope="module")
def oracle_ops(gauss_grid, gauss_window, tri_disc_op):
    rng = np.random.default_rng(7)
    gaussian = tc.assemble(gauss_window, tc.Disc((0.0, 0.0), 3.0))
    return {
        "gaussian": gaussian,
        # the same matrix stored as complex128, for the complex LAPACK chain
        "gaussian as complex": tc.ConcentrationOperator(
            gaussian.window, gaussian.raster, gaussian.matrix.astype(complex)
        ),
        "triangle": tri_disc_op,
        "tau-offset": tc.assemble(gauss_window, tc.Disc((0.7, 0.0), 2.5)),
        "off-centre": tc.assemble(gauss_window, tc.Disc((0.7, -0.4), 2.5)),
        "chirp": tc.assemble(chirped(gauss_window), tc.Disc((0.4, -0.3), 2.5)),
        "empty": _empty_op(gauss_grid, gauss_window),
        "n=2": _tiny_op(2, [0.8, 0.3], rng),
        "n=3": _tiny_op(3, [0.9, 0.9, 0.1], rng),
    }


_REAL_CASES = {"gaussian", "triangle", "tau-offset", "empty"}


@pytest.mark.parametrize(
    "case",
    [
        "gaussian",
        "gaussian as complex",
        "triangle",
        "tau-offset",
        "off-centre",
        "chirp",
        "empty",
        "n=2",
        "n=3",
    ],
)
def test_leading_vectors_match_full_eigh(oracle_ops, case):
    # np.linalg.eigh on the same matrix is the oracle; k runs over none, one,
    # a cut inside the leading cluster, the whole leading cluster, and all,
    # on the real LAPACK chain (float64 matrices) and the complex one
    op = oracle_ops[case]
    dtype = np.float64 if case in _REAL_CASES else np.complex128
    assert op.matrix.dtype == dtype
    n, dt = op.grid.n, op.grid.dt
    a = dt * op.matrix
    ref_vals, ref_vecs = np.linalg.eigh(a)
    ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
    first = _clusters(ref_vals, 1, floor=-1.0)[0]
    cuts = {0, 1, first.stop, n}
    if len(first) > 1:
        cuts.add(first.start + len(first) // 2)
    assert len(cuts) >= 3
    for k in sorted(cuts):
        spec = tc.eigendecompose(op, vectors=k)
        assert np.max(np.abs(spec.eigenvalues - ref_vals)) < 1e-12
        v = np.sqrt(dt) * spec.eigenfunctions
        assert v.shape == (n, k) and v.dtype == dtype
        resid = a @ v - v * spec.eigenvalues[:k]
        assert np.max(np.linalg.norm(resid, axis=0), initial=0.0) < 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(k)), initial=0.0) < 1e-12
        at_boundary = k == n or ref_vals[k - 1] - ref_vals[k] >= 1e-6
        if k and at_boundary:
            cosines = np.linalg.svd(ref_vecs[:, :k].conj().T @ v, compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-10, (case, k)


def test_real_chain_matches_complex_chain(oracle_ops):
    # the same real symmetric matrix through dsytrd/dormqr and through
    # zhetrd/zunmqr: equal spectra, both eigenbases exact, equal spans
    # wherever a cut leaves every cluster whole
    real = oracle_ops["gaussian"]
    twin = oracle_ops["gaussian as complex"]
    n, dt = real.grid.n, real.grid.dt
    a = dt * real.matrix
    vals = tc.eigendecompose(real, vectors=0).eigenvalues
    first = _clusters(vals, 1, floor=-1.0)[0]
    assert len(first) > 1
    for k in (0, 1, first.start + len(first) // 2, first.stop, n):
        ours = tc.eigendecompose(real, vectors=k)
        theirs = tc.eigendecompose(twin, vectors=k)
        assert ours.eigenfunctions.dtype == np.float64
        assert theirs.eigenfunctions.dtype == np.complex128
        assert np.max(np.abs(ours.eigenvalues - theirs.eigenvalues)) < 1e-13
        spans = []
        for spec in (ours, theirs):
            v = np.sqrt(dt) * spec.eigenfunctions
            resid = a @ v - v * spec.eigenvalues[:k]
            assert np.max(np.linalg.norm(resid, axis=0), initial=0.0) <= 1e-12
            spans.append(v)
        if k and (k == n or vals[k - 1] - vals[k] >= 1e-6):
            cosines = np.linalg.svd(spans[0].T @ spans[1], compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-10, k


def _parity_basis(n):
    """Columns ``(e_a + e_{n-1-a}) / sqrt(2)`` (and ``e_{n//2}`` for odd ``n``),
    then ``(e_a - e_{n-1-a}) / sqrt(2)``: the even, then the odd half."""
    h = n // 2
    eye = np.eye(n)
    even = [(eye[a] + eye[n - 1 - a]) / np.sqrt(2) for a in range(h)]
    odd = [(eye[a] - eye[n - 1 - a]) / np.sqrt(2) for a in range(h)]
    return np.column_stack(even + ([eye[h]] if n % 2 else []) + odd)


def _centro_tiny_op(even_vals, odd_vals, rng):
    """A complex operator of ``n <= 5`` samples that commutes with the
    reversal, with the given even and odd spectra: a random unitary in each
    half of the parity basis."""
    m, h = len(even_vals), len(odd_vals)
    op = _tiny_op(m + h, np.zeros(m + h), rng)
    q = np.zeros((m + h, m + h), dtype=complex)
    for block, size in ((slice(0, m), m), (slice(m, m + h), h)):
        z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        q[block, block] = np.linalg.qr(z)[0]
    q = _parity_basis(m + h) @ q
    a = (q * np.concatenate([even_vals, odd_vals])) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    return dataclasses.replace(op, matrix=a / op.grid.dt)


def _parallelogram():
    """Symmetric under (tau, sigma) -> (-tau, -sigma) but not mirrored in sigma."""
    return tc.Polygon([(-1.5, -0.5), (0.5, -1.0), (1.5, 0.5), (-0.5, 1.0)])


@pytest.fixture(scope="module")
def split_ops(gauss_window, tri_disc_op, oracle_ops):
    rng = np.random.default_rng(11)
    even_grid = tc.make_window("gaussian", tc.SampleGrid(48, 0.25))
    return {
        "gaussian": oracle_ops["gaussian"],
        "triangle": tri_disc_op,
        "parallelogram": tc.assemble(gauss_window, _parallelogram()),
        "chirp": tc.assemble(chirped(gauss_window), tc.Disc((0.0, 0.0), 2.5)),
        "even n": tc.assemble(even_grid, tc.Disc((0.0, 0.0), 1.5)),
        # a cluster shared by both halves; 1 x 1 blocks
        "n=2": _centro_tiny_op([0.8], [0.3], rng),
        "n=3": _centro_tiny_op([0.9, 0.1], [0.9], rng),
        "n=5": _centro_tiny_op([0.95, 0.95, 0.1], [0.95, 0.4], rng),
        "tau-offset": oracle_ops["tau-offset"],
    }


_SPLIT_DTYPES = {
    "gaussian": np.float64,
    "triangle": np.float64,
    "parallelogram": np.complex128,
    "chirp": np.complex128,
    "even n": np.float64,
    "n=2": np.complex128,
    "n=3": np.complex128,
    "n=5": np.complex128,
    "tau-offset": np.float64,
}


def test_centrosymmetric_rule_is_exact(gauss_window, tri_window):
    # each condition of the rule refuses on its own: the window samples, the
    # tau values, the sigma values and the weights
    centred = _raster(gauss_window, tc.Disc((0.0, 0.0), 1.5))
    pg = centred.phase_grid
    t = gauss_window.grid.times
    tilted = tc.Window(
        tc.Signal(gauss_window.grid, gauss_window.samples * (1 + 0.1 * t)), "custom"
    )
    up = tc.PhaseGrid(pg.grid, pg.tau_values, pg.sigma_values + 3 * pg.dsigma)
    late = tc.PhaseGrid(pg.grid, pg.tau_values + 2 * pg.dtau, pg.sigma_values)
    reweighted = _raster(gauss_window, _Reweighted(tc.Disc((0.0, 0.0), 1.5)))
    twin = _fourier_twin(gauss_window)
    rule = operators._centrosymmetric
    assert rule(gauss_window, centred)
    assert rule(tri_window, _raster(tri_window, tc.Disc((0.0, 0.0), 1.0)))
    assert rule(chirped(gauss_window), centred)
    assert not rule(tilted, centred)
    assert not rule(gauss_window, tc.RasterizedRegion(up, centred.weights))
    assert not rule(gauss_window, tc.RasterizedRegion(late, centred.weights))
    assert not rule(gauss_window, reweighted)
    # the transformed window is even only up to FFT rounding
    assert np.max(np.abs(twin.samples - twin.samples[::-1])) < 1e-12
    assert not rule(twin, centred)


@pytest.mark.parametrize("case", list(_SPLIT_DTYPES))
def test_parity_split_matches_full_eigh(split_ops, case, monkeypatch):
    # the even/odd blocks against np.linalg.eigh on the whole matrix, for k
    # over none, one, a cut inside the leading cluster, its end, and all
    op = split_ops[case]
    split = case != "tau-offset"
    assert op.matrix.dtype == _SPLIT_DTYPES[case]
    assert operators._centrosymmetric(op.window, op.raster) is split
    fold, folded = operators._parity_blocks, []

    def spy(*args):
        folded.append(fold(*args))
        return folded[-1]

    monkeypatch.setattr(operators, "_parity_blocks", spy)

    n, dt = op.grid.n, op.grid.dt
    a = dt * op.matrix
    ref_vals, ref_vecs = np.linalg.eigh(a)
    ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
    first = _clusters(ref_vals, 1, floor=-1.0)[0]
    cuts = {0, 1, first.stop, n}
    if len(first) > 1:
        cuts.add(first.start + len(first) // 2)
    assert len(cuts) >= 3
    for k in sorted(cuts):
        spec = tc.eigendecompose(op, vectors=k)
        assert np.max(np.abs(spec.eigenvalues - ref_vals)) < 1e-13
        v = np.sqrt(dt) * spec.eigenfunctions
        assert v.shape == (n, k) and v.dtype == op.matrix.dtype
        resid = a @ v - v * spec.eigenvalues[:k]
        assert np.max(np.linalg.norm(resid, axis=0), initial=0.0) <= 1e-12
        assert np.max(np.abs(v.conj().T @ v - np.eye(k)), initial=0.0) < 1e-12
        if split:
            for col in v.T:
                assert np.array_equal(col, col[::-1]) or np.array_equal(col, -col[::-1])
        at_boundary = k == n or ref_vals[k - 1] - ref_vals[k] >= 1e-6
        if k and at_boundary:
            cosines = np.linalg.svd(ref_vecs[:, :k].conj().T @ v, compute_uv=False)
            assert cosines.min() >= 1.0 - 1e-10, (case, k)
    # the blocks were folded (not refused as coupled) exactly when split
    assert len(folded) == (len(cuts) if split else 0)
    assert all(blocks is not None for blocks in folded)


def test_coupled_halves_take_one_block(oracle_ops):
    # a matrix that does not commute with the reversal, on a window and a
    # raster that pass the rule: the halves couple, so no fold
    op = oracle_ops["n=3"]
    assert operators._centrosymmetric(op.window, op.raster)
    dtype = op.matrix.dtype
    assert operators._parity_blocks(op.matrix, op.grid.dt, 1e-12, dtype) is None
    spec = tc.eigendecompose(op)
    ref = np.linalg.eigvalsh(op.grid.dt * op.matrix)[::-1]
    assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-13


def _centrosymmetric_regions():
    """Regions symmetric under (tau, sigma) -> (-tau, -sigma) on a 1/8
    lattice that fit a 48-point grid of step 0.25: centred rects and discs,
    and parallelograms with corners p, q, -p, -q (complex operators)."""
    size = st.integers(1, 12).map(lambda i: i / 8)
    rect = st.builds(lambda a, b: tc.Rect(-a, a, -b, b), size, size)
    disc = st.builds(lambda r: tc.Disc((0.0, 0.0), r), size)
    corner = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
    poly = (
        st.tuples(corner, corner)
        .filter(lambda pq: pq[0][0] * pq[1][1] - pq[0][1] * pq[1][0] > 0)
        .map(lambda pq: tc.Polygon(np.array([*pq, *np.negative(pq)]) / 8))
    )
    return st.one_of(rect, disc, poly)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    family=st.sampled_from(["gaussian", "triangle"]),
    n=st.sampled_from([47, 48]),
    region=_centrosymmetric_regions(),
    k=st.integers(0, 47),
)
def test_centrosymmetric_regions_split(family, n, region, k):
    window = tc.make_window(family, tc.SampleGrid(n, 0.25))
    op = tc.assemble(window, _raster(window, region))
    assert operators._centrosymmetric(op.window, op.raster)
    dt = op.grid.dt
    spec = tc.eigendecompose(op, vectors=k)
    ref = np.linalg.eigvalsh(dt * op.matrix)[::-1]
    assert np.max(np.abs(spec.eigenvalues - ref)) < 1e-13
    v = np.sqrt(dt) * spec.eigenfunctions
    resid = dt * op.matrix @ v - v * spec.eigenvalues[:k]
    assert np.max(np.linalg.norm(resid, axis=0), initial=0.0) <= 1e-12
    for col in v.T:
        assert np.array_equal(col, col[::-1]) or np.array_equal(col, -col[::-1])


def test_stray_mrrr_vector_is_caught():
    # tridiagonal with eigenvalues 0.9, 0.5, 0.1: each vector's Rayleigh
    # quotient must sit on its eigenvalue, so a vector standing in for one
    # that converged to a neighbour (0.9 where 0.95 was asked) is refused
    diag, off = np.array([0.5, 0.5, 0.5]), np.full(2, 0.4 / np.sqrt(2))
    got = operators._tridiagonal_vectors(diag, off, np.array([0.9, 0.5, 0.1]), 2)
    assert got.shape == (3, 2)
    with pytest.raises(tc.NumericalError, match="off their eigenvalues"):
        operators._tridiagonal_vectors(diag, off, np.array([0.95, 0.9, 0.5]), 1)


def _phase_fixed(vecs):
    """Each column times the unit factor making its first entry within a
    relative 1e-6 of the largest modulus real and positive."""
    out = vecs.copy()
    for j in range(vecs.shape[1]):
        mod = np.abs(vecs[:, j])
        lead = np.nonzero(mod >= (1.0 - 1e-6) * mod.max())[0][0]
        out[:, j] *= abs(vecs[lead, j]) / vecs[lead, j]
    return out


def test_canonical_phase_matches_eigh(tri_disc_op):
    # the triangle disc has simple leading eigenvalues, so each leading vector
    # is fixed up to its phase, and its mirrored peaks tie in modulus
    dt = tri_disc_op.grid.dt
    spec = tc.eigendecompose(tri_disc_op, vectors=8)
    assert np.min(-np.diff(spec.eigenvalues[:9])) > 1e-3
    ours = np.sqrt(dt) * spec.eigenfunctions
    _, ref = np.linalg.eigh(dt * tri_disc_op.matrix)
    assert np.max(np.abs(ours - _phase_fixed(ref[:, ::-1][:, :8]))) < 1e-10


def test_canonical_phase_leading_entry_real_positive(gauss_disc_spectrum):
    vecs = gauss_disc_spectrum.eigenfunctions
    mod = np.abs(vecs)
    lead = np.argmax(mod >= (1.0 - 1e-6) * mod.max(axis=0), axis=0)
    peaks = vecs[lead, np.arange(vecs.shape[1])]
    assert np.all(peaks.real > 0)
    assert np.max(np.abs(peaks.imag) / peaks.real) < 1e-14


def test_vectors_may_be_a_function_of_the_eigenvalues(gauss_disc_op):
    seen = []

    def above_half(eigenvalues):
        seen.append(eigenvalues)
        return int(np.sum(eigenvalues > 0.5))

    spec = tc.eigendecompose(gauss_disc_op, vectors=above_half)
    assert np.array_equal(seen[0], spec.eigenvalues)
    assert spec.eigenfunctions.shape[1] == tc.count(spec.eigenvalues, 0.5)


def test_vectors_out_of_range(gauss_disc_op):
    for bad in (-1, gauss_disc_op.grid.n + 1):
        with pytest.raises(tc.DomainError):
            tc.eigendecompose(gauss_disc_op, vectors=bad)


def test_eigenfunction_past_computed_columns(gauss_disc_op):
    spec = tc.eigendecompose(gauss_disc_op, vectors=2)
    assert spec.eigenfunction(1).samples.shape == (gauss_disc_op.grid.n,)
    with pytest.raises(tc.DomainError, match="2 computed"):
        spec.eigenfunction(2)


def test_eigenfilter_past_computed_columns(gauss_grid, gauss_disc_op, rng):
    spec = tc.eigendecompose(gauss_disc_op, vectors=2)
    f = random_signal(gauss_grid, rng)
    tc.eigenfilter(f, spec, 2)
    with pytest.raises(tc.DomainError, match="2 computed"):
        tc.eigenfilter(f, spec, 3)


def test_eigenfilter_rejects_another_grid(gauss_disc_spectrum, rng):
    f = random_signal(tc.SampleGrid(101, 0.1), rng)
    with pytest.raises(tc.GridMismatchError):
        tc.eigenfilter(f, gauss_disc_spectrum, 1)
