"""The eigen-equation's decay majorant, support checks, and the two classical
benchmarks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfconc as tc
from tfconc import decay, grids, operators

from conftest import chirped


def _significant(spectrum):
    """How many eigenvalues exceed 1e-4."""
    return int(np.count_nonzero(spectrum.eigenvalues > 1e-4))


def test_majorant_holds_for_gaussian_eigenfunctions(gauss_disc_spectrum):
    count = _significant(gauss_disc_spectrum)
    ratios = tc.majorant_check(gauss_disc_spectrum, count)
    assert ratios.shape == (count, 2)
    assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)


def test_majorant_defaults_to_the_decay_rows(gauss_disc_spectrum):
    # at most 16 leading eigenfunctions, each with an eigenvalue above 1e-4
    ratios = tc.majorant_check(gauss_disc_spectrum)
    assert len(ratios) == min(16, _significant(gauss_disc_spectrum))
    full = tc.majorant_check(gauss_disc_spectrum, _significant(gauss_disc_spectrum))
    assert np.array_equal(ratios, full[: len(ratios)])


def _with_leading(spectrum, samples):
    """``spectrum`` with its leading eigenfunction replaced by ``samples``."""
    vecs = spectrum.eigenfunctions[:, :1].astype(complex)
    vecs[:, 0] = samples
    return dataclasses.replace(spectrum, eigenfunctions=vecs)


@pytest.mark.parametrize(
    "side, move",
    [
        # psi_0 translated 3 beyond the region's tau extent of 1.5
        ("time", lambda psi: grids._shifted(psi.samples, -round(4.5 / psi.grid.dt))),
        # and modulated 3 beyond its sigma extent
        ("frequency", lambda psi: psi.samples * np.exp(2j * np.pi * 4.5 * psi.grid.times)),
    ],
    ids=["time", "frequency"],
)
def test_majorant_breaks_on_mass_outside_the_shadow(gauss_disc_spectrum, side, move):
    # a unit vector carrying its mass where no shifted window reaches cannot
    # satisfy the eigen-equation: the mutation must break the majorant
    moved = move(gauss_disc_spectrum.eigenfunction(0))
    assert np.sqrt(gauss_disc_spectrum.operator.grid.dt * np.sum(np.abs(moved) ** 2)) == (
        pytest.approx(1.0, abs=1e-12)
    )
    with pytest.raises(tc.NumericalError, match=f"eigenfunction 0 exceeds its {side} majorant"):
        tc.majorant_check(_with_leading(gauss_disc_spectrum, moved), 1)


@pytest.mark.parametrize(
    "size, breaks", [(0.5e-12, False), (2e-12, True)], ids=["under-floor", "over-floor"]
)
def test_majorant_floor(gauss_disc_spectrum, size, breaks):
    # a spike in the far tail, where the time majorant is below 1e-40: under
    # 1e-12 of the peak it is rounding and left out, over it it counts
    psi = gauss_disc_spectrum.eigenfunction(0).samples
    spiked = psi.astype(complex)
    spiked[-1] = size * np.abs(psi).max()
    check = tc.majorant_check
    if breaks:
        with pytest.raises(tc.NumericalError, match="time majorant"):
            check(_with_leading(gauss_disc_spectrum, spiked), 1)
    else:
        out = check(_with_leading(gauss_disc_spectrum, spiked), 1)
        assert out[0, 0] == check(_with_leading(gauss_disc_spectrum, psi), 1)[0, 0]


def test_majorant_past_computed_columns(gauss_disc_op):
    short = tc.eigendecompose(gauss_disc_op, vectors=2)
    with pytest.raises(tc.DomainError, match="2 computed"):
        tc.majorant_check(short, 3)


def _triangle(centre, radii, turn):
    angles = turn + 2 * np.pi / 3 * np.arange(3)
    x, y = centre
    return tc.Polygon(np.column_stack([x + radii * np.cos(angles), y + radii * np.sin(angles)]))


def _drawn_regions():
    """Discs, rects and triangles with random centres: a centre off the
    sigma = 0 axis makes the operator complex."""
    centre = st.tuples(st.floats(-1.5, 1.5), st.one_of(st.just(0.0), st.floats(-1.5, 1.5)))
    size = st.floats(0.3, 1.5)
    disc = st.builds(tc.Disc, centre, size)
    rect = st.builds(
        lambda c, a, b: tc.Rect(c[0] - a, c[0] + a, c[1] - b, c[1] + b), centre, size, size
    )
    radii = st.lists(size, min_size=3, max_size=3).map(np.array)
    triangle = st.builds(_triangle, centre, radii, st.floats(0.0, 2 * np.pi))
    return st.one_of(disc, rect, triangle)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    family=st.sampled_from(["gaussian", "triangle"]),
    c=st.floats(0.5 * math.pi, 2.0 * math.pi),
    region=_drawn_regions(),
)
def test_majorant_holds_on_drawn_windows_and_regions(family, c, region):
    # the majorant property on both chains: float64 for the regions
    # mirror-symmetric about sigma = 0, complex128 for the rest
    window = tc.make_window(family, tc.auto_grid(family, region, c=c), c=c)
    spectrum = tc.eigendecompose(tc.assemble(window, region), vectors=16)
    assert np.all(tc.majorant_check(spectrum) <= 1.0)


def test_triangle_eigenfunction_support(tri_disc_spectrum):
    # with the region inside [-1, 1]^2 every eigenfunction with a real
    # eigenvalue lives in [-2, 2], comfortably inside [-3, 3]
    grid = tri_disc_spectrum.operator.grid
    outside = np.abs(grid.times) > 3.0
    for k, lam in enumerate(tri_disc_spectrum.eigenvalues):
        if lam <= 1e-4:
            break
        psi = tri_disc_spectrum.eigenfunction(k)
        mass_out = grid.dt * float(np.sum(np.abs(psi.samples[outside]) ** 2))
        assert mass_out < 1e-10


def test_majorant_holds_for_triangle_eigenfunctions(tri_disc_spectrum):
    # the triangle's transform decays only like sigma^-2, and every
    # eigenfunction's at least as fast
    count = _significant(tri_disc_spectrum)
    ratios = tc.majorant_check(tri_disc_spectrum, count)
    assert ratios.shape == (count, 2)
    assert np.all(ratios > 0.0) and np.all(ratios <= 1.0)


def test_kernel_vanishing_triangle(tri_window, tri_disc_op):
    assert tc.kernel_vanishing_check(tri_window, tri_disc_op) is True


def test_kernel_vanishing_gaussian_skipped(gauss_window, gauss_disc_op):
    assert tc.kernel_vanishing_check(gauss_window, gauss_disc_op) is None


def test_kernel_vanishing_custom_box(gauss_grid):
    vals = np.where(np.abs(gauss_grid.times) <= 0.5, 1.0, 0.0)
    box = tc.make_window("custom", gauss_grid, samples=vals)
    op = tc.assemble(box, tc.Disc((0.0, 0.0), 1.0))
    assert tc.kernel_vanishing_check(box, op) is True


def _fourier_side(window, region):
    return tc.fourier_side_check(tc.eigendecompose(tc.assemble(window, region)), region)


def test_fourier_side_gaussian_disc(gauss_window):
    # centered disc and self-dual window: the two operators coincide
    out = _fourier_side(gauss_window, tc.Disc((0.0, 0.0), 1.5))
    assert out["max_eigenvalue_gap"] < 1e-8
    assert out["max_overlap_defect"] < 1e-6


def test_fourier_side_gaussian_rect(gauss_window):
    # no symmetry here: the quarter-turned region genuinely differs
    out = _fourier_side(gauss_window, tc.Rect(0.0, 1.0, 0.0, 2.0))
    assert out["max_eigenvalue_gap"] < 1e-6
    assert out["max_overlap_defect"] < 1e-4


def test_fourier_side_triangle_disc(tri_window):
    out = _fourier_side(tri_window, tc.Disc((0.0, 0.0), 1.0))
    assert out["max_eigenvalue_gap"] < 1e-5


def _twin_case(case, gauss_window, tri_window):
    """``(window, region)`` of a Fourier-twin case."""
    centred = tc.Disc((0.0, 0.0), 1.5)
    return {
        "gaussian": (gauss_window, centred),
        "triangle": (tri_window, tc.Disc((0.0, 0.0), 1.0)),
        "chirp": (chirped(gauss_window), centred),
        "off-centre": (gauss_window, tc.Disc((0.7, -0.4), 1.5)),
    }[case]


_TWIN_SPLITS = {"gaussian": True, "triangle": True, "chirp": False, "off-centre": False}


@pytest.mark.parametrize("case", list(_TWIN_SPLITS))
def test_fourier_twin_takes_the_real_split_path(case, gauss_window, tri_window, monkeypatch):
    # the centred stock discs get a float64 twin folded into parity halves;
    # a complex window or a region whose quarter turn is not mirrored in
    # sigma keeps a complex one
    window, region = _twin_case(case, gauss_window, tri_window)
    spectrum = tc.eigendecompose(tc.assemble(window, region), vectors=8)
    solved, folded = [], []
    solve, fold = decay.eigendecompose, operators._parity_blocks

    def spy_solve(op, vectors=None):
        solved.append(op)
        return solve(op, vectors=vectors)

    def spy_fold(*args):
        folded.append(fold(*args))
        return folded[-1]

    monkeypatch.setattr(decay, "eigendecompose", spy_solve)
    monkeypatch.setattr(operators, "_parity_blocks", spy_fold)
    out = tc.fourier_side_check(spectrum, region)
    assert out["max_eigenvalue_gap"] < 1e-5
    (twin,) = solved
    split = _TWIN_SPLITS[case]
    assert twin.matrix.dtype == (np.float64 if split else np.complex128)
    assert len(folded) == split and all(blocks is not None for blocks in folded)


def _raw_twin(window):
    """The transform before cleaning: unit norm, rounding and all."""
    hat = tc.fourier_transform(window.signal)
    return tc.Window(tc.Signal(hat.grid, hat.samples / hat.norm), "custom", None)


@pytest.mark.parametrize("case", list(_TWIN_SPLITS))
def test_cleaned_twin_keeps_the_raw_twin_spectrum(case, gauss_window, tri_window):
    window, region = _twin_case(case, gauss_window, tri_window)
    turned = region.fourier_rotate()
    spectra = [
        tc.eigendecompose(tc.assemble(w, turned), vectors=0).eigenvalues
        for w in (decay._twin_window(window), _raw_twin(window))
    ]
    assert np.max(np.abs(spectra[0][:8] - spectra[1][:8])) < 1e-13


@pytest.mark.parametrize("case", list(_TWIN_SPLITS))
def test_twin_zeroes_only_samples_under_the_rounding_bound(case, gauss_window, tri_window):
    window, _ = _twin_case(case, gauss_window, tri_window)
    grid = window.grid
    bound = grid.n * np.finfo(np.float64).eps * grid.dt * np.abs(window.samples).sum()
    hat = tc.fourier_transform(window.signal).samples
    if case in ("gaussian", "triangle", "off-centre"):  # real and even
        hat = 0.5 * (hat.real + hat.real[::-1])
    twin = decay._twin_window(window).samples
    zeroed = twin == 0
    assert np.all(np.abs(hat[zeroed]) <= bound)
    assert np.all(np.abs(hat[~zeroed]) > bound)
    scale = np.sqrt(grid.dual.dt * np.sum(np.abs(hat[~zeroed]) ** 2))
    assert np.allclose(twin[~zeroed], hat[~zeroed] / scale, rtol=1e-15, atol=0.0)
    if case == "gaussian":
        # against the exact sum (long double cosines of exactly reduced
        # angles) the cleaned transform is off by less than the bound, so
        # every zeroed sample is below measurement
        n = grid.n
        k = 2 * np.arange(n) - n + 1
        turns = np.outer(k, k) % (4 * n)  # 2 pi t_m sigma_j = pi turns / (2n)
        cosines = np.cos(np.pi * turns.astype(np.longdouble) / (2 * n))
        exact = (grid.dt * (cosines @ window.samples.real.astype(np.longdouble))).astype(float)
        assert np.max(np.abs(hat - exact)) <= 0.1 * bound
        assert np.max(np.abs(exact[zeroed])) <= 2 * bound
        assert zeroed.sum() > n // 2


@pytest.fixture(scope="module")
def hermite_disc():
    # the gaussian:pi window on its auto grid for the centered disc of radius 1.5
    region = tc.Disc((0.0, 0.0), 1.5)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region))
    return tc.eigendecompose(tc.assemble(window, region)), region


def test_hermite_benchmark(hermite_disc):
    out = tc.hermite_benchmark(*hermite_disc)
    assert len(out["overlaps"]) == 6
    assert np.min(out["overlaps"]) >= 0.99
    assert out["decay_slope"] < 0.0
    assert out["r2"] >= 0.95
    assert all(out["polynomial_beaten"].values())
    # disc eigenvalues are simple in this convention: all clusters singletons
    assert out["cluster_sizes"] == [1] * 6


def test_hermite_benchmark_matches_closed_form(hermite_disc):
    from scipy.special import gammainc

    out = tc.hermite_benchmark(*hermite_disc)
    expect = gammainc(np.arange(1, 7), math.pi * 1.5**2)
    assert np.max(np.abs(out["eigenvalues"][:6] - expect)) < 5e-3


def test_hermite_benchmark_rejects_other_widths(gauss_window, tri_disc_spectrum):
    # only the gaussian:pi window on a centred disc: not c = 2, not off-centre,
    # not the triangle
    region = tc.Disc((0.0, 0.0), 1.5)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region, c=2.0), c=2.0)
    off_centre = tc.Disc((0.5, 0.0), 1.0)
    cases = [
        (tc.eigendecompose(tc.assemble(window, region)), region),
        (tc.eigendecompose(tc.assemble(gauss_window, off_centre)), off_centre),
        (tri_disc_spectrum, tc.Disc((0.0, 0.0), 1.0)),
    ]
    for spectrum, case_region in cases:
        with pytest.raises(tc.UnsupportedCaseError):
            tc.hermite_benchmark(spectrum, case_region)


def test_hermite_benchmark_past_computed_columns(hermite_disc):
    spectrum, region = hermite_disc
    short = tc.eigendecompose(spectrum.operator, vectors=5)  # 6 singleton clusters
    with pytest.raises(tc.DomainError, match="5 computed"):
        tc.hermite_benchmark(short, region)


def test_fourier_side_past_computed_columns(gauss_window):
    region = tc.Disc((0.0, 0.0), 1.5)
    short = tc.eigendecompose(tc.assemble(gauss_window, region), vectors=2)
    with pytest.raises(tc.DomainError, match="2 computed"):
        tc.fourier_side_check(short, region)
