"""Region geometry: areas, scaling, quarter-turn rotation, rasterization."""

import math

import numpy as np
import pytest

import tfconc as tc

HEX_AREA = 2.598076211353316  # 3*sqrt(3)/2, shoelace on the six vertices


def _hexagon():
    ang = np.pi / 3.0 * np.arange(6)
    return tc.Polygon(np.column_stack([np.cos(ang), np.sin(ang)]))


def test_disc_area():
    assert tc.Disc((0.0, 0.0), 2.0).area() == pytest.approx(4.0 * np.pi)


def test_rect_area():
    assert tc.Rect(0.0, 3.0, 0.0, 2.0).area() == pytest.approx(6.0)


def test_hexagon_area():
    assert _hexagon().area() == pytest.approx(HEX_AREA, abs=1e-12)


def test_disc_requires_positive_radius():
    with pytest.raises(ValueError):
        tc.Disc((0.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        tc.Disc((0.0, 0.0), -1.0)


def test_rect_empty():
    r = tc.Rect(0.5, 0.5, -1.0, 1.0)
    assert r.is_empty
    assert r.area() == 0.0
    assert not r.contains(np.array([0.5]), np.array([0.0]))[0]
    with pytest.raises(ValueError):
        tc.Rect(1.0, 0.0, 0.0, 1.0)


def test_polygon_needs_three_vertices():
    with pytest.raises(ValueError):
        tc.Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_polygon_with_crossing_edges_refused():
    # the bow-tie: shoelace area 0, but the winding rule puts half of [0, 1]^2 inside
    with pytest.raises(ValueError, match=r"edge 0 \(0, 0\)-\(1, 1\) crosses edge 2"):
        tc.Polygon(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(tc.ConfigError, match="crosses"):
        tc.parse_region("poly 0 0 1 1 1 0 0 1")


@pytest.mark.parametrize(
    "text, area",
    [
        ("poly 0 0 1 0 0 1", 0.5),  # triangle
        ("poly 0 0 2 0 2 1 1 1 1 2 0 2", 3.0),  # L-shape
        ("poly 0 0 0 1 1 1 1 0", 1.0),  # clockwise square
    ],
)
def test_simple_polygons_parse(text, area):
    assert tc.parse_region(text).area() == pytest.approx(area)


def test_scale_area_quadratic():
    square = tc.Rect(0.0, 1.0, 0.0, 1.0)
    assert square.scale(3.0).area() == pytest.approx(9.0)
    assert _hexagon().scale(2.5).area() == pytest.approx(2.5**2 * HEX_AREA)
    assert tc.Disc((0.0, 0.0), 1.0).scale(4.0).area() == pytest.approx(16.0 * np.pi)


def test_scale_identity():
    d = tc.Disc((1.0, -0.5), 0.75)
    s = d.scale(1.0)
    assert s.center == d.center and s.radius == d.radius


def test_scale_moves_center():
    s = tc.Disc((1.0, 0.0), 1.0).scale(2.0)
    assert s.center == (2.0, 0.0)
    assert s.radius == 2.0


def test_scale_rejects_nonpositive():
    with pytest.raises(tc.DomainError, match="scale factor must be positive and finite"):
        tc.Disc((0.0, 0.0), 1.0).scale(0.0)
    with pytest.raises(tc.DomainError, match="scale factor must be positive and finite"):
        tc.Rect(0.0, 1.0, 0.0, 1.0).scale(-2.0)


def test_fourier_rotate_centered_disc():
    d = tc.Disc((0.0, 0.0), 1.5)
    r = d.fourier_rotate()
    assert r.center == (0.0, 0.0) and r.radius == 1.5


def test_fourier_rotate_rect():
    # hand-applied map: (t, s) in image iff (-s, t) in original
    r = tc.Rect(0.0, 1.0, 0.0, 2.0).fourier_rotate()
    assert (r.tau_lo, r.tau_hi, r.sigma_lo, r.sigma_hi) == (0.0, 2.0, -1.0, 0.0)


def test_fourier_rotate_fourth_power_identity():
    regions = [
        tc.Disc((0.7, -0.3), 1.0),
        tc.Rect(-0.5, 1.0, 0.25, 2.0),
        _hexagon().scale(1.3),
    ]
    probe_t = np.linspace(-3.0, 3.0, 41)
    probe_s = np.linspace(-3.0, 3.0, 41)
    tt, ss = np.meshgrid(probe_t, probe_s)
    for region in regions:
        four = region.fourier_rotate().fourier_rotate().fourier_rotate().fourier_rotate()
        assert four.area() == pytest.approx(region.area(), abs=1e-12)
        assert np.array_equal(four.contains(tt, ss), region.contains(tt, ss))


def test_fourier_rotate_membership():
    region = _hexagon().scale(1.2)
    rot = region.fourier_rotate()
    pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(200, 2))
    got = rot.contains(pts[:, 0], pts[:, 1])
    expect = region.contains(-pts[:, 1], pts[:, 0])
    assert np.array_equal(got, expect)


def test_fourier_rotate_preserves_area():
    for region in [tc.Rect(0.0, 1.0, 0.0, 2.0), _hexagon(), tc.Disc((1.0, 2.0), 0.5)]:
        assert region.fourier_rotate().area() == pytest.approx(region.area(), abs=1e-12)


def test_rasterize_empty():
    g = tc.SampleGrid(64, 0.1)
    pg = tc.PhaseGrid.cover(g, (-1.0, 1.0), (-1.0, 1.0))
    raster = tc.rasterize(tc.Rect(0.0, 0.0, 0.0, 1.0), pg)
    assert raster.area == 0.0
    assert raster.cell_count == 0


def test_rasterize_aligned_rect_exact():
    g = tc.SampleGrid(100, 0.1)  # dsigma = 0.1 as well
    pg = tc.PhaseGrid.cover(g, (-2.0, 2.0), (-2.0, 2.0))
    # cell centers at multiples of 0.1; pick edges on half-cell boundaries
    rect = tc.Rect(-0.95, 1.05, -0.45, 0.55)
    raster = tc.rasterize(rect, pg)
    assert raster.area == pytest.approx(rect.area(), abs=1e-12)


def test_rasterize_refinement():
    # center-point rule converges with O(h) boundary error
    disc = tc.Disc((0.0, 0.0), 1.0)
    errors = []
    for m in (10, 20, 40):
        g = tc.SampleGrid(m * m, 1.0 / m)  # dt = dsigma = 1/m
        pg = tc.PhaseGrid.cover(g, (-1.2, 1.2), (-1.2, 1.2))
        raster = tc.rasterize(disc, pg)
        errors.append(abs(raster.area - np.pi))
    assert errors[2] < errors[0]
    assert errors[2] < 0.05


def _raster_cases():
    """Every region kind, centred and off-centre, with a phase grid covering it."""
    g = tc.SampleGrid(96, 0.07)
    pg = tc.PhaseGrid.cover(g, (-2.0, 2.0), (-2.0, 2.0))
    mask_inside = np.random.default_rng(3).random((9, 7)) < 0.5
    mask = tc.Mask(0.13 * np.arange(9) - 0.4, 0.11 * np.arange(7) + 0.2, mask_inside)
    triangle = tc.Polygon(np.array([[-0.3, -0.8], [1.1, 0.2], [0.1, 1.3]]))
    regions = [
        tc.Disc((0.0, 0.0), 1.5),
        tc.Disc((0.31, -0.42), 1.17),
        tc.Rect(-0.95, 1.05, -0.45, 0.55),
        tc.Rect(-0.613, 1.27, 0.083, 1.61),
        tc.Rect(0.5, 0.5, -1.0, 1.0),
        _hexagon(),
        triangle,
        mask,
    ]
    return pg, regions


def test_rasterize_matches_meshgrid_predicate():
    pg, regions = _raster_cases()
    tt, ss = np.meshgrid(pg.tau_values, pg.sigma_values, indexing="ij")
    for region in regions:
        expected = np.where(region.contains(tt, ss), pg.cell_area, 0.0)
        assert np.array_equal(tc.rasterize(region, pg).weights, expected), region


def test_rasterize_passes_axes_not_cell_arrays(monkeypatch):
    pg, regions = _raster_cases()
    cells = pg.shape[0] * pg.shape[1]
    sizes = []
    for cls in (tc.Disc, tc.Rect, tc.Polygon, tc.Mask):
        original = cls.contains

        def spy(self, tau, sigma, original=original):
            sizes.append((np.size(tau), np.size(sigma)))
            return original(self, tau, sigma)

        monkeypatch.setattr(cls, "contains", spy)
    for region in regions:
        tc.rasterize(region, pg)
    assert sizes == [pg.shape] * len(regions)
    assert max(max(s) for s in sizes) < cells


def test_rasterize_coverage_error():
    g = tc.SampleGrid(64, 0.1)
    pg = tc.PhaseGrid.cover(g, (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(tc.CoverageError):
        tc.rasterize(tc.Disc((0.0, 0.0), 2.0), pg)


def test_oversized_phase_grid_refused_before_any_array(monkeypatch):
    from tfconc import regions

    cells_max = regions._RASTER_BUDGET // (regions._LIVE_CELL_ARRAYS * 8)
    regions._require_raster_budget(cells_max)
    regions._require_raster_budget(2048 * 2048)  # the auto grid's cap fits
    # the benchmark's largest raster (417 x 435 cells) is far below the budget
    assert 100 * 417 * 435 < cells_max

    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the raster budget check")

    for cls in (tc.Disc, tc.Rect, tc.Polygon, tc.Mask):
        monkeypatch.setattr(cls, "contains", forbidden)
    n = math.isqrt(cells_max) + 1
    pg = tc.PhaseGrid.full_cover(tc.SampleGrid(n, 0.01))
    cells = pg.shape[0] * pg.shape[1]
    assert cells > cells_max
    ones = np.ones((2, 2), dtype=bool)
    for region in (tc.Disc((0.0, 0.0), 1.0), tc.Rect(-1.0, 1.0, 0.0, 1.0), _hexagon(),
                   tc.Mask([0.0, 0.5], [0.0, 0.5], ones)):
        with pytest.raises(tc.CoverageError) as err:
            tc.rasterize(region, pg)
        assert f"{cells} cells" in str(err.value)
        assert f"{regions._LIVE_CELL_ARRAYS * 8 * cells} bytes" in str(err.value)


def test_mask_round_trip_region():
    taus = 0.25 * np.arange(-4, 5)
    sigmas = 0.25 * np.arange(-3, 4)
    inside = np.zeros((9, 7), dtype=bool)
    inside[2:7, 1:6] = True
    m = tc.Mask(taus, sigmas, inside)
    assert m.area() == pytest.approx(inside.sum() * 0.25 * 0.25)
    # membership at the stored centers reproduces the mask
    tt, ss = np.meshgrid(taus, sigmas, indexing="ij")
    assert np.array_equal(m.contains(tt, ss), inside)


def test_mask_fourier_rotate():
    taus = 0.5 * np.arange(-2, 3)
    sigmas = 0.5 * np.arange(-2, 3)
    inside = np.zeros((5, 5), dtype=bool)
    inside[3, 1] = True  # cell at (tau, sigma) = (0.5, -0.5)
    rot = tc.Mask(taus, sigmas, inside).fourier_rotate()
    # (t, s) in image iff (-s, t) in original: image cell is (-0.5, -0.5)
    assert rot.contains(np.array([-0.5]), np.array([-0.5]))[0]
    assert rot.area() == pytest.approx(0.25)
    back = rot.fourier_rotate().fourier_rotate().fourier_rotate()
    assert back.contains(np.array([0.5]), np.array([-0.5]))[0]


def test_mask_shape_validation():
    with pytest.raises(ValueError):
        tc.Mask(np.arange(3.0), np.arange(4.0), np.zeros((3, 3), dtype=bool))


def test_mask_step_is_uniform_relative_to_itself():
    # steps of 1e-9 and 2e-9 differ by less than an absolute 1e-8
    with pytest.raises(ValueError, match="uniform step"):
        tc.Mask([0.0, 1e-9, 3e-9], [0.0], np.ones((3, 1), dtype=bool))


def test_parse_region():
    d = tc.parse_region("disc 0 0 1.5")
    assert isinstance(d, tc.Disc) and d.radius == 1.5
    r = tc.parse_region("rect -1 1 -0.5 0.5")
    assert isinstance(r, tc.Rect) and r.area() == pytest.approx(2.0)
    p = tc.parse_region("poly 0 0 1 0 0 1")
    assert isinstance(p, tc.Polygon) and p.area() == pytest.approx(0.5)


def test_parse_region_errors():
    for bad in ["", "disc 0 0", "rect 1 2 3", "poly 0 0 1 1", "blob 1 2 3"]:
        with pytest.raises(tc.ConfigError):
            tc.parse_region(bad)


def test_region_label_round_trip():
    for text in ["disc 0 0 1.5", "rect -1 1 -0.5 0.5", "poly 0 0 1 0 0 1"]:
        region = tc.parse_region(text)
        assert tc.region_label(region) == text


def test_polygon_boundary_counts_inside():
    tri = tc.Polygon(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]))
    # vertex, edge midpoint, interior, exterior
    assert tri.contains(np.array([0.0]), np.array([0.0]))[0]
    assert tri.contains(np.array([1.0]), np.array([0.0]))[0]
    assert tri.contains(np.array([0.5]), np.array([0.5]))[0]
    assert not tri.contains(np.array([1.5]), np.array([1.5]))[0]


@pytest.mark.parametrize(
    "text, mean_time, mean_freq",
    [("disc 3 0 1", -3.01, 0.0), ("disc 2 1 1", -2.01, 1.01)],
)
def test_region_at_tau_concentrates_at_time_minus_tau(text, mean_time, mean_freq):
    # tf_shift is e^{pi i tau sigma} e^{2 pi i sigma t} f(t + tau): a region
    # centred at (tau, sigma) concentrates signals at time -tau and
    # frequency +sigma
    region = tc.parse_region(text)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region))
    psi = tc.eigendecompose(tc.assemble(window, region), vectors=1).eigenfunction(0)
    hat = tc.fourier_transform(psi)
    for signal, mean in ((psi, mean_time), (hat, mean_freq)):
        grid = signal.grid
        centroid = grid.dt * np.sum(grid.times * np.abs(signal.samples) ** 2)
        assert centroid == pytest.approx(mean, abs=0.05)
