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
    with pytest.raises(tc.InvalidScaleError):
        tc.Disc((0.0, 0.0), 1.0).scale(0.0)
    with pytest.raises(tc.InvalidScaleError):
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


def test_rasterize_coverage_error():
    g = tc.SampleGrid(64, 0.1)
    pg = tc.PhaseGrid.cover(g, (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(tc.CoverageError):
        tc.rasterize(tc.Disc((0.0, 0.0), 2.0), pg)


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
