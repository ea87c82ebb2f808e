"""Window construction: normalization, radii, truncation guards."""

import math

import numpy as np
import pytest

import tfconc as tc


def test_triangle_normalization(tri_window):
    # normalized in the grid inner product: the node sum over the support,
    # dt * sum_{|j|<=m} (1-|j|/m)^2 with m = 1/dt, stands in for int = 2/3
    k0 = np.argmax(np.abs(tri_window.samples))
    assert tri_window.grid.times[k0] == pytest.approx(0.0, abs=1e-12)
    m = round(1.0 / tri_window.grid.dt)
    node_sum = tri_window.grid.dt * (1.0 + (m - 1) * (2 * m - 1) / (3.0 * m))
    assert abs(tri_window.samples[k0]) == pytest.approx(
        1.0 / math.sqrt(node_sum), rel=1e-12
    )
    # continuum peak sqrt(3/2) up to the O(dt^2) quadrature factor
    assert abs(tri_window.samples[k0]) == pytest.approx(math.sqrt(1.5), rel=1e-3)
    assert tri_window.signal.norm == pytest.approx(1.0, abs=1e-12)


def test_gaussian_self_dual(gauss_window):
    g = gauss_window.grid
    expect = 2.0**0.25 * np.exp(-np.pi * g.times**2)
    assert np.max(np.abs(gauss_window.samples - expect)) < 1e-12
    fhat = tc.fourier_transform(gauss_window.signal)
    assert np.max(np.abs(fhat.samples - gauss_window.samples)) < 1e-10


def test_custom_unit_norm_unchanged():
    g = tc.SampleGrid(101, 0.05)
    raw = np.exp(-8.0 * g.times**2)
    raw /= math.sqrt(g.dt * np.sum(raw**2))
    w = tc.make_window("custom", g, samples=raw)
    assert np.array_equal(w.samples, raw.astype(w.samples.dtype))


def test_custom_renormalized():
    g = tc.SampleGrid(101, 0.05)
    w = tc.make_window("custom", g, samples=3.7 * np.exp(-8.0 * g.times**2))
    assert w.signal.norm == pytest.approx(1.0, abs=1e-12)


def test_custom_zero_samples():
    g = tc.SampleGrid(32, 0.1)
    with pytest.raises(tc.DegenerateWindowError):
        tc.make_window("custom", g, samples=np.zeros(32))


def test_gaussian_truncation():
    # grid spans [-0.75, 0.75]; a unit gaussian keeps way more than 1e-12 outside
    with pytest.raises(tc.TruncationError):
        tc.make_window("gaussian", tc.SampleGrid(16, 0.1))


def test_triangle_truncation():
    with pytest.raises(tc.TruncationError):
        tc.make_window("triangle", tc.SampleGrid(16, 0.1))


def test_custom_truncation():
    g = tc.SampleGrid(32, 0.1)
    with pytest.raises(tc.TruncationError):
        tc.make_window("custom", g, samples=np.ones(32))


def test_gaussian_rejects_nonpositive_width():
    for c in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            tc.make_window("gaussian", tc.SampleGrid(64, 0.1), c=c)


def test_unknown_family():
    with pytest.raises(ValueError):
        tc.make_window("hann", tc.SampleGrid(64, 0.1))


def test_support_radius(tri_window, gauss_window):
    assert tri_window.support_radius == 1.0
    assert gauss_window.support_radius is None


def test_custom_support_radius():
    g = tc.SampleGrid(101, 0.05)
    vals = np.where(np.abs(g.times) <= 0.5, 1.0, 0.0)
    w = tc.make_window("custom", g, samples=vals)
    assert w.support_radius == pytest.approx(0.5, abs=g.dt)


def test_essential_radius(gauss_window, tri_window):
    assert tri_window.essential_radius == 1.0
    r = gauss_window.essential_radius
    # squared mass outside r must be below the 1e-12 budget
    assert math.erfc(math.sqrt(2.0 * math.pi) * r) <= 1e-12 * 1.0000001


def test_custom_window_has_no_stock_radii():
    # no closed-form radii: a custom window keeps its grid, never auto-sized
    g = tc.SampleGrid(101, 0.05)
    w = tc.make_window("custom", g, samples=np.exp(-8.0 * g.times**2))
    with pytest.raises(tc.UnsupportedCaseError):
        w.essential_radius
    with pytest.raises(tc.UnsupportedCaseError):
        tc.auto_grid("custom", tc.Disc((0.0, 0.0), 1.0))
