"""Sample grids, signals, Fourier transforms, and time-frequency shifts."""

import math

import numpy as np
import pytest

import tfconc as tc
from tfconc.grids import inner_product, tf_shift
from tfconc.oracles import ambiguity_table, shifted_rows

from conftest import random_signal


def test_grid_fields():
    g = tc.SampleGrid(225, 1.0 / 15.0)
    assert g.n == 225
    assert g.t_start == pytest.approx(-224.0 / 30.0)
    assert g.dsigma == pytest.approx(1.0 / 15.0)
    assert len(g.times) == 225
    # symmetric about zero
    assert abs(g.times[0] + g.times[-1]) < 1e-14
    assert g.times[112] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 48, 49, 309, 555, 1000])
@pytest.mark.parametrize("dt", [1.0 / 15.0, 0.0123456789, 0.25])
def test_times_exactly_antisymmetric(n, dt):
    # even profiles sampled on the grid must equal their reverse bit for bit
    t = tc.SampleGrid(n, dt).times
    assert np.array_equal(t, -t[::-1])
    assert t[0] == tc.SampleGrid(n, dt).t_start


def test_grid_validation():
    with pytest.raises(ValueError):
        tc.SampleGrid(1, 0.1)
    with pytest.raises(ValueError):
        tc.SampleGrid(16, 0.0)
    with pytest.raises(ValueError):
        tc.SampleGrid(16, -0.5)


def test_dual_grid_self_dual():
    g = tc.SampleGrid(225, 1.0 / 15.0)
    d = g.dual
    assert d.n == g.n
    assert d.dt == pytest.approx(g.dsigma)
    # this grid is self-dual: dt = 1/(n*dt)
    assert d.dt == pytest.approx(g.dt)
    dd = d.dual
    assert dd.dt == pytest.approx(g.dt)


def test_shift_index_alignment():
    g = tc.SampleGrid(64, 0.125)
    assert g.shift_index(0.25) == 2
    assert g.shift_index(-0.5) == -4
    assert g.shift_index(0.0) == 0
    with pytest.raises(tc.DomainError, match="is not an integer multiple of dt"):
        g.shift_index(0.1)


def test_signal_length_mismatch():
    g = tc.SampleGrid(16, 0.1)
    with pytest.raises(ValueError):
        tc.Signal(g, np.zeros(15))


def test_inner_product_unit_window(gauss_window):
    v = inner_product(gauss_window.signal, gauss_window.signal)
    assert v == pytest.approx(1.0, abs=1e-12)
    assert abs(v.imag) < 1e-14


def test_inner_product_zero_signal(gauss_grid, gauss_window):
    z = tc.Signal(gauss_grid, np.zeros(gauss_grid.n, dtype=complex))
    assert inner_product(gauss_window.signal, z) == 0.0


def test_inner_product_oracle(rng):
    # brute-force fsum oracle in extended precision
    g = tc.SampleGrid(64, 0.07)
    f = random_signal(g, rng)
    h = random_signal(g, rng)
    terms = [f.samples[k] * np.conj(h.samples[k]) for k in range(64)]
    oracle = g.dt * complex(
        math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
    )
    got = inner_product(f, h)
    assert abs(got - oracle) < 1e-13 * abs(oracle)


def test_inner_product_conjugate_symmetry(rng):
    g = tc.SampleGrid(48, 0.1)
    f = random_signal(g, rng)
    h = random_signal(g, rng)
    assert inner_product(f, h) == pytest.approx(
        np.conj(inner_product(h, f)), abs=1e-14
    )


def test_inner_product_positive(rng):
    g = tc.SampleGrid(48, 0.1)
    f = random_signal(g, rng)
    v = inner_product(f, f)
    assert abs(v.imag) < 1e-14
    assert v.real > 0


def test_inner_product_grid_mismatch(rng):
    f = random_signal(tc.SampleGrid(32, 0.1), rng)
    h = random_signal(tc.SampleGrid(32, 0.2), rng)
    with pytest.raises(tc.DomainError, match="inner_product: grids differ"):
        inner_product(f, h)


def test_fourier_gaussian_self_dual():
    # phi(t) = 2^(1/4) exp(-pi t^2) transforms to itself
    g = tc.SampleGrid(256, 1.0 / 16.0)
    vals = 2.0**0.25 * np.exp(-np.pi * g.times**2)
    fhat = tc.fourier_transform(tc.Signal(g, vals))
    expect = 2.0**0.25 * np.exp(-np.pi * fhat.grid.times**2)
    assert np.max(np.abs(fhat.samples - expect)) < 1e-8


def test_fourier_impulse():
    g = tc.SampleGrid(255, 1.0 / 16.0)
    vals = np.zeros(g.n, dtype=complex)
    vals[127] = 1.0 / g.dt  # t = 0
    fhat = tc.fourier_transform(tc.Signal(g, vals))
    assert np.max(np.abs(fhat.samples - 1.0)) < 1e-12


def test_fourier_round_trip(rng):
    g = tc.SampleGrid(128, 0.05)
    f = random_signal(g, rng)
    back = tc.inverse_fourier_transform(tc.fourier_transform(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12


def test_inverse_fourier_constant():
    g = tc.SampleGrid(255, 1.0 / 16.0)
    freq = g.dual
    spec = tc.Signal(freq, np.ones(freq.n, dtype=complex))
    f = tc.inverse_fourier_transform(spec)
    k0 = np.argmax(np.abs(f.samples))
    assert f.grid.times[k0] == pytest.approx(0.0, abs=1e-12)
    assert f.samples[k0] == pytest.approx(1.0 / f.grid.dt, rel=1e-10)
    off_peak = np.abs(np.delete(f.samples, k0))
    assert off_peak.max() < 1e-9 / f.grid.dt


def test_plancherel(rng):
    g = tc.SampleGrid(128, 0.05)
    f = random_signal(g, rng)
    h = random_signal(g, rng)
    lhs = inner_product(f, h)
    rhs = inner_product(tc.fourier_transform(f), tc.fourier_transform(h))
    assert abs(lhs - rhs) < 1e-10 * f.norm * h.norm


def test_tf_shift_identity(rng):
    g = tc.SampleGrid(64, 0.1)
    f = random_signal(g, rng)
    shifted = tf_shift(f, 0.0, 0.0)
    assert np.array_equal(shifted.samples, f.samples)


def test_tf_shift_unitary(gauss_window):
    shifted = tf_shift(gauss_window.signal, 0.4, 0.7)
    assert shifted.norm == pytest.approx(1.0, abs=1e-10)


def test_tf_shift_clips(gauss_grid):
    # shifting content past the edge loses norm, never wraps
    vals = np.zeros(gauss_grid.n, dtype=complex)
    vals[0] = 1.0
    f = tc.Signal(gauss_grid, vals)
    shifted = tf_shift(f, gauss_grid.dt, 0.0)
    assert shifted.norm <= f.norm
    assert np.all(shifted.samples == 0)


def _zero_fill_shift(samples, m):
    """Reference ``out[k] = samples[k + m]``: a slice of a zero-padded copy."""
    n = len(samples)
    pad = np.zeros(2 * n + 2, dtype=complex)
    padded = np.concatenate([pad, samples, pad])
    return padded[len(pad) + m : len(pad) + m + n]


_EDGE_N = 16


@pytest.mark.parametrize(
    "m",
    [-_EDGE_N - 1, -_EDGE_N, -_EDGE_N + 1, -1, 0, 1, _EDGE_N - 1, _EDGE_N, _EDGE_N + 1],
)
def test_shift_edges_match_zero_fill(m, rng):
    # tf_shift, shifted_rows and the ambiguity table share one shift; all three
    # must agree with plain slicing at every clip, including none and total
    g = tc.SampleGrid(_EDGE_N, 0.25)
    f = random_signal(g, rng)
    ref = _zero_fill_shift(f.samples, m)
    tau = m * g.dt
    assert np.any(ref) == (abs(m) < g.n)

    assert np.array_equal(tf_shift(f, tau, 0.0).samples, ref)
    sigma = 0.7
    phase = np.exp(1j * np.pi * tau * sigma + 2j * np.pi * sigma * g.times)
    assert np.allclose(tf_shift(f, tau, sigma).samples, phase * ref, rtol=0, atol=1e-12)

    rows = shifted_rows(f.samples, np.array([m, 0]))
    assert np.array_equal(rows[0], ref)
    assert np.array_equal(rows[1], f.samples)

    # H(tau, s) = dt * sum e^{pi i tau s} e^{2 pi i s t} phi(t + tau) conj(phi(t))
    window = tc.Window(f, "custom")
    sigmas = g.dsigma * np.arange(-3, 4)
    row = ambiguity_table(window, np.array([tau]), sigmas)[0]
    direct = np.array(
        [
            g.dt * np.sum(np.exp(1j * np.pi * tau * s + 2j * np.pi * s * g.times)
                          * ref * f.samples.conj())
            for s in sigmas
        ]
    )
    assert np.allclose(row, direct, rtol=0, atol=1e-12)
    if abs(m) >= g.n:
        assert np.all(row == 0)


def test_tf_shift_alignment(gauss_window):
    with pytest.raises(tc.DomainError, match="is not an integer multiple of dt"):
        tf_shift(gauss_window.signal, 0.5 * gauss_window.grid.dt, 0.0)


def test_tf_shift_fourier_commutation(gauss_grid):
    # F rho(tau, sigma) f = rho(-sigma, tau) F f on a self-dual grid
    tau, sigma = 0.4, 0.2  # both multiples of dt = dsigma = 1/15
    vals = 2.0**0.25 * np.exp(-np.pi * (gauss_grid.times - 0.3) ** 2)
    f = tc.Signal(gauss_grid, vals.astype(complex))
    lhs = tc.fourier_transform(tf_shift(f, tau, sigma))
    rhs = tf_shift(tc.fourier_transform(f), -sigma, tau)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-8


def test_tf_shift_composition_phase(gauss_window):
    # rho(t1,s1) rho(t2,s2) = exp(i pi (t1 s2 - s1 t2)) rho(t1+t2, s1+s2)
    f = gauss_window.signal
    t1, s1 = 0.2, 0.5
    t2, s2 = -0.4, 0.3
    composed = tf_shift(tf_shift(f, t2, s2), t1, s1)
    direct = tf_shift(f, t1 + t2, s1 + s2)
    theta = np.pi * (t1 * s2 - s1 * t2)
    assert np.max(np.abs(composed.samples - np.exp(1j * theta) * direct.samples)) < 1e-12
    # and the measured global phase agrees with the predicted one
    k = np.argmax(np.abs(direct.samples))
    measured = np.angle(composed.samples[k] / direct.samples[k])
    assert np.exp(1j * measured) == pytest.approx(np.exp(1j * theta), abs=1e-10)
