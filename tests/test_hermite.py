"""Hermite ladder: explicit low orders, orthonormality, Gaussian ground state."""

import math

import numpy as np
import pytest

import tfconc as tc


def _explicit(order, t):
    # closed forms in the unit-Gaussian convention, for checking the recurrence
    g = 2.0**0.25 * np.exp(-math.pi * t**2)
    if order == 0:
        return g
    if order == 1:
        return 2.0 * math.sqrt(math.pi) * t * g
    if order == 2:
        return (2.0 * math.pi * t**2 - 0.5) * g * math.sqrt(2.0)
    if order == 3:
        x = math.sqrt(math.pi) * t
        return (4.0 * x**3 - 3.0 * x) * g * math.sqrt(2.0 / 3.0)
    raise ValueError(order)


def test_recurrence_matches_explicit(gauss_grid):
    cols = tc.hermite_samples(gauss_grid, 4)
    for order in range(4):
        expect = _explicit(order, gauss_grid.times)
        expect /= math.sqrt(gauss_grid.dt * np.sum(expect**2))
        assert np.max(np.abs(cols[:, order] - expect)) < 1e-10


def test_orthonormal_on_grid(gauss_grid):
    cols = tc.hermite_samples(gauss_grid, 10)
    gram = gauss_grid.dt * cols.T @ cols
    assert np.max(np.abs(gram - np.eye(10))) < 1e-8


def test_ground_state_is_gaussian_window(gauss_grid, gauss_window):
    h0 = tc.hermite_samples(gauss_grid, 1)[:, 0]
    assert np.max(np.abs(h0 - gauss_window.samples)) < 1e-12


def test_parity(gauss_grid):
    cols = tc.hermite_samples(gauss_grid, 6)
    flipped = cols[::-1, :]
    for order in range(6):
        sign = 1.0 if order % 2 == 0 else -1.0
        assert np.max(np.abs(cols[:, order] - sign * flipped[:, order])) < 1e-10


def test_fourier_eigenvectors(gauss_grid):
    # h_n transforms to (-i)^n h_n
    cols = tc.hermite_samples(gauss_grid, 4)
    for order in range(4):
        h = tc.Signal(gauss_grid, cols[:, order])
        hhat = tc.fourier_transform(h)
        expect = (-1j) ** order * h.samples
        assert np.max(np.abs(hhat.samples - expect)) < 1e-8


def test_count_validation(gauss_grid):
    with pytest.raises(ValueError):
        tc.hermite_samples(gauss_grid, 0)
