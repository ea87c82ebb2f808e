"""Shared fixtures: a few standard operators reused across test modules.

Session-scoped because dense eigensolves dominate the suite's runtime and the
objects are immutable.
"""

import numpy as np
import pytest

import tfconc as tc


@pytest.fixture(scope="session")
def gauss_grid():
    # self-dual grid: dt = dsigma = 1/15, times and dual frequencies coincide
    return tc.SampleGrid(225, 1.0 / 15.0)


@pytest.fixture(scope="session")
def gauss_window(gauss_grid):
    return tc.make_window("gaussian", gauss_grid)


@pytest.fixture(scope="session")
def gauss_disc_op(gauss_window):
    return tc.assemble(gauss_window, tc.Disc((0.0, 0.0), 1.5))


@pytest.fixture(scope="session")
def gauss_disc_spectrum(gauss_disc_op):
    return tc.eigendecompose(gauss_disc_op)


@pytest.fixture(scope="session")
def tri_grid():
    return tc.SampleGrid(513, 1.0 / 32.0)


@pytest.fixture(scope="session")
def tri_window(tri_grid):
    return tc.make_window("triangle", tri_grid)


@pytest.fixture(scope="session")
def tri_disc_op(tri_window):
    return tc.assemble(tri_window, tc.Disc((0.0, 0.0), 1.0))


@pytest.fixture(scope="session")
def tri_disc_spectrum(tri_disc_op):
    return tc.eigendecompose(tri_disc_op)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_signal(grid, rng):
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    vals /= np.sqrt(grid.dt * np.sum(np.abs(vals) ** 2))
    return tc.Signal(grid, vals)


def chirped(window):
    """A complex window: ``window`` times a linear chirp ``exp(0.7 pi i t^2)``."""
    t = window.grid.times
    signal = tc.Signal(window.grid, window.samples * np.exp(0.7j * np.pi * t**2))
    return tc.Window(signal, "custom", None)
