"""Hermite functions in the probabilist-free, unit-Gaussian convention.

``h_0(t) = 2^(1/4) exp(-pi t^2)`` and the three-term recurrence

    h_{n+1}(t) = 2 sqrt(pi/(n+1)) t h_n(t) - sqrt(n/(n+1)) h_{n-1}(t)

give an orthonormal ladder whose ground state matches the standard Gaussian
window.  The recurrence is the numerically stable way up: each step mixes
normalized neighbors with O(1) coefficients.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import SampleGrid

__all__ = ["hermite_samples"]


def hermite_samples(grid: SampleGrid, count: int) -> np.ndarray:
    """Sampled Hermite functions ``h_0 .. h_{count-1}`` as matrix columns.

    Each column is renormalized to unit norm in the grid inner product, so
    overlaps with other unit vectors are plain direction cosines.  The raw
    Riemann norm is already ``1 + O(exp(-pi T^2))`` when the grid covers the
    essential support, so the correction is tiny for low orders.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    t = grid.times
    out = np.empty((grid.n, count))
    h_prev = np.zeros(grid.n)
    h = 2.0**0.25 * np.exp(-math.pi * t * t)
    out[:, 0] = h
    for n in range(count - 1):
        h, h_prev = (
            2.0 * math.sqrt(math.pi / (n + 1)) * t * h
            - math.sqrt(n / (n + 1)) * h_prev,
            h,
        )
        out[:, n + 1] = h
    norms = np.sqrt(grid.dt * np.sum(out * out, axis=0))
    return out / norms
