"""Ambiguity function, reproducing kernel, and phase-space projection.

The coefficient space of a fixed window is a reproducing-kernel subspace: its
kernel at two phase-space nodes is a pure phase times the window's ambiguity
function evaluated at the node difference.  Everything here leans on that
factorization; the defining inner products stay available as slow oracles.
"""

from __future__ import annotations

import numpy as np

from .gabor import GaborCoefficients, analyze, shifted_rows, synthesize
from .grids import _forward_sum, inner_product, tf_shift
from .windows import Window

__all__ = ["ambiguity", "ambiguity_table", "kernel", "project"]


def ambiguity(window: Window, point: tuple[float, float]) -> complex:
    """``H(tau, sigma) = <rho(tau, sigma) phi, phi>`` at one (grid-aligned) shift."""
    tau, sigma = point
    shifted = tf_shift(window.signal, tau, sigma)
    return inner_product(shifted, window.signal)


def ambiguity_table(
    window: Window, tau_values: np.ndarray, sigma_values: np.ndarray
) -> np.ndarray:
    """``H`` on a product lattice: the shifted rows are built once, then one
    batched FFT per chunk of ``sigma_values``.

    ``tau_values`` must be grid-aligned; ``sigma_values`` must be uniform with
    step ``dsigma`` but may span more than one FFT period (the table is
    computed in chunks of at most ``n`` bins, each with its own offset, so no
    aliasing is hidden).
    """
    grid = window.grid
    taus = np.asarray(tau_values, dtype=float)
    sigmas = np.asarray(sigma_values, dtype=float)
    if len(sigmas) > 1:
        steps = np.diff(sigmas)
        if not np.allclose(steps, grid.dsigma, rtol=1e-9):
            raise ValueError("sigma values must step by 1/(n dt)")
    phi = window.samples
    rows = shifted_rows(phi, np.array([grid.shift_index(tau) for tau in taus], dtype=int))
    # H(tau, s) = e^{pi i tau s} * conj( dt sum conj(v) e^{-2 pi i s t} ),
    # v = phi(. + tau) conj(phi)
    v_conj = (rows * phi.conj()).conj()
    out = np.empty((len(taus), len(sigmas)), dtype=np.complex128)
    for start in range(0, len(sigmas), grid.n):
        stop = min(start + grid.n, len(sigmas))
        out[:, start:stop] = _forward_sum(v_conj, grid, sigmas[start], stop - start).conj()
    out *= np.exp(1j * np.pi * np.outer(taus, sigmas))
    return out


def kernel(
    window: Window,
    point: tuple[float, float],
    other: tuple[float, float],
) -> complex:
    """Reproducing kernel ``<rho(point) phi, rho(other) phi>`` via the
    phase-times-ambiguity factorization.

    ``kernel(w, p, q) = exp(pi i (tau_p sigma_q - sigma_p tau_q)) *
    H(tau_p - tau_q, sigma_p - sigma_q)``; the direct double shift is what the
    tests compare against.
    """
    tau, sigma = point
    tau2, sigma2 = other
    phase = np.exp(1j * np.pi * (tau * sigma2 - sigma * tau2))
    return complex(phase * ambiguity(window, (tau - tau2, sigma - sigma2)))


def project(coeffs: GaborCoefficients, window: Window) -> GaborCoefficients:
    """Orthogonal projection of a coefficient array onto the window's range.

    Realized as analyze(synthesize(.)): on an adequate cover this reproduces
    genuine transforms, is idempotent up to quadrature error, and never grows
    the phase-space energy.
    """
    return analyze(synthesize(coeffs, window), window, coeffs.phase_grid)
