"""Eigenfunction regularity: decay envelopes, support checks, and the two
classical benchmarks (Fourier covariance, Gaussian/disc Hermite case).

An envelope is a positive nonincreasing majorant; admissibility is three
sampled conditions (vanishing at infinity, near-square integrability,
stability under shifts).  Eigenfunction decay is then checked against
``gamma^(1-eps)`` using log-binned maxima, which ride over the oscillatory
zeros that make pointwise ratios meaningless.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedCaseError
from .grids import Signal, fourier_transform, inverse_fourier_transform
from .hermite import hermite_samples
from .operators import ConcentrationOperator, Spectrum, assemble, eigendecompose
from .regions import Disc, Region, region_label
from .windows import Window

__all__ = [
    "DecayEnvelope",
    "PowerLaw",
    "StretchedExp",
    "CustomEnvelope",
    "envelope_admissible",
    "decay_check",
    "kernel_vanishing_check",
    "fourier_side_check",
    "hermite_benchmark",
]

#: amplitudes below this are treated as numerically zero when checking decay
_MEASURE_FLOOR = 1e-14
#: leading eigenvalues the Fourier-side check compares
_FOURIER_LEADING = 8
#: leading eigenvalue clusters the Hermite benchmark compares
_HERMITE_CLUSTERS = 6


class DecayEnvelope(ABC):
    """Positive nonincreasing majorant on ``[0, infinity)``."""

    @abstractmethod
    def __call__(self, s):
        ...

    def log_eval(self, s):
        """``log(gamma(s))``, overridden where the closed form avoids underflow."""
        return np.log(np.maximum(np.asarray(self(s), dtype=float), 1e-300))

    def _validate(self) -> None:
        s = np.concatenate([[0.0], np.logspace(-2.0, 8.0, 201)])
        v = np.asarray(self(s), dtype=float)
        if v[0] <= 0 or np.any(v < 0):
            raise DomainError("envelope must be positive (underflow to 0 aside)")
        if np.any(np.diff(v) > 1e-12 * np.maximum(v[:-1], 1e-300)):
            raise DomainError("envelope must be nonincreasing")


@dataclass(frozen=True)
class PowerLaw(DecayEnvelope):
    """``(1 + s^2)^(-q/2)``."""

    q: float

    def __post_init__(self) -> None:
        self._validate()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return (1.0 + s * s) ** (-self.q / 2.0)

    def log_eval(self, s):
        s = np.asarray(s, dtype=float)
        return -(self.q / 2.0) * np.log1p(s * s)


@dataclass(frozen=True)
class StretchedExp(DecayEnvelope):
    """``exp(-kappa s^q)``."""

    kappa: float
    q: float

    def __post_init__(self) -> None:
        if self.kappa <= 0 or self.q <= 0:
            raise DomainError("kappa and q must be positive")
        self._validate()

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        return np.exp(-self.kappa * s**self.q)

    def log_eval(self, s):
        s = np.asarray(s, dtype=float)
        return -self.kappa * s**self.q


@dataclass(frozen=True, eq=False)
class CustomEnvelope(DecayEnvelope):
    evaluator: object

    def __post_init__(self) -> None:
        self._validate()

    def __call__(self, s):
        return np.asarray(self.evaluator(np.asarray(s, dtype=float)), dtype=float)


def envelope_admissible(gamma: DecayEnvelope) -> dict:
    """Three sampled admissibility conditions; verdicts, never exceptions.

    (i) vanishing at infinity, (ii) convergence of the integral of gamma^p at
    p = 2 and p = 7/4 (dyadic tail-ratio test), (iii) bounded
    ``gamma(s - s0) / gamma(s)^(1-eps)`` for small shifts.  Note the envelope
    value at 0 is deliberately not constrained: the standard examples all have
    gamma(0) = 1, and only the behavior at infinity matters downstream.
    """
    far = float(np.asarray(gamma(np.array([1e6]))).ravel()[0])
    vanishes = far < 1e-6

    def tail_converges(p: float) -> dict:
        chunks = []
        for k in range(25):
            a, b = 2.0**k, 2.0 ** (k + 1)
            s = a + (np.arange(16) + 0.5) * (b - a) / 16.0
            chunks.append(float(np.sum(gamma(s) ** p)) * (b - a) / 16.0)
        ratios = []
        for t1, t2 in zip(chunks[-7:-1], chunks[-6:]):
            ratios.append(t2 / t1 if t1 > 0 else 0.0)
        return {"p": p, "converges": max(ratios) < 0.97, "last_ratio": ratios[-1]}

    p_results = [tail_converges(2.0), tail_converges(1.75)]

    log_floor = math.log(1e-300)
    shift_results = []
    for s0 in (1.0, 2.0):
        for eps in (0.05, 0.1):
            s = s0 + np.logspace(-3.0, 3.0, 200)
            la = gamma.log_eval(s - s0)
            lb = gamma.log_eval(s)
            # samples pinned at the underflow clamp carry no slope information
            usable = (np.abs(la - log_floor) > 1e-6) & (np.abs(lb - log_floor) > 1e-6)
            log_ratio = (la - (1.0 - eps) * lb)[usable]
            s_use = s[usable]
            if s_use.size >= 8:
                tail = s_use >= min(10.0, float(s_use.max()) / 5.0)
                if np.sum(tail) < 4:
                    tail = np.ones_like(s_use, dtype=bool)
                slope = float(np.polyfit(np.log(s_use[tail]), log_ratio[tail], 1)[0])
                bounded = bool(np.all(np.isfinite(log_ratio)) and slope <= 0.02)
            else:
                # decays below the floating-point floor almost immediately;
                # cannot be verified, so fail closed
                slope = math.inf
                bounded = False
            shift_results.append(
                {"s0": s0, "eps": eps, "tail_slope": slope, "bounded": bounded}
            )

    details = {
        "vanishes_at_infinity": {"value_at_1e6": far, "ok": bool(vanishes)},
        "p_integrable": {"checks": p_results,
                         "ok": all(c["converges"] for c in p_results)},
        "shift_stable": {"checks": shift_results,
                         "ok": all(c["bounded"] for c in shift_results)},
    }
    ok = all(d["ok"] for d in details.values())
    return {"ok": ok, "details": details}


def decay_check(
    psi: Signal,
    gamma: DecayEnvelope,
    epsilon: float = 0.1,
    t_min: float = 1.0,
) -> dict:
    """Check ``|psi(t)| <= C gamma(|t|)^(1-epsilon)`` beyond ``t_min``.

    Returns the fitted constant (max ratio) and an ok verdict: the log-binned
    ratio maxima must not trend upward over the last decade of ``|t|``.
    Samples under 1e-14 are below measurement and ignored; if nothing beyond
    ``t_min`` is measurable the check passes vacuously, flagged as such.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon}")
    if t_min <= 0:
        raise DomainError(f"t_min must be positive, got {t_min}")
    s = np.abs(psi.grid.times)
    vals = np.abs(psi.samples)
    meas = (s >= t_min) & (vals >= _MEASURE_FLOOR)
    if not np.any(meas):
        return {"ok": True, "C_fit": 0.0, "flag": "vacuous"}
    s = s[meas]
    log_ratio = np.log(vals[meas]) - (1.0 - epsilon) * gamma.log_eval(s)
    c_fit = float(np.exp(np.max(log_ratio)))

    s_lo, s_hi = float(s.min()), float(s.max())
    if s_hi / s_lo < 1.2:
        # too narrow a shell to measure a trend; the constant is all there is
        return {"ok": True, "C_fit": c_fit, "flag": "narrow"}
    n_bins = max(3, int(math.ceil(8.0 * math.log10(s_hi / s_lo))))
    edges = np.logspace(math.log10(s_lo), math.log10(s_hi) + 1e-12, n_bins + 1)
    which = np.clip(np.searchsorted(edges, s, side="right") - 1, 0, n_bins - 1)
    centers, maxima = [], []
    for b in range(n_bins):
        hit = which == b
        if np.any(hit):
            centers.append(math.sqrt(edges[b] * edges[b + 1]))
            maxima.append(float(np.max(log_ratio[hit])))
    centers = np.array(centers)
    maxima = np.array(maxima)
    tail = centers >= s_hi / 10.0
    if np.sum(tail) < 3:
        tail = np.ones_like(centers, dtype=bool)
    slope = float(np.polyfit(np.log(centers[tail]), maxima[tail], 1)[0])
    return {"ok": bool(slope <= 0.1), "C_fit": c_fit, "flag": None}


def kernel_vanishing_check(window: Window, op: ConcentrationOperator) -> bool | None:
    """Kernel entries must vanish where shifted copies cannot overlap.

    For a window supported in ``[-a, a]`` every kernel value with
    ``|x - y| >= 2a`` is a sum of products of disjointly supported factors,
    so it is exactly zero; verified to 1e-14.  Returns None (skipped) when the
    window has no compact support.

    Stock windows use their declared support edge (where the samples already
    vanish), so the threshold is exactly ``2a``.  For custom windows the edge
    is detected from the outermost nonzero sample and is only known to one
    grid cell, so the threshold is widened by one step -- for a box on
    [-0.5, 0.5] sampled off-node that reproduces the nominal threshold 1.
    """
    a = window.support_radius
    if a is None:
        return None
    threshold = 2.0 * a
    if window.family == "custom":
        threshold += op.grid.dt
    t = op.grid.times
    sep = np.abs(t[:, None] - t[None, :]) >= threshold * (1.0 - 1e-12)
    if not np.any(sep):
        return True
    return bool(np.max(np.abs(op.matrix[sep])) < _MEASURE_FLOOR)


def _clusters(eigenvalues: np.ndarray, count: int, floor: float) -> list[range]:
    """Group the leading eigenvalues into near-degenerate runs (gap < 1e-6)."""
    groups: list[range] = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        done = i == len(eigenvalues) or eigenvalues[i - 1] - eigenvalues[i] >= 1e-6
        if done:
            if eigenvalues[start] > floor:
                groups.append(range(start, i))
            start = i
        if len(groups) >= count:
            break
    return groups[:count]


def _principal_cosine(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    """Smallest principal-angle cosine between two orthonormal column spans."""
    return float(np.linalg.svd(dx * (a.conj().T @ b), compute_uv=False).min())


def fourier_side_check(spectrum: Spectrum, region: Region) -> dict:
    """Cross-check an operator's spectrum against its Fourier-side twin.

    ``spectrum`` is the decomposition of the operator for ``region``; its
    window, transformed onto the dual grid and concentrated on the
    quarter-turned region, must reproduce the leading 8 eigenvalues.
    Eigenspaces are compared cluster by cluster (principal angles between the
    transformed eigenfunctions and the dual-side ones).  Only clusters above
    1e-3 enter the space comparison -- below that the spans are numerically
    unstable while the eigenvalue comparison is still meaningful.
    """
    window = spectrum.operator.window
    hat = fourier_transform(window.signal)
    hat = Signal(hat.grid, hat.samples / hat.norm)
    window_hat = Window(hat, "custom", None)
    twin = eigendecompose(assemble(window_hat, region.fourier_rotate()))

    k = min(_FOURIER_LEADING, len(spectrum.eigenvalues), len(twin.eigenvalues))
    lam1 = spectrum.eigenvalues[:k]
    lam2 = twin.eigenvalues[:k]
    compare = np.maximum(lam1, lam2) > 1e-6
    gap = float(np.max(np.abs(lam1 - lam2)[compare])) if np.any(compare) else 0.0

    defect = 0.0
    dual_dt = window.grid.dual.dt
    for cluster in _clusters(spectrum.eigenvalues, k, floor=1e-3):
        if cluster.stop > k:
            break
        # the quarter turn used here is the *preimage* map, so eigenfunctions
        # transport along the inverse transform (forward FT lands on the
        # mirrored region instead, which only matches for symmetric regions)
        transported = np.column_stack(
            [
                inverse_fourier_transform(spectrum.eigenfunction(j)).samples
                for j in cluster
            ]
        )
        native = twin.eigenfunctions[:, cluster.start : cluster.stop]
        defect = max(defect, 1.0 - _principal_cosine(transported, native, dual_dt))
    return {"max_eigenvalue_gap": gap, "max_overlap_defect": defect}


def hermite_benchmark(spectrum: Spectrum, region: Region) -> dict:
    """Gaussian window, centered disc: eigenfunctions against the Hermite ladder.

    Reads the window and its grid from ``spectrum.operator`` and checks the
    spectrum the caller already holds; nothing is assembled or solved here.
    Only the ``c = pi`` gaussian on a centered :class:`Disc` is supported,
    else UnsupportedCaseError -- that is the window whose ambiguity function
    is isotropic, so a centered disc commutes with the phase-space rotation
    symmetry and the classical result applies verbatim.  Other ``c`` would
    need elliptical regions.

    Returns principal-angle overlaps of the leading 6 eigenvalue clusters
    against the matching span of Hermite functions, plus a log-linear fit of
    the post-plunge eigenvalue tail and flags confirming super-polynomial
    decay.
    """
    window = spectrum.operator.window
    if not (
        window.family == "gaussian"
        and math.isclose(window.parameter, math.pi, rel_tol=1e-12)
    ):
        raise UnsupportedCaseError(
            f"hermite benchmark needs the gaussian:pi window (isotropic case), "
            f"got {window.label}"
        )
    if not (isinstance(region, Disc) and region.center == (0.0, 0.0)):
        raise UnsupportedCaseError(
            f"hermite benchmark needs a disc centered at the origin, got "
            f"{region_label(region)}"
        )
    grid = window.grid

    lam = spectrum.clamped
    clusters = _clusters(spectrum.eigenvalues, _HERMITE_CLUSTERS, floor=1e-3)
    n_herm = max((cl.stop for cl in clusters), default=0)
    basis = hermite_samples(grid, max(n_herm, 1))
    overlaps = []
    for cl in clusters:
        overlaps.append(
            _principal_cosine(
                spectrum.eigenfunctions[:, cl.start : cl.stop],
                basis[:, cl.start : cl.stop],
                grid.dt,
            )
        )

    tail = np.nonzero((lam < 0.05) & (lam > 1e-10))[0]
    if len(tail) < 4:
        raise DomainError(
            "eigenvalue tail too short to fit; enlarge the disc or refine dt"
        )
    y = np.log(lam[tail])
    slope, intercept = np.polyfit(tail.astype(float), y, 1)
    resid = y - (slope * tail + intercept)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum((y - y.mean()) ** 2))

    n_s, n_e = tail[0], tail[-1]
    beaten = {
        m: bool(lam[n_e] / lam[n_s] < (n_s / n_e) ** m) for m in (2, 3, 4)
    }
    return {
        "overlaps": np.array(overlaps),
        "cluster_sizes": [len(cl) for cl in clusters],
        "decay_slope": float(slope),
        "r2": r2,
        "fit_range": (int(n_s), int(n_e)),
        "polynomial_beaten": beaten,
        "eigenvalues": spectrum.eigenvalues,
    }
