"""Phase-space regions: analytic shapes, cell masks, and rasterization.

Containment is closed (boundary points count as inside) so center-point
rasterization resolves ties deterministically.  ``fourier_rotate`` implements
the quarter-turn (p1, p2) -> (p2, -p1): a point lies in the rotated region iff
(-p2, p1) lies in the original, which is the phase-space shadow of swapping a
signal for its Fourier transform.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InvalidScaleError
from .gabor import PhaseGrid

__all__ = [
    "Region",
    "Disc",
    "Rect",
    "Polygon",
    "Mask",
    "RasterizedRegion",
    "rasterize",
    "parse_region",
    "region_label",
]


def _check_scale(r: float) -> float:
    if not r > 0:
        raise InvalidScaleError(f"scale factor must be positive, got {r}")
    return float(r)


class Region(ABC):
    """A measurable subset of the time-frequency plane."""

    @abstractmethod
    def contains(self, tau: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Elementwise membership; boundary points are inside."""

    @abstractmethod
    def area(self) -> float:
        ...

    @abstractmethod
    def bounding_box(self) -> tuple[float, float, float, float]:
        """(tau_lo, tau_hi, sigma_lo, sigma_hi)"""

    @abstractmethod
    def scale(self, r: float) -> "Region":
        """Dilation about the origin by ``r > 0``."""

    @abstractmethod
    def fourier_rotate(self) -> "Region":
        """Quarter-turn image ``{(tau, sigma) : (-sigma, tau) in self}``."""


@dataclass(frozen=True)
class Disc(Region):
    center: tuple[float, float]
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")

    def contains(self, tau, sigma):
        tau = np.asarray(tau, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        cx, cy = self.center
        return (tau - cx) ** 2 + (sigma - cy) ** 2 <= self.radius**2

    def area(self):
        return float(np.pi * self.radius**2)

    def bounding_box(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r)

    def scale(self, r):
        r = _check_scale(r)
        cx, cy = self.center
        return Disc((cx * r, cy * r), self.radius * r)

    def fourier_rotate(self):
        cx, cy = self.center
        return Disc((cy, -cx), self.radius)


@dataclass(frozen=True)
class Rect(Region):
    tau_lo: float
    tau_hi: float
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self) -> None:
        if self.tau_lo > self.tau_hi or self.sigma_lo > self.sigma_hi:
            raise ValueError("rectangle intervals must not be reversed")

    @property
    def is_empty(self) -> bool:
        # equal endpoints mark the explicitly empty rectangle
        return self.tau_lo == self.tau_hi or self.sigma_lo == self.sigma_hi

    def contains(self, tau, sigma):
        tau = np.asarray(tau, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if self.is_empty:
            return np.zeros(np.broadcast_shapes(tau.shape, sigma.shape), dtype=bool)
        return (
            (tau >= self.tau_lo)
            & (tau <= self.tau_hi)
            & (sigma >= self.sigma_lo)
            & (sigma <= self.sigma_hi)
        )

    def area(self):
        return float((self.tau_hi - self.tau_lo) * (self.sigma_hi - self.sigma_lo))

    def bounding_box(self):
        return (self.tau_lo, self.tau_hi, self.sigma_lo, self.sigma_hi)

    def scale(self, r):
        r = _check_scale(r)
        return Rect(self.tau_lo * r, self.tau_hi * r, self.sigma_lo * r, self.sigma_hi * r)

    def fourier_rotate(self):
        # (p1, p2) in image iff (-p2, p1) in self
        return Rect(self.sigma_lo, self.sigma_hi, -self.tau_hi, -self.tau_lo)


@dataclass(frozen=True, eq=False)
class Polygon(Region):
    """A polygon through ``vertices`` in order, closed from the last back to
    the first.  No two non-adjacent edges may cross (ValueError): on a
    crossing polygon the shoelace area and the nonzero winding rule of
    :meth:`contains` disagree."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs at least three (tau, sigma) vertices")
        crossing = _crossing_edges(verts)
        if crossing is not None:
            i, j = crossing
            raise ValueError(
                f"polygon edge {_edge(verts, i)} crosses edge {_edge(verts, j)}"
            )
        object.__setattr__(self, "vertices", verts)

    def contains(self, tau, sigma):
        x, y = np.broadcast_arrays(
            np.asarray(tau, dtype=float), np.asarray(sigma, dtype=float)
        )
        verts = self.vertices
        scale = max(1.0, float(np.abs(verts).max()))
        tol = 1e-12 * scale
        wn = np.zeros(x.shape, dtype=int)
        on_edge = np.zeros(x.shape, dtype=bool)
        for k in range(len(verts)):
            ax, ay = verts[k]
            bx, by = verts[(k + 1) % len(verts)]
            cross = (bx - ax) * (y - ay) - (x - ax) * (by - ay)
            wn += ((ay <= y) & (by > y) & (cross > 0)).astype(int)
            wn -= ((ay > y) & (by <= y) & (cross < 0)).astype(int)
            seg = np.hypot(bx - ax, by - ay)
            near = np.abs(cross) <= tol * max(seg, 1.0)
            within = (
                (x >= min(ax, bx) - tol)
                & (x <= max(ax, bx) + tol)
                & (y >= min(ay, by) - tol)
                & (y <= max(ay, by) + tol)
            )
            on_edge |= near & within
        return (wn != 0) | on_edge

    def area(self):
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return float(0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))

    def bounding_box(self):
        lo = self.vertices.min(axis=0)
        hi = self.vertices.max(axis=0)
        return (float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]))

    def scale(self, r):
        r = _check_scale(r)
        return Polygon(self.vertices * r)

    def fourier_rotate(self):
        rotated = np.column_stack([self.vertices[:, 1], -self.vertices[:, 0]])
        return Polygon(rotated)


def _crossing_edges(verts: np.ndarray) -> tuple[int, int] | None:
    """The first pair ``i < j`` of edges (edge ``i`` runs from vertex ``i`` to
    the next) whose interiors cross, each edge's ends lying strictly on
    opposite sides of the other's line; None when there is none.  Edges that
    share a vertex never qualify, and neither do edges that only touch.
    Costs O(V) memory per edge, O(V^2) time."""
    ends = np.roll(verts, -1, axis=0)
    steps = ends - verts

    def side(step, point, origin):
        """Which side of the line along ``step`` through ``origin`` the point
        lies on: -1, 0 or 1."""
        rel = point - origin
        return np.sign(step[..., 0] * rel[..., 1] - step[..., 1] * rel[..., 0])

    for i in range(len(verts) - 2):
        # the edges after i that do not share a vertex with it
        j = np.arange(i + 2, len(verts) if i else len(verts) - 1)
        j_straddles = side(steps[i], verts[j], verts[i]) * side(steps[i], ends[j], verts[i]) < 0
        i_straddles = side(steps[j], verts[i], verts[j]) * side(steps[j], ends[i], verts[j]) < 0
        hit = np.flatnonzero(j_straddles & i_straddles)
        if hit.size:
            return i, int(j[hit[0]])
    return None


def _edge(verts: np.ndarray, k: int) -> str:
    """Edge ``k`` as its index and its two ends, for messages."""
    (x0, y0), (x1, y1) = verts[k].tolist(), verts[(k + 1) % len(verts)].tolist()
    return f"{k} ({x0:g}, {y0:g})-({x1:g}, {y1:g})"


@dataclass(frozen=True, eq=False)
class Mask(Region):
    """Explicit cell mask on its own uniform lattice of cell centers."""

    tau_values: np.ndarray
    sigma_values: np.ndarray
    inside: np.ndarray

    def __post_init__(self) -> None:
        taus = np.asarray(self.tau_values, dtype=float)
        sigmas = np.asarray(self.sigma_values, dtype=float)
        flags = np.asarray(self.inside, dtype=bool)
        if flags.shape != (len(taus), len(sigmas)):
            raise ValueError(
                f"mask shape {flags.shape} does not match "
                f"({len(taus)}, {len(sigmas)}) cells"
            )
        for vals, name in ((taus, "tau"), (sigmas, "sigma")):
            if len(vals) > 1:
                steps = np.diff(vals)
                if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9):
                    raise ValueError(f"mask {name} values need a uniform positive step")
        object.__setattr__(self, "tau_values", taus)
        object.__setattr__(self, "sigma_values", sigmas)
        object.__setattr__(self, "inside", flags)

    def _steps(self) -> tuple[float, float]:
        dt = float(self.tau_values[1] - self.tau_values[0]) if len(self.tau_values) > 1 else 1.0
        ds = float(self.sigma_values[1] - self.sigma_values[0]) if len(self.sigma_values) > 1 else 1.0
        return dt, ds

    def contains(self, tau, sigma):
        tau = np.asarray(tau, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        dt, ds = self._steps()
        i, j = np.broadcast_arrays(
            np.rint((tau - self.tau_values[0]) / dt).astype(int),
            np.rint((sigma - self.sigma_values[0]) / ds).astype(int),
        )
        ok = (i >= 0) & (i < len(self.tau_values)) & (j >= 0) & (j < len(self.sigma_values))
        out = np.zeros(i.shape, dtype=bool)
        out[ok] = self.inside[i[ok], j[ok]]
        return out

    def area(self):
        dt, ds = self._steps()
        return float(self.inside.sum() * dt * ds)

    def bounding_box(self):
        dt, ds = self._steps()
        rows = np.nonzero(self.inside.any(axis=1))[0]
        cols = np.nonzero(self.inside.any(axis=0))[0]
        if len(rows) == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            float(self.tau_values[rows[0]] - dt / 2),
            float(self.tau_values[rows[-1]] + dt / 2),
            float(self.sigma_values[cols[0]] - ds / 2),
            float(self.sigma_values[cols[-1]] + ds / 2),
        )

    def scale(self, r):
        r = _check_scale(r)
        return Mask(self.tau_values * r, self.sigma_values * r, self.inside)

    def fourier_rotate(self):
        # new cell (sigma_j, -tau_{L-1-k}) is inside iff original (tau, sigma) was
        new_taus = self.sigma_values.copy()
        new_sigmas = -self.tau_values[::-1]
        return Mask(new_taus, new_sigmas, self.inside[::-1, :].T)


@dataclass(frozen=True, eq=False)
class RasterizedRegion:
    """Center-point rasterization: weight ``dtau*dsigma`` on covered cells."""

    phase_grid: PhaseGrid
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.shape != self.phase_grid.shape:
            raise ValueError("weights shape must match the phase grid")
        object.__setattr__(self, "weights", w)

    @property
    def mask(self) -> np.ndarray:
        return self.weights > 0

    @property
    def area(self) -> float:
        """Quadrature area, ``sum(weights)``."""
        return float(self.weights.sum())

    @property
    def cell_count(self) -> int:
        return int(np.count_nonzero(self.weights))


def rasterize(region: Region, phase_grid: PhaseGrid) -> RasterizedRegion:
    """Center-point rasterization of ``region`` on ``phase_grid``.

    Raises CoverageError when the region's bounding box sticks out of the
    grid's cell-edge extent -- silently clipping a region would corrupt every
    downstream trace/area identity.
    """
    t_lo, t_hi, s_lo, s_hi = region.bounding_box()
    taus = phase_grid.tau_values
    sigmas = phase_grid.sigma_values
    half_t, half_s = phase_grid.dtau / 2, phase_grid.dsigma / 2
    eps_t, eps_s = 1e-9 * max(phase_grid.dtau, 1.0), 1e-9 * max(phase_grid.dsigma, 1.0)
    if (
        t_lo < taus[0] - half_t - eps_t
        or t_hi > taus[-1] + half_t + eps_t
        or s_lo < sigmas[0] - half_s - eps_s
        or s_hi > sigmas[-1] + half_s + eps_s
    ):
        raise CoverageError(
            f"region bbox tau [{t_lo:.4g}, {t_hi:.4g}] x sigma [{s_lo:.4g}, {s_hi:.4g}] "
            f"exceeds phase grid tau [{taus[0]:.4g}, {taus[-1]:.4g}] x "
            f"sigma [{sigmas[0]:.4g}, {sigmas[-1]:.4g}]"
        )
    tt, ss = np.meshgrid(taus, sigmas, indexing="ij")
    weights = np.where(region.contains(tt, ss), phase_grid.cell_area, 0.0)
    return RasterizedRegion(phase_grid, weights)


def parse_region(text: str) -> Region:
    """Parse the config syntax: ``disc cx cy r`` | ``rect t0 t1 s0 s1`` |
    ``poly x1 y1 ...`` | ``mask <csv-path>``."""
    from .errors import ConfigError

    parts = text.split()
    if not parts:
        raise ConfigError("empty region spec")
    kind, args = parts[0].lower(), parts[1:]
    try:
        if kind == "disc":
            cx, cy, r = map(float, args)
            return Disc((cx, cy), r)
        if kind == "rect":
            t0, t1, s0, s1 = map(float, args)
            return Rect(t0, t1, s0, s1)
        if kind == "poly":
            vals = list(map(float, args))
            if len(vals) < 6 or len(vals) % 2:
                raise ConfigError("poly needs an even number of >= 6 coordinates")
            return Polygon(np.array(vals).reshape(-1, 2))
        if kind == "mask":
            if len(args) != 1:
                raise ConfigError("mask takes exactly one csv path")
            from .io import read_mask_csv

            return read_mask_csv(args[0])
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad region spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown region kind {kind!r}")


def region_label(region: Region) -> str:
    """Compact one-line identifier, matching the config syntax when possible."""
    if isinstance(region, Disc):
        cx, cy = region.center
        return f"disc {cx:g} {cy:g} {region.radius:g}"
    if isinstance(region, Rect):
        return (
            f"rect {region.tau_lo:g} {region.tau_hi:g} "
            f"{region.sigma_lo:g} {region.sigma_hi:g}"
        )
    if isinstance(region, Polygon):
        coords = " ".join(f"{v:g}" for v in np.asarray(region.vertices).ravel())
        return f"poly {coords}"
    if isinstance(region, Mask):
        nt, ns = region.inside.shape
        return f"mask {nt}x{ns}"
    return type(region).__name__.lower()
