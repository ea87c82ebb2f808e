"""Acceptance gate: the twelve headline guarantees of the toolkit.

Each test prints one PASS/FAIL line with the measured margin, then asserts.
Criteria 4-7 share one Gaussian/disc scaling sweep (module fixture).
"""

import itertools
import math
import time

import numpy as np
import pytest

import tfconc as tc


def _check(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def small_gauss():
    """The gaussian:pi window on the smallest auto grid it fits (n=33)."""
    return tc.make_window("gaussian", tc.auto_grid("gaussian", tc.Rect(0.0, 0.0, 0.0, 0.0)))


@pytest.fixture(scope="module")
def disc_report():
    """Gaussian window, unit disc dilated by r in {1,2,3,4} -- with wall time."""
    start = time.perf_counter()
    report = tc.scaling_experiment("gaussian", tc.Disc((0.0, 0.0), 1.0), [1, 2, 3, 4])
    return report, time.perf_counter() - start


def test_criterion_01_moyal_energy(small_gauss):
    start = time.perf_counter()
    grid = small_gauss.grid
    pg = tc.PhaseGrid.moyal_cover(grid)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
        f = tc.Signal(grid, vals / np.sqrt(grid.dt * np.sum(np.abs(vals) ** 2)))
        coeffs = tc.analyze(f, small_gauss, pg)
        energy = pg.cell_area * float(np.sum(np.abs(coeffs.values) ** 2))
        worst = max(worst, abs(energy - 1.0))
    elapsed = time.perf_counter() - start
    _check(
        1,
        "moyal energy",
        worst <= 1e-6 and elapsed < 5.0,
        f"max |energy-1| {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_02_trace_identity():
    start = time.perf_counter()
    grid = tc.SampleGrid(441, 1.0 / 21.0)  # self-dual: d_tau = d_sigma = 1/21
    window = tc.make_window("gaussian", grid)
    region = tc.Disc((0.0, 0.0), 2.0)
    op = tc.assemble(window, region)
    spectrum = tc.eigendecompose(op)
    elapsed = time.perf_counter() - start

    trace = float(np.sum(spectrum.eigenvalues))
    raster_gap = abs(trace - op.raster.area)
    area_err = abs(trace - region.area()) / region.area()
    ok = (
        raster_gap <= 1e-8
        and area_err <= 0.02
        and grid.n <= 1024
        and elapsed < 30.0
    )
    _check(
        2,
        "trace identity",
        ok,
        f"raster gap {raster_gap:.2e}, area err {area_err:.2%}, "
        f"n={grid.n}, {elapsed:.2f} s",
    )


def test_criterion_03_spectral_bounds():
    hexagon = tc.Polygon(
        [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    )
    bases = {
        "disc": tc.Disc((0.0, 0.0), 1.0),
        "rect": tc.Rect(-1.0, 1.0, -0.75, 0.75),
        "polygon": hexagon,
    }
    lo, hi = math.inf, -math.inf
    cases = 0
    for family, (name, base), scale in itertools.product(
        ("gaussian", "triangle"), bases.items(), (1.0, 2.0)
    ):
        region = base.scale(scale)
        window = tc.make_window(family, tc.auto_grid(family, region))
        spectrum = tc.eigendecompose(tc.assemble(window, region))
        lo = min(lo, float(spectrum.eigenvalues.min()))
        hi = max(hi, float(spectrum.eigenvalues.max()))
        cases += 1
    ok = lo >= -1e-8 and hi <= 1.0 + 1e-8
    _check(3, "spectral bounds", ok, f"{cases} cases, range [{lo:.2e}, {hi:.10f}]")


def test_criterion_04_hs_ratio(disc_report):
    report, elapsed = disc_report
    ratios = [row.sum_sq / row.trace for row in report.rows]
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    deficit = {row.r: 1.0 - row.sum_sq / row.trace for row in report.rows}
    factor = deficit[2.0] / deficit[4.0]
    ok = increasing and factor >= 1.6 and elapsed < 180.0
    _check(
        4,
        "hs ratio",
        ok,
        f"ratios {ratios[0]:.4f}->{ratios[-1]:.4f}, deficit factor {factor:.3f}, "
        f"sweep {elapsed:.1f} s",
    )


def test_criterion_05_counting(disc_report):
    report, _ = disc_report
    ratios = [row.n_lambda / row.area for row in report.rows]
    # consecutive scales can tie exactly (equal counts over proportional areas)
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    ok = nondecreasing and ratios[-1] >= 0.7
    _check(
        5,
        "counting ratio",
        ok,
        "ratios " + " ".join(f"{v:.4f}" for v in ratios),
    )


def test_criterion_06_plunge_slope(disc_report):
    report, _ = disc_report
    fit = tc.plunge_fit(report)
    ok = 0.8 <= fit["slope"] <= 1.2 and fit["r2"] >= 0.9
    _check(
        6,
        "plunge slope",
        ok,
        f"slope {fit['slope']:.3f}, r2 {fit['r2']:.4f}",
    )


def test_criterion_07_proof_step(disc_report):
    report, _ = disc_report
    eps = 0.1
    margin = math.inf
    for row in report.rows:
        lhs = row.n_plunge * (eps - eps**2)
        rhs = row.trace - row.sum_sq
        margin = min(margin, rhs - lhs)
    _check(7, "proof-step inequality", margin >= -1e-12, f"min slack {margin:.3f}")


def test_criterion_08_oracle_equivalence():
    grid = tc.SampleGrid(48, 0.25)
    window = tc.make_window("gaussian", grid)
    region = tc.Disc((0.0, 0.0), 1.0)
    fast = tc.assemble(window, region)
    slow = tc.assemble_direct(window, region)
    entry_gap = float(np.max(np.abs(fast.matrix - slow.matrix)))

    lam_sig = tc.eigendecompose(fast).eigenvalues
    lam_ps = tc.phase_space_eigenvalues(fast)
    k = min(len(lam_sig), len(lam_ps))
    a, b = lam_sig[:k], lam_ps[:k]
    compare = np.maximum(a, b) > 1e-6
    side_gap = float(np.max(np.abs(a - b)[compare]))
    ok = entry_gap < 1e-8 and side_gap < 1e-6
    _check(
        8,
        "oracle equivalence",
        ok,
        f"entry gap {entry_gap:.2e}, phase-side gap {side_gap:.2e}",
    )


def test_criterion_09_hermite():
    region = tc.Disc((0.0, 0.0), 1.5)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region))
    spectrum = tc.eigendecompose(tc.assemble(window, region))
    bench = tc.hermite_benchmark(spectrum, region)
    min_overlap = float(np.min(bench["overlaps"]))
    ok = min_overlap >= 0.99 and bench["decay_slope"] < 0.0 and bench["r2"] >= 0.95
    _check(
        9,
        "hermite benchmark",
        ok,
        f"min overlap {min_overlap:.6f}, slope {bench['decay_slope']:.3f}, "
        f"r2 {bench['r2']:.4f}",
    )


def test_criterion_10_compact_support(tri_grid, tri_disc_op, tri_disc_spectrum):
    times = tri_grid.times
    sep = np.abs(times[:, None] - times[None, :]) >= 2.0 - 1e-9
    kernel_leak = float(np.max(np.abs(tri_disc_op.matrix[sep])))

    outside = np.abs(times) > 3.0
    tail_mass = 0.0
    for k, lam in enumerate(tri_disc_spectrum.eigenvalues):
        if lam <= 1e-4:
            break
        psi = tri_disc_spectrum.eigenfunction(k)
        tail_mass = max(
            tail_mass, tri_grid.dt * float(np.sum(np.abs(psi.samples[outside]) ** 2))
        )

    significant = int(np.count_nonzero(tri_disc_spectrum.eigenvalues > 1e-4))
    ratio = float(tc.majorant_check(tri_disc_spectrum, significant).max())
    ok = kernel_leak < 1e-14 and tail_mass < 1e-10 and ratio <= 1.0
    _check(
        10,
        "compact support chain",
        ok,
        f"kernel leak {kernel_leak:.2e}, tail mass {tail_mass:.2e}, "
        f"largest majorant ratio {ratio:.4f}",
    )


def test_criterion_11_fourier_covariance(gauss_window, tri_window):
    cases = [
        (gauss_window, tc.Disc((0.0, 0.0), 1.5)),
        (gauss_window, tc.Rect(0.0, 1.0, 0.0, 2.0)),
        (tri_window, tc.Disc((0.0, 0.0), 1.0)),
    ]
    worst = 0.0
    for window, region in cases:
        spectrum = tc.eigendecompose(tc.assemble(window, region))
        res = tc.fourier_side_check(spectrum, region)
        worst = max(worst, res["max_eigenvalue_gap"])
    _check(11, "fourier covariance", worst <= 1e-6, f"max spectrum gap {worst:.2e}")


def test_criterion_12_autocorr():
    q = tc.Rect(-0.5, 0.5, -0.5, 0.5)
    values = [tc.autocorr_integral(q, r) for r in (2.0, 4.0, 8.0, 16.0)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    final_err = abs(1.0 - values[-1])
    ok = monotone and final_err <= 0.05 and values[-1] <= 1.0 + 1e-6
    _check(
        12,
        "autocorr limit",
        ok,
        "values " + " ".join(f"{v:.4f}" for v in values) + f", final err {final_err:.2%}",
    )
