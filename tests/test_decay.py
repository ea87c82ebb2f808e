"""Decay envelopes, eigenfunction tail checks, and the two classical benchmarks."""

import math

import numpy as np
import pytest

import tfconc as tc


def test_power_law_admissible():
    out = tc.envelope_admissible(tc.PowerLaw(2.0))
    assert out["ok"]
    assert out["details"]["vanishes_at_infinity"]["ok"]
    assert out["details"]["p_integrable"]["ok"]
    assert out["details"]["shift_stable"]["ok"]


def test_stretched_exp_admissible():
    assert tc.envelope_admissible(tc.StretchedExp(1.0, 2.0))["ok"]


def test_slow_power_law_fails_integrability():
    # gamma^2 = (1 + s^2)^{-1/2} has a divergent integral
    out = tc.envelope_admissible(tc.PowerLaw(0.5))
    assert not out["ok"]
    assert not out["details"]["p_integrable"]["ok"]


def test_doubly_exponential_fails_shift_stability():
    # gamma(s - s0)/gamma(s)^{1-eps} = exp(e^s (1 - eps - e^{-s0})) blows up;
    # the envelope also dives under the float floor almost immediately
    gamma = tc.CustomEnvelope(lambda s: np.exp(-np.exp(np.minimum(s, 100.0))))
    out = tc.envelope_admissible(gamma)
    assert not out["ok"]
    assert not out["details"]["shift_stable"]["ok"]


def test_envelope_validation():
    with pytest.raises(tc.DomainError):
        tc.StretchedExp(-1.0, 2.0)
    with pytest.raises(tc.DomainError):
        tc.CustomEnvelope(lambda s: 1.0 + s)  # increasing
    with pytest.raises(tc.DomainError):
        tc.CustomEnvelope(lambda s: -np.ones_like(s))


def test_log_eval_matches_log():
    s = np.linspace(0.0, 20.0, 50)
    for gamma in (tc.PowerLaw(2.0), tc.StretchedExp(0.5, 1.5)):
        direct = np.log(gamma(s))
        assert np.max(np.abs(gamma.log_eval(s) - direct)) < 1e-12


def test_decay_check_gaussian_eigenfunction(gauss_disc_spectrum):
    # default t_min rule: region extent 1.5 + window tail + 1
    psi1 = gauss_disc_spectrum.eigenfunction(0)
    t_min = 1.5 + 2.012 + 1.0
    out = tc.decay_check(psi1, tc.StretchedExp(math.pi, 2.0), 0.1, t_min)
    assert out["ok"]


def test_decay_check_violated(gauss_grid):
    # 1/(1 + |t|) cannot sit under a Gaussian envelope
    vals = 1.0 / (1.0 + np.abs(gauss_grid.times))
    out = tc.decay_check(
        tc.Signal(gauss_grid, vals.astype(complex)), tc.StretchedExp(1.0, 2.0), 0.1, 1.0
    )
    assert not out["ok"]


def test_decay_check_vacuous(gauss_grid):
    vals = np.exp(-50.0 * gauss_grid.times**2)
    out = tc.decay_check(
        tc.Signal(gauss_grid, vals.astype(complex)), tc.PowerLaw(2.0), 0.1, 5.0
    )
    assert out["ok"]
    assert out["flag"] == "vacuous"
    assert out["C_fit"] == 0.0


def test_decay_check_narrow_shell(gauss_grid):
    vals = 1.0 / (1.0 + gauss_grid.times**2)
    out = tc.decay_check(
        tc.Signal(gauss_grid, vals.astype(complex)), tc.PowerLaw(2.0), 0.1, 6.5
    )
    assert out["flag"] == "narrow"
    assert out["ok"]


def test_decay_check_validation(gauss_grid):
    f = tc.Signal(gauss_grid, np.ones(gauss_grid.n, dtype=complex))
    with pytest.raises(tc.DomainError):
        tc.decay_check(f, tc.PowerLaw(2.0), 0.0, 1.0)
    with pytest.raises(tc.DomainError):
        tc.decay_check(f, tc.PowerLaw(2.0), 0.1, -1.0)


def test_triangle_eigenfunction_support(tri_disc_spectrum):
    # with the region inside [-1, 1]^2 every eigenfunction with a real
    # eigenvalue lives in [-2, 2], comfortably inside [-3, 3]
    grid = tri_disc_spectrum.operator.grid
    outside = np.abs(grid.times) > 3.0
    for k, lam in enumerate(tri_disc_spectrum.eigenvalues):
        if lam <= 1e-4:
            break
        psi = tri_disc_spectrum.eigenfunction(k)
        mass_out = grid.dt * float(np.sum(np.abs(psi.samples[outside]) ** 2))
        assert mass_out < 1e-10


def test_triangle_frequency_decay(tri_disc_spectrum):
    # Fejer-kernel-style bound: |psi_hat| under a PowerLaw(1.9) envelope
    psi_hat = tc.fourier_transform(tri_disc_spectrum.eigenfunction(0))
    out = tc.decay_check(psi_hat, tc.PowerLaw(1.9), 0.1, 2.0)
    assert out["ok"]
    assert out["C_fit"] > 0.0


def test_kernel_vanishing_triangle(tri_window, tri_disc_op):
    assert tc.kernel_vanishing_check(tri_window, tri_disc_op) is True


def test_kernel_vanishing_gaussian_skipped(gauss_window, gauss_disc_op):
    assert tc.kernel_vanishing_check(gauss_window, gauss_disc_op) is None


def test_kernel_vanishing_custom_box(gauss_grid):
    vals = np.where(np.abs(gauss_grid.times) <= 0.5, 1.0, 0.0)
    box = tc.make_window("custom", gauss_grid, samples=vals)
    op = tc.assemble(box, tc.Disc((0.0, 0.0), 1.0))
    assert tc.kernel_vanishing_check(box, op) is True


def _fourier_side(window, region):
    return tc.fourier_side_check(tc.eigendecompose(tc.assemble(window, region)), region)


def test_fourier_side_gaussian_disc(gauss_window):
    # centered disc and self-dual window: the two operators coincide
    out = _fourier_side(gauss_window, tc.Disc((0.0, 0.0), 1.5))
    assert out["max_eigenvalue_gap"] < 1e-8
    assert out["max_overlap_defect"] < 1e-6


def test_fourier_side_gaussian_rect(gauss_window):
    # no symmetry here: the quarter-turned region genuinely differs
    out = _fourier_side(gauss_window, tc.Rect(0.0, 1.0, 0.0, 2.0))
    assert out["max_eigenvalue_gap"] < 1e-6
    assert out["max_overlap_defect"] < 1e-4


def test_fourier_side_triangle_disc(tri_window):
    out = _fourier_side(tri_window, tc.Disc((0.0, 0.0), 1.0))
    assert out["max_eigenvalue_gap"] < 1e-5


@pytest.fixture(scope="module")
def hermite_disc():
    # the gaussian:pi window on its auto grid for the centered disc of radius 1.5
    region = tc.Disc((0.0, 0.0), 1.5)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region))
    return tc.eigendecompose(tc.assemble(window, region)), region


def test_hermite_benchmark(hermite_disc):
    out = tc.hermite_benchmark(*hermite_disc)
    assert len(out["overlaps"]) == 6
    assert np.min(out["overlaps"]) >= 0.99
    assert out["decay_slope"] < 0.0
    assert out["r2"] >= 0.95
    assert all(out["polynomial_beaten"].values())
    # disc eigenvalues are simple in this convention: all clusters singletons
    assert out["cluster_sizes"] == [1] * 6


def test_hermite_benchmark_matches_closed_form(hermite_disc):
    from scipy.special import gammainc

    out = tc.hermite_benchmark(*hermite_disc)
    expect = gammainc(np.arange(1, 7), math.pi * 1.5**2)
    assert np.max(np.abs(out["eigenvalues"][:6] - expect)) < 5e-3


def test_hermite_benchmark_rejects_other_widths(gauss_window, tri_disc_spectrum):
    # only the gaussian:pi window on a centred disc: not c = 2, not off-centre,
    # not the triangle
    region = tc.Disc((0.0, 0.0), 1.5)
    window = tc.make_window("gaussian", tc.auto_grid("gaussian", region, c=2.0), c=2.0)
    off_centre = tc.Disc((0.5, 0.0), 1.0)
    cases = [
        (tc.eigendecompose(tc.assemble(window, region)), region),
        (tc.eigendecompose(tc.assemble(gauss_window, off_centre)), off_centre),
        (tri_disc_spectrum, tc.Disc((0.0, 0.0), 1.0)),
    ]
    for spectrum, case_region in cases:
        with pytest.raises(tc.UnsupportedCaseError):
            tc.hermite_benchmark(spectrum, case_region)


def test_hermite_benchmark_past_computed_columns(hermite_disc):
    spectrum, region = hermite_disc
    short = tc.eigendecompose(spectrum.operator, vectors=5)  # 6 singleton clusters
    with pytest.raises(tc.DomainError, match="5 computed"):
        tc.hermite_benchmark(short, region)


def test_fourier_side_past_computed_columns(gauss_window):
    region = tc.Disc((0.0, 0.0), 1.5)
    short = tc.eigendecompose(tc.assemble(gauss_window, region), vectors=2)
    with pytest.raises(tc.DomainError, match="2 computed"):
        tc.fourier_side_check(short, region)
