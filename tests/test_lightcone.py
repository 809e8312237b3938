import math

import numpy as np
import pytest

from causalbox import (
    SystemParams,
    build_spectrum,
    default_sweep_grid,
    integrate,
    light_front,
    time_scales,
    violation_probability,
    wavefunction,
)
from causalbox.boxmodes import _phases
from causalbox.lightcone import _pairwise_value
from causalbox.quadrature import QuadratureConfig

PI = math.pi


def test_light_front_values():
    assert light_front(0.0, 5.0) == 1.0
    assert light_front(4.0, 5.0) == 5.0
    assert light_front(10.0, 5.0) == 5.0
    taus = np.linspace(0.0, 8.0, 50)
    fronts = np.array([light_front(t, 5.0) for t in taus])
    assert np.all(np.diff(fronts) >= 0)
    with pytest.raises(ValueError):
        light_front(-0.1, 5.0)
    with pytest.raises(ValueError):
        light_front(math.nan, 5.0)


def test_violation_vanishes_at_release(spectrum_lam5, params_s02):
    assert abs(violation_probability(spectrum_lam5, params_s02, 0.0)) < 1e-8


def test_violation_zero_once_front_arrives(spectrum_lam5, params_s02):
    assert violation_probability(spectrum_lam5, params_s02, 4.0) == 0.0
    assert violation_probability(spectrum_lam5, params_s02, 7.3) == 0.0


def test_total_breakdown_peak(spectrum_lam5, params_s01):
    tau_spec = time_scales(params_s01).tau_specular
    p = violation_probability(spectrum_lam5, params_s01, tau_spec)
    assert p >= 0.999
    assert p <= 1.0 + 1e-9


def test_marginal_peak_analytic(spectrum_lam5, params_s02):
    # at tau_spec the density is the mirrored initial profile, so the weight
    # beyond the front integrates in closed form
    tau_spec = time_scales(params_s02).tau_specular
    captured = 4.0 - 10.0 / PI
    expected = captured - math.sin(2.0 * PI * captured) / (2.0 * PI)
    p = violation_probability(spectrum_lam5, params_s02, tau_spec)
    assert p == pytest.approx(expected, abs=1e-3)
    assert p < 1.0 - 1e-3


@pytest.fixture(scope="module")
def small_spectrum():
    # lighter truncation keeps the dense-grid oracle affordable; the
    # uniform tail does not matter when both routes share the spectrum
    return build_spectrum(5.0, tol=1e-7)


class TestCrossRoutes:

    @pytest.mark.parametrize("s,tau", [(0.2, 0.37), (0.5, 1.1), (1.0, 2.6)])
    def test_pairwise_vs_quadrature_vs_riemann(self, small_spectrum, s, tau):
        params = SystemParams(s=s, lambda_factor=5.0)
        front = light_front(tau, 5.0)
        p_pair = violation_probability(small_spectrum, params, tau)
        p_quad = violation_probability(small_spectrum, params, tau,
                                       method="quadrature")
        n = 100_000
        mids = front + (np.arange(n) + 0.5) * (5.0 - front) / n
        dens = np.abs(wavefunction(small_spectrum, s, mids, tau)) ** 2
        p_riemann = dens.sum() * (5.0 - front) / n
        assert p_pair == pytest.approx(p_riemann, abs=1e-6)
        assert p_quad == pytest.approx(p_riemann, abs=1e-6)

    def test_complement_identity(self, small_spectrum, params_s02):
        # P(tau) plus the weight inside the front reproduces the total norm
        tau = 1.1
        front = light_front(tau, 5.0)
        p, err = violation_probability(small_spectrum, params_s02, tau,
                                       full_output=True)
        inside = integrate(
            lambda z: np.abs(wavefunction(small_spectrum, params_s02.s,
                                          z, tau)) ** 2,
            0.0, front,
            QuadratureConfig(abs_tol=1e-9, rel_tol=0.0, max_subdivisions=20000,
                             breakpoints=tuple(np.linspace(
                                 0.0, front, small_spectrum.max_mode // 4)[1:-1])))
        assert inside.converged
        total = p + inside.value
        assert total == pytest.approx(small_spectrum.parseval_weight(),
                                      abs=err + inside.error_estimate + 1e-9)


def _double_sum_oracle(spectrum, s, tau, front):
    """sum_{n,m} c_n conj(c_m) int_front^Lambda sin(n k z) sin(m k z) dz.

    k = pi/Lambda.  Each integral from its antiderivative evaluated at both
    ends; phases from the unreduced dispersion law; no transform anywhere.
    """
    lam = spectrum.lambda_factor
    k = PI / lam
    n = np.arange(1, spectrum.max_mode + 1, dtype=float)
    c = spectrum.coefficients * np.exp(-1j * PI**2 * n * n * tau
                                       / (2.0 * lam * lam * s))
    d = n[:, None] - n[None, :]
    p = n[:, None] + n[None, :]

    def antiderivative(z):
        same = z / 2.0 - np.sin(p * k * z) / (2.0 * p * k)
        with np.errstate(divide="ignore", invalid="ignore"):
            other = (np.sin(d * k * z) / (2.0 * d * k)
                     - np.sin(p * k * z) / (2.0 * p * k))
        return np.where(d == 0, same, other)

    total = c @ (antiderivative(lam) - antiderivative(front)) @ np.conj(c)
    assert abs(total.imag) <= 1e-14
    return total.real


@pytest.mark.parametrize("lam, tol", [(2.0, 1e-3), (5.0, 1e-4)])
def test_pairwise_kernel_matches_double_sum(lam, tol):
    spectrum = build_spectrum(lam, tol=tol)
    assert spectrum.max_mode < 100
    # the last time is 3.5 revival periods at s = 0.05, Lambda = 2
    for s, tau, front in [(0.3, 0.2, 1.2), (1.0, 0.6, 1.45),
                          (0.2, 0.37, lam - 0.3), (0.05, 0.9, 1.9)]:
        value, _ = _pairwise_value(spectrum, s, tau, front)
        assert value == pytest.approx(
            _double_sum_oracle(spectrum, s, tau, front), abs=1e-13)


@pytest.mark.parametrize("s", [0.1, 0.7])
def test_reduced_phases_match_unreduced_law(profile_lam5, s):
    lam = profile_lam5.lambda_factor
    tau_rev = time_scales(SystemParams(s=s, lambda_factor=lam)).tau_revival
    n = np.arange(1, profile_lam5.max_mode + 1, dtype=float)
    for tau in (0.0, 0.37, 0.5 * tau_rev, 1.3 * tau_rev, 2.9 * tau_rev):
        arg = PI**2 * n * n * tau / (2.0 * lam * lam * s)
        diff = np.abs(_phases(profile_lam5, s, tau) - np.exp(-1j * arg))
        assert diff.max() <= 64.0 * np.finfo(float).eps * max(arg.max(), 1.0)


def test_unknown_method(spectrum_lam5, params_s02):
    with pytest.raises(ValueError):
        violation_probability(spectrum_lam5, params_s02, 0.5, method="magic")


def test_negative_tau(spectrum_lam5, params_s02):
    with pytest.raises(ValueError):
        violation_probability(spectrum_lam5, params_s02, -0.5)


@pytest.mark.parametrize("method", ["pairwise", "quadrature"])
def test_nan_tau_is_invalid_input(spectrum_lam5, params_s02, method):
    # NaN passes a `tau < 0` test; it must not reach the numerics
    with pytest.raises(ValueError, match="tau must be non-negative"):
        violation_probability(spectrum_lam5, params_s02, math.nan,
                              method=method)
    # the front has swept the box at any finite or infinite late time
    assert violation_probability(spectrum_lam5, params_s02, math.inf,
                                 method=method) == 0.0


def _sweep(spectrum, params, grid):
    """P and its error estimate at each time of grid, as the CLI sweeps it."""
    out = np.array([violation_probability(spectrum, params, float(tau),
                                          full_output=True) for tau in grid])
    return out[:, 0], out[:, 1]


class TestCurve:
    def test_window_endpoints(self, spectrum_lam5, params_s02):
        values, errors = _sweep(spectrum_lam5, params_s02, [0.0, 4.0, 5.0])
        assert np.all(np.abs(values) < 1e-6)
        # once the front reaches the wall the interval is empty: exact zero
        assert values[1] == 0.0 and values[2] == 0.0
        assert errors[0] > 0

    def test_values_stay_probabilities(self, spectrum_lam5, params_s02):
        grid = np.linspace(0.0, 4.0, 41)
        values, errors = _sweep(spectrum_lam5, params_s02, grid)
        tol = errors.max()
        assert np.all(values >= -tol)
        assert np.all(values <= 1.0 + tol)

    def test_second_peak_for_deep_confinement(self, spectrum_lam5, params_s01):
        grid = default_sweep_grid(params_s01, tau_step=0.02)
        values, _ = _sweep(spectrum_lam5, params_s01, grid)
        tau_spec = time_scales(params_s01).tau_specular
        near = np.abs(grid - tau_spec) < 0.06
        assert values[near].max() >= 0.999

    def test_small_violation_for_large_box(self, spectrum_lam5):
        params = SystemParams(s=4.0, lambda_factor=5.0)
        grid = np.linspace(0.0, 4.0, 81)
        values, _ = _sweep(spectrum_lam5, params, grid)
        assert values.max() <= 0.03


class TestSweepGrid:
    def test_contains_anchors(self, params_s01):
        grid = default_sweep_grid(params_s01)
        tau_spec = time_scales(params_s01).tau_specular
        assert grid[0] == 0.0
        assert grid[-1] == 4.0
        assert np.min(np.abs(grid - tau_spec)) < 1e-12

    def test_refinement_density(self, params_s01):
        step = 0.005
        grid = default_sweep_grid(params_s01, tau_step=step)
        tau_spec = time_scales(params_s01).tau_specular
        inside = grid[np.abs(grid - tau_spec) <= 0.045]
        gaps = np.diff(inside)
        assert gaps.max() <= step / 10.0 + 1e-12

    def test_no_refinement_when_peak_outside_window(self):
        params = SystemParams(s=4.0, lambda_factor=5.0)
        grid = default_sweep_grid(params, tau_step=0.01)
        assert grid[-1] == 4.0
        assert np.diff(grid).min() >= 0.01 - 1e-12

    def test_deterministic(self, params_s01):
        a = default_sweep_grid(params_s01)
        b = default_sweep_grid(params_s01)
        assert a.shape == b.shape
        assert np.all(a == b)
