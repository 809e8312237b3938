import math

import numpy as np
import pytest

from causalbox import (
    AdjudicationError,
    adjudicate_convention,
    asymptotic_result,
    asymptotic_series,
    asymptotic_violation,
    asymptotic_violation_closed,
    default_convention_record,
    free_violation_probability,
    free_wavefunction,
    integrate,
    momentum_amplitude,
    stationary_wavenumber,
)
from causalbox.freespace import _asym_integrand
from causalbox.quadrature import NumericalConvergenceError, QuadratureConfig

PI = math.pi


class TestMomentumAmplitude:
    def test_pole_limits(self):
        assert momentum_amplitude(PI) == pytest.approx(-1.0 / (2.0 * PI),
                                                       rel=1e-14)
        assert momentum_amplitude(-PI) == pytest.approx(1.0 / (2.0 * PI),
                                                        rel=1e-14)

    def test_reference_values(self):
        assert momentum_amplitude(0.0) == 0.0
        assert momentum_amplitude(PI / 2.0) == pytest.approx(
            -4.0 / (3.0 * PI**2), rel=1e-14)

    def test_odd(self):
        ks = np.linspace(0.01, 25.0, 400)
        assert np.max(np.abs(momentum_amplitude(ks)
                             + momentum_amplitude(-ks))) < 1e-16

    def test_continuity_through_pole(self):
        for eps in np.geomspace(1e-9, 1e-3, 7):
            for sign in (1.0, -1.0):
                val = momentum_amplitude(PI + sign * eps)
                assert abs(val + 1.0 / (2.0 * PI)) <= 0.1 * eps + 1e-15


class TestFreeWavefunction:
    def test_initial_reconstruction(self):
        assert abs(free_wavefunction(0.5, 0.0, 1.0)) == pytest.approx(
            math.sqrt(2.0), abs=1e-6)
        assert abs(free_wavefunction(1.5, 0.0, 1.0)) < 1e-6
        assert free_wavefunction(0.0, 0.3, 1.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            free_wavefunction(-0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            free_wavefunction(0.5, -0.1, 1.0)
        for method in ("auto", "erf", "quadrature", "stationary-phase"):
            with pytest.raises(ValueError, match="tau must be non-negative"):
                free_wavefunction(0.5, math.nan, 1.0, method=method)
        with pytest.raises(ValueError):
            free_wavefunction(0.5, 0.1, -1.0)
        with pytest.raises(ValueError):
            free_wavefunction(0.5, 0.1, 1.0, method="nonsense")

    def test_quadrature_route_matches_closed_form(self):
        cases = [(0.5, 0.3, 1.0), (2.0, 1.0, 2.0), (0.2, 2.0, 0.1),
                 (5.0, 3.0, 1.0), (0.9, 0.05, 4.0)]
        for zeta, tau, s in cases:
            exact = free_wavefunction(zeta, tau, s)
            quad = free_wavefunction(zeta, tau, s, method="quadrature")
            assert abs(quad - exact) < 5e-6, (zeta, tau, s)

    def test_quadrature_route_at_release(self):
        got = free_wavefunction(0.5, 0.0, 1.0, method="quadrature")
        assert abs(got - math.sqrt(2.0)) < 5e-5

    def test_quadrature_budget_failure(self):
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=0.0, max_subdivisions=3)
        with pytest.raises(NumericalConvergenceError) as err:
            free_wavefunction(1.5, 0.8, 1.0, quad_cfg=cfg, method="quadrature")
        assert err.value.error_estimate > 0

    def test_stationary_phase_switch_and_accuracy(self):
        # past the ratio threshold the quadrature route delegates
        sp = free_wavefunction(2e4, 2e4, 1.5, method="stationary-phase")
        quad = free_wavefunction(2e4, 2e4, 1.5, method="quadrature")
        assert quad == sp
        # and the leading-order form tracks the exact density at late times
        zeta, tau, s = 800.0, 900.0, 1.0
        exact = abs(free_wavefunction(zeta, tau, s)) ** 2
        approx = abs(free_wavefunction(zeta, tau, s,
                                       method="stationary-phase")) ** 2
        assert approx == pytest.approx(exact, rel=0.05)

    def test_unitarity_wide_domain(self):
        tau, s = 5.0, 1.0
        # momentum support dies off like kappa^-4 in weight; by zeta ~ 95 tau
        # the missing tail is below 1e-5
        upper = 95.0 * tau / s
        cuts = np.linspace(0.0, upper, 1200)[1:-1]
        res = integrate(
            lambda z: np.abs(free_wavefunction(z, tau, s)) ** 2,
            0.0, upper,
            QuadratureConfig(abs_tol=1e-8, rel_tol=0.0, max_subdivisions=30000,
                             breakpoints=tuple(cuts)))
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-4)


def test_stationary_wavenumber():
    assert stationary_wavenumber(1.0, 0.7) == pytest.approx(0.7, rel=1e-15)
    assert stationary_wavenumber(0.0, 0.7) == 0.0
    assert stationary_wavenumber(2.0, 0.5) == 1.0
    with pytest.raises(ValueError):
        stationary_wavenumber(-1.0, 0.5)


class TestFreeViolation:
    def test_vanishes_at_release(self):
        assert free_violation_probability(1e-3, 1.0) == pytest.approx(
            0.0, abs=1e-3)

    def test_is_probability(self):
        for tau, s in ((0.5, 0.3), (3.0, 1.0), (40.0, 2.0)):
            p = free_violation_probability(tau, s)
            assert -1e-6 <= p <= 1.0 + 1e-6

    def test_long_time_approaches_asymptotic(self):
        p = free_violation_probability(1000.0, 1.0)
        assert p == pytest.approx(asymptotic_violation(1.0), abs=0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            free_violation_probability(0.0, 1.0)
        with pytest.raises(ValueError):
            free_violation_probability(1.0, -1.0)


class TestAsymptoticIntegral:
    def test_empty_integral(self):
        assert asymptotic_violation(0.0) == 1.0

    def test_integrand_regular_at_pi(self):
        assert _asym_integrand(np.array([PI]))[0] == pytest.approx(
            1.0 / (4.0 * PI**2), rel=1e-14)
        for eps in (1e-7, -1e-7, 1e-4):
            val = _asym_integrand(np.array([PI + eps]))[0]
            assert abs(val - 1.0 / (4.0 * PI**2)) < 1e-4

    def test_value_at_one_against_riemann(self):
        # second, independent scheme: plain midpoint with a million panels
        n = 1_000_000
        mids = (np.arange(n) + 0.5) / n
        riemann = 1.0 - 4.0 * PI * _asym_integrand(mids).sum() / n
        mine = asymptotic_violation(1.0)
        assert mine == pytest.approx(riemann, abs=1e-8)
        assert mine == pytest.approx(0.960231973138, abs=1e-9)

    def test_monotone_decreasing(self):
        svals = np.linspace(0.0, 12.0, 25)
        pvals = [asymptotic_violation(s) for s in svals]
        assert all(a >= b - 1e-12 for a, b in zip(pvals, pvals[1:]))

    def test_normalization_with_tail_bound(self):
        # int_S^inf (theta^2-pi^2)^-2 in closed form bounds the remainder
        S = 2000.0
        tail = (1.0 / (S - PI) + 1.0 / (S + PI)
                - math.log((S + PI) / (S - PI)) / PI) / (4.0 * PI**2)
        p_tail = asymptotic_violation(S)
        assert 0.0 <= p_tail <= 4.0 * PI * tail + 1e-9
        assert 4.0 * PI * tail < 1e-6


class TestClosedForm:
    def test_matches_integral_under_doubled_limit(self):
        for arg in np.geomspace(0.05, 50.0, 30):
            lhs = asymptotic_violation_closed(float(arg))
            rhs = asymptotic_violation(2.0 * PI * float(arg))
            assert abs(lhs - rhs) < 1e-8, arg

    def test_rescaled_convention(self):
        for s in (0.5, 1.0, 2.0, 6.0):
            assert asymptotic_violation_closed(s, convention="rescaled") == \
                pytest.approx(asymptotic_violation(s), abs=1e-8)

    def test_vanishes_at_large_argument(self):
        assert asymptotic_violation_closed(1e4) == pytest.approx(0.0, abs=1e-10)

    def test_removable_point_at_half(self):
        center = asymptotic_violation_closed(0.5)
        for eps in (1e-7, -1e-7):
            assert asymptotic_violation_closed(0.5 + eps) == pytest.approx(
                center, abs=1e-5)
        # the sin^2 factor contributes nothing exactly at 1/2
        assert center == pytest.approx(asymptotic_violation(PI), abs=1e-8)

    def test_domain_and_convention_validation(self):
        with pytest.raises(ValueError):
            asymptotic_violation_closed(0.0)
        with pytest.raises(ValueError):
            asymptotic_violation_closed(1.0, convention="bogus")


class TestSeries:
    def test_reference_values(self):
        assert asymptotic_series(0.0) == 1.0
        assert asymptotic_series(0.05) == pytest.approx(1.0 - (4.0 / 3.0) * 1e-3,
                                                        rel=1e-14)
        with pytest.raises(ValueError):
            asymptotic_series(-0.1)

    def test_cubic_coefficient_fit(self):
        # least-squares c in 1 - c*arg^3 against the integral route
        args = np.geomspace(1e-3, 1e-2, 8)
        defect = np.array([1.0 - asymptotic_violation(2.0 * PI * a)
                           for a in args])
        c = float(defect @ args**3 / (args**3 @ args**3))
        assert c == pytest.approx(32.0 / 3.0, rel=0.01)


class TestAdjudication:
    def test_reduced_units_win(self):
        record = default_convention_record()
        assert record.convention == "reduced"
        assert record.matched_residual <= 0.02
        # the rival reading is off by more than half at s = 1
        idx = record.samples.index(1.0)
        assert record.residuals_nonreduced[idx] > 0.5
        assert all(record.informative)

    def test_record_mappings(self):
        record = default_convention_record()
        assert record.closed_form_argument(2.0 * PI) == pytest.approx(1.0)
        assert record.reduced_size(1.0) == pytest.approx(2.0 * PI)
        assert record.canonical_violation(1.0) == pytest.approx(
            asymptotic_violation(1.0), rel=1e-12)

    def test_degenerate_samples_excluded(self):
        record = adjudicate_convention(s_samples=(1e-4, 1.0), tau_large=300.0)
        assert record.informative == (False, True)
        assert record.convention == "reduced"

    def test_all_degenerate_fails(self):
        with pytest.raises(AdjudicationError):
            adjudicate_convention(s_samples=(1e-5,), tau_large=300.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            adjudicate_convention(s_samples=(), tau_large=1000.0)
        with pytest.raises(ValueError):
            adjudicate_convention(s_samples=(1.0,), tau_large=50.0)

    def test_shorter_evolution_larger_residual_same_verdict(self):
        early = adjudicate_convention(s_samples=(1.0, 2.0), tau_large=100.0)
        late = adjudicate_convention(s_samples=(1.0, 2.0), tau_large=1000.0)
        assert early.convention == late.convention == "reduced"
        assert early.matched_residual > late.matched_residual


def test_asymptotic_result_columns_agree():
    record = default_convention_record()
    res = asymptotic_result(1.0, record)
    assert res.p_quadrature == pytest.approx(asymptotic_violation(1.0),
                                             rel=1e-12)
    assert res.p_closed == pytest.approx(res.p_quadrature, abs=1e-8)
    small = asymptotic_result(0.05, record)
    assert small.p_series == pytest.approx(small.p_quadrature, rel=1e-4)
