import math

import mpmath
import numpy as np
import pytest

from causalbox import (
    AdjudicationError,
    adjudicate_convention,
    asymptotic_result,
    asymptotic_series,
    asymptotic_violation,
    asymptotic_violation_closed,
    free_violation_probability,
    free_wavefunction,
    integrate,
    momentum_amplitude,
    stationary_phase_wavefunction,
)
from causalbox import freespace
from causalbox.freespace import _asym_integrand, _upper_limit
from causalbox.quadrature import (NumericalConvergenceError, QuadratureConfig,
                                  QuadratureResult)

PI = math.pi


def propagator_oracle(zeta, tau, s):
    """psi(zeta, tau) from the image propagator, in 30-digit arithmetic.

    psi = sqrt(s/(2 pi i tau)) int_0^1 [e^{i s (zeta-y)^2/(2 tau)}
          - e^{i s (zeta+y)^2/(2 tau)}] sqrt(2) sin(pi y) dy

    Position space, so it shares nothing with the momentum-space erf form;
    the interval is split into equal panels, one per half-wave of the
    faster exponential plus two.
    """
    with mpmath.workdps(30):
        z, t, s = mpmath.mpf(zeta), mpmath.mpf(tau), mpmath.mpf(s)

        def kernel(y):
            return ((mpmath.expj(s * (z - y) ** 2 / (2 * t))
                     - mpmath.expj(s * (z + y) ** 2 / (2 * t)))
                    * mpmath.sqrt(2) * mpmath.sin(mpmath.pi * y))

        panels = int(mpmath.ceil(s * (z + 1) / (mpmath.pi * t))) + 2
        value = mpmath.quad(kernel, mpmath.linspace(0, 1, panels + 1))
        return complex(mpmath.sqrt(s / (2 * mpmath.pi * 1j * t)) * value)


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
        with pytest.raises(ValueError, match="tau must be non-negative"):
            free_wavefunction(0.5, math.nan, 1.0)
        with pytest.raises(ValueError):
            free_wavefunction(0.5, 0.1, -1.0)

    @pytest.mark.parametrize("zeta,tau,s", [
        (0.5, math.inf, 1.0), (0.5, 0.1, math.inf), (0.5, 0.1, math.nan),
        (math.nan, 0.1, 1.0), (np.array([0.5, math.inf]), 0.1, 1.0)])
    def test_non_finite_input_rejected(self, zeta, tau, s):
        # an infinite time used to return nan+nanj from the erf form
        with pytest.raises(ValueError, match="finite"):
            free_wavefunction(zeta, tau, s)
        with pytest.raises(ValueError, match="finite"):
            stationary_phase_wavefunction(zeta, tau, s)

    def test_closed_form_matches_propagator_oracle(self):
        # measured worst case 1.7e-13, at (800, 900, 1)
        cases = [(0.5, 0.3, 1.0), (2.0, 1.0, 2.0), (0.2, 2.0, 0.1),
                 (5.0, 3.0, 1.0), (0.9, 0.05, 4.0), (1.5, 0.8, 1.0),
                 (30.0, 40.0, 2.0), (1e-3, 0.5, 1.0), (800.0, 900.0, 1.0)]
        for zeta, tau, s in cases:
            got = free_wavefunction(zeta, tau, s)
            assert abs(got - propagator_oracle(zeta, tau, s)) <= 1e-12, \
                (zeta, tau, s)

    def test_array_input_keeps_shape(self):
        z = np.array([[0.0, 0.5], [1.5, 3.0]])
        got = free_wavefunction(z, 0.4, 1.0)
        assert got.shape == z.shape
        assert got[1, 0] == free_wavefunction(1.5, 0.4, 1.0)
        assert np.all(free_wavefunction(z, 0.0, 1.0).imag == 0.0)

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


class TestStationaryPhase:
    def test_tracks_exact_density_at_late_times(self):
        zeta, tau, s = 800.0, 900.0, 1.0
        exact = abs(free_wavefunction(zeta, tau, s)) ** 2
        approx = abs(stationary_phase_wavefunction(zeta, tau, s)) ** 2
        assert approx == pytest.approx(exact, rel=0.05)

    def test_ray_density_is_set_by_kappa0(self):
        # |psi|^2 = 4 pi s g(kappa0)^2 / tau with kappa0 = s zeta / tau
        tau, s = 50.0, 0.7
        zeta = np.array([0.0, 10.0, 50.0, 120.0])
        rho = np.abs(stationary_phase_wavefunction(zeta, tau, s)) ** 2
        want = 4.0 * PI * s * momentum_amplitude(s * zeta / tau) ** 2 / tau
        assert np.allclose(rho, want, rtol=1e-14, atol=0.0)
        assert isinstance(stationary_phase_wavefunction(50.0, tau, s), complex)

    def test_domain(self):
        with pytest.raises(ValueError, match="tau > 0"):
            stationary_phase_wavefunction(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            stationary_phase_wavefunction(-0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            stationary_phase_wavefunction(0.5, 1.0, 0.0)


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

    @pytest.mark.parametrize("tau,s", [(math.inf, 1.0), (math.nan, 1.0),
                                       (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_input_rejected(self, tau, s):
        # an infinite tau used to integrate over [0, inf] without returning
        with pytest.raises(ValueError, match="finite"):
            free_violation_probability(tau, s)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        def stalled(f, a, b, cfg):
            return QuadratureResult(value=0.5, error_estimate=3e-3,
                                    subdivisions_used=cfg.max_subdivisions,
                                    converged=False)

        monkeypatch.setattr(freespace, "integrate", stalled)
        with pytest.raises(NumericalConvergenceError) as err:
            free_violation_probability(2.0, 1.0)
        assert err.value.error_estimate > 0


class TestAsymptoticIntegral:
    def test_empty_integral(self):
        assert asymptotic_violation(0.0) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            asymptotic_violation(bad)

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

    def test_work_is_bounded_in_s(self, monkeypatch):
        # breakpoints stop at 4000 pi; one per pi up to s = 1e9 would be 3e8,
        # so the cap is checked at 1e5 (31 830 uncapped) before 1e9 runs
        cuts = []

        def counting(f, a, b, cfg):
            cuts.append(len(cfg.breakpoints))
            return integrate(f, a, b, cfg)

        monkeypatch.setattr(freespace, "integrate", counting)
        asymptotic_violation(1e5)
        assert cuts == [4000]
        assert abs(asymptotic_violation(1e9)) <= 1e-9
        assert cuts == [4000, 4000]

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
            assert asymptotic_violation_closed(s / (2.0 * PI)) == \
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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                asymptotic_violation_closed(bad)


class TestSeries:
    def test_reference_values(self):
        assert asymptotic_series(0.0) == 1.0
        assert asymptotic_series(0.05) == pytest.approx(1.0 - (4.0 / 3.0) * 1e-3,
                                                        rel=1e-14)
        with pytest.raises(ValueError):
            asymptotic_series(-0.1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="non-negative and finite"):
                asymptotic_series(bad)

    def test_cubic_coefficient_fit(self):
        # least-squares c in 1 - c*arg^3 against the integral route
        args = np.geomspace(1e-3, 1e-2, 8)
        defect = np.array([1.0 - asymptotic_violation(2.0 * PI * a)
                           for a in args])
        c = float(defect @ args**3 / (args**3 @ args**3))
        assert c == pytest.approx(32.0 / 3.0, rel=0.01)


class TestAdjudication:
    def test_reduced_units_win(self):
        record = adjudicate_convention()
        assert record.convention == "reduced"
        assert record.matched_residual <= 0.02
        # the rival reading is off by more than half at s = 1
        idx = record.samples.index(1.0)
        assert record.residuals_nonreduced[idx] > 0.5
        assert all(record.informative)

    def test_record_mappings(self):
        # (upper limit of the integral, closed-form argument) per convention
        assert _upper_limit(2.0 * PI, "reduced") == (2.0 * PI, 1.0)
        assert _upper_limit(1.0, "nonreduced") == (2.0 * PI, 1.0)
        for s in (0.3, 0.7654219560093865, 30.0):
            upper, arg = _upper_limit(s, "reduced")
            assert upper == s and arg == s / (2.0 * PI)
            upper, arg = _upper_limit(s, "nonreduced")
            assert upper == 2.0 * PI * s and arg == s
        for bad in ("auto", "Reduced", ""):
            with pytest.raises(ValueError, match="unknown convention"):
                _upper_limit(1.0, bad)
            with pytest.raises(ValueError, match="unknown convention"):
                asymptotic_result(1.0, bad)

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

    def test_nan_tau_large_names_its_argument(self):
        # NaN passes a `tau_large < bound` test and used to fail later,
        # in another function, about that function's argument
        with pytest.raises(ValueError, match="^tau_large must be at least") \
                as exc:
            adjudicate_convention(tau_large=math.nan)
        assert "\n" not in str(exc.value)

    def test_shorter_evolution_larger_residual_same_verdict(self):
        early = adjudicate_convention(s_samples=(1.0, 2.0), tau_large=100.0)
        late = adjudicate_convention(s_samples=(1.0, 2.0), tau_large=1000.0)
        assert early.convention == late.convention == "reduced"
        assert early.matched_residual > late.matched_residual


def test_asymptotic_result_columns_agree():
    for convention, upper in (("reduced", 1.0), ("nonreduced", 2.0 * PI)):
        res = asymptotic_result(1.0, convention)
        assert res.convention == convention
        assert res.p_quadrature == asymptotic_violation(upper)
        assert res.p_closed == pytest.approx(res.p_quadrature, abs=1e-8)
        small = asymptotic_result(0.05 / upper, convention)
        assert small.p_series == pytest.approx(small.p_quadrature, rel=1e-4)
