import math

import mpmath
import numpy as np
import pytest

from causalbox import (
    ModeSpectrum,
    SystemParams,
    build_spectrum,
    coefficient_ratio,
    density_norm,
    density_snapshot,
    initial_state,
    mode_coefficient,
    parseval_partial_sum,
    profile_spectrum,
    time_scales,
    wavefunction,
)
from causalbox import boxmodes
from causalbox.boxmodes import (_MAX_MODES, _tail_amplitude_bound,
                                _tail_weight_bound, profile_lattice)
from causalbox.cli import _zeta_grid
from causalbox.freespace import _psi_erf

PI = math.pi


class TestCoefficients:
    def test_resonant_limit(self):
        # n = Lambda is a removable 0/0 with limit -pi/(2 Lambda^2)
        assert coefficient_ratio(5, 5.0) == pytest.approx(-PI / 50.0, rel=1e-14)
        assert math.isfinite(coefficient_ratio(5, 5.0))

    def test_near_resonance_matches_first_order_expansion(self):
        lam = 5.0
        for eps in (1e-7, -1e-7):
            nu = lam * (1.0 + eps)
            expected = -PI / (2 * lam**2) + PI * (nu - lam) / (4 * lam**3)
            assert coefficient_ratio(nu, lam) == pytest.approx(
                expected, abs=1e-15)

    def test_off_resonance_value(self):
        # sin(pi/5)/(1 - 25), frozen from high-precision arithmetic
        assert coefficient_ratio(1, 5.0) == pytest.approx(
            -0.024491052178853, rel=1e-12)
        assert coefficient_ratio(1, 5.0) == pytest.approx(
            math.sin(PI / 5.0) / (1.0 - 25.0), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            coefficient_ratio(0, 5.0)
        with pytest.raises(ValueError):
            mode_coefficient(-3, 5.0)
        with pytest.raises(ValueError):
            mode_coefficient(1, 0.9)

    def test_resonant_amplitude(self):
        # b_Lambda = sqrt(2)/Lambda under the real-coefficient convention
        assert mode_coefficient(5, 5.0) == pytest.approx(
            math.sqrt(2.0) / 5.0, rel=1e-14)

    def test_high_mode_decay(self):
        lam = 5.0
        n = np.array([100, 200, 400, 800])
        b = np.abs(mode_coefficient(n, lam))
        bound = (2 * math.sqrt(2) * lam / PI) / (n**2 - lam**2)
        assert np.all(b <= bound * (1 + 1e-12))


class TestBuildSpectrum:
    def test_tolerance_validation(self):
        for bad in (0.0, 1.0, -1e-3, 2.0):
            with pytest.raises(ValueError):
                build_spectrum(5.0, tol=bad)

    def test_non_finite_lambda(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                build_spectrum(bad)

    def test_parseval_within_tail_bound(self, spectrum_lam5, profile_lam5):
        for spec in (spectrum_lam5, profile_lam5):
            eps = 1.0 - spec.parseval_weight()
            assert 0.0 <= eps <= spec.tail_bound
            assert spec.tail_bound <= 1e-10

    def test_loose_tolerance(self):
        spec = build_spectrum(5.0, tol=0.5)
        eps = 1.0 - spec.parseval_weight()
        assert 0.0 <= eps <= 0.5
        assert spec.max_mode < 40

    def test_degenerate_lambda_one(self):
        spec = build_spectrum(1.0, tol=1e-10)
        assert spec.coefficients[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert np.max(np.abs(spec.coefficients[1:])) < 1e-15
        assert spec.parseval_weight() == pytest.approx(1.0, abs=1e-14)

    def test_accepts_params_object(self, params_s02):
        spec = build_spectrum(params_s02)
        assert spec.lambda_factor == 5.0

    def test_default_truncation(self):
        # the norm criterion alone by default; profiles add the sup-norm cut
        for lam, n_max in ((2.0, 2211), (5.0, 5528), (20.0, 22110)):
            assert build_spectrum(lam).max_mode == n_max
        for lam, n_max in ((2.0, 18007), (5.0, 45016), (20.0, 180064)):
            assert build_spectrum(lam, uniform_tol=1e-4).max_mode == n_max
            assert profile_spectrum(lam).max_mode == n_max

    def test_tight_tolerance_keeps_a_positive_tail_bound(self):
        # the weight bound used to cancel to -2.0e-18 at N = 1 792 112
        spec = build_spectrum(5.0, tol=1e-14)
        assert 0.0 < spec.tail_bound <= 1e-14
        assert _tail_weight_bound(1e6, 5.0) == pytest.approx(
            1.688686394e-17, rel=1e-9)

    def test_mode_cap_refused_before_allocation(self, monkeypatch):
        # the Lambda = 100 profile spectrum is the largest one in use
        assert profile_spectrum(100.0).max_mode == 900317 <= _MAX_MODES

        def no_allocation(*args):
            raise AssertionError("coefficients allocated past the mode cap")
        monkeypatch.setattr(boxmodes, "mode_coefficient", no_allocation)
        for call in (lambda: build_spectrum(1e5),
                     lambda: profile_spectrum(5.0, tol=1e-20),
                     lambda: build_spectrum(5.0, tol=1e-30)):
            with pytest.raises(ValueError, match="^tol=.* at Lambda=") as exc:
                call()
            assert "\n" not in str(exc.value)


@pytest.mark.parametrize("lam", [2.0, 5.0, 20.0])
def test_tail_bounds_against_mpmath(lam):
    # (2/pi^2)(x/(1-x^2) - atanh x) and (2 sqrt 2/pi) atanh x, x = Lambda/N
    n_lo = math.ceil(lam) + 1
    ns = sorted({n_lo, n_lo + 1, n_lo + 7, *np.unique(
        np.round(np.geomspace(n_lo + 2, 1e8, 120)).astype(int)).tolist()})
    weights, amplitudes = [], []
    with mpmath.workdps(40):
        for n in ns:
            x = mpmath.mpf(lam) / n
            w = 2 / mpmath.pi**2 * (x / (1 - x**2) - mpmath.atanh(x))
            a = 2 * mpmath.sqrt(2) / mpmath.pi * mpmath.atanh(x)
            weights.append(_tail_weight_bound(n, lam))
            amplitudes.append(_tail_amplitude_bound(n, lam))
            assert abs(weights[-1] - w) <= 1e-12 * w, n
            assert abs(amplitudes[-1] - a) <= 1e-12 * a, n
    for values in (weights, amplitudes):
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))


class TestWavefunction:
    def test_initial_reconstruction(self, profile_lam5):
        amp = wavefunction(profile_lam5, 0.2, 0.5, 0.0)
        assert abs(amp) == pytest.approx(math.sqrt(2.0), abs=1e-6)
        # released profile is positive on (0, 1) under the phase convention
        assert amp.real > 0 and abs(amp.imag) < 1e-12

    def test_initially_confined(self, profile_lam5):
        assert abs(wavefunction(profile_lam5, 0.2, 1.7, 0.0)) < 1e-6
        assert abs(wavefunction(profile_lam5, 0.2, 3.9, 0.0)) < 1e-6

    def test_walls_exact_zero(self, profile_lam5):
        assert wavefunction(profile_lam5, 0.2, 0.0, 0.37) == 0.0
        assert wavefunction(profile_lam5, 0.2, 5.0, 0.37) == 0.0

    def test_domain_errors(self, profile_lam5):
        with pytest.raises(ValueError):
            wavefunction(profile_lam5, 0.2, -0.1, 0.0)
        with pytest.raises(ValueError):
            wavefunction(profile_lam5, 0.2, 5.1, 0.0)
        with pytest.raises(ValueError):
            wavefunction(profile_lam5, 0.2, 1.0, -0.1)
        for bad_tau in (math.inf, math.nan):
            with pytest.raises(ValueError):
                wavefunction(profile_lam5, 0.2, 1.0, bad_tau)
        with pytest.raises(ValueError):
            wavefunction(profile_lam5, -0.2, 1.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_zeta_rejected(self, profile_lam5, bad):
        with pytest.raises(ValueError, match="finite"):
            wavefunction(profile_lam5, 0.2, bad, 0.37)
        grid = np.linspace(0.0, 5.0, 11)
        grid[4] = bad
        with pytest.raises(ValueError, match="finite"):
            wavefunction(profile_lam5, 0.2, grid, 0.37)

    def test_specular_revival_modulus(self, profile_lam5):
        # the 1e-4 sup bound is the sup-norm cut's
        s = 0.1
        tau_spec = time_scales(SystemParams(s=s, lambda_factor=5.0)).tau_specular
        zg = np.linspace(0.0, 5.0, 801)
        revived = np.abs(wavefunction(profile_lam5, s, zg, tau_spec))
        mirrored = np.abs(initial_state(5.0 - zg))
        assert np.max(np.abs(revived - mirrored)) < 1e-4

    def test_exact_periodicity(self, profile_lam5):
        s = 0.7
        tau_rev = time_scales(SystemParams(s=s, lambda_factor=5.0)).tau_revival
        zg = np.linspace(0.0, 5.0, 201)
        before = wavefunction(profile_lam5, s, zg, 1.234)
        after = wavefunction(profile_lam5, s, zg, 1.234 + tau_rev)
        assert np.max(np.abs(before - after)) < 1e-10

    def test_images_identity(self, profile_lam5):
        # the Dirichlet box propagator is a sum of free half-line ones, so
        # the box profile is the free closed form summed over images
        # zeta + 2 k Lambda; with |k| <= 1000 the two agree to 2e-7
        zeta = np.linspace(0.0, 5.0, 101)[1:-1]
        tau, s = 0.02, 0.1
        images = sum(_psi_erf(zeta + 2.0 * k * 5.0, tau, s)
                     for k in range(-1000, 1001))
        box = wavefunction(profile_lam5, s, zeta, tau)
        assert np.max(np.abs(images - box)) <= 1e-6

    def test_block_boundaries_do_not_matter(self, profile_lam5):
        # array evaluation must equal per-point evaluation to tight roundoff
        zg = np.linspace(0.3, 4.9, 7)
        arr = wavefunction(profile_lam5, 0.2, zg, 0.37)
        pts = np.array([wavefunction(profile_lam5, 0.2, float(z), 0.37)
                        for z in zg])
        assert np.max(np.abs(arr - pts)) < 1e-12


def _pointwise(spectrum, s, zeta, tau):
    """Reference: one dense-sum scalar call per point."""
    return np.array([wavefunction(spectrum, s, float(z), tau) for z in zeta])


def _first_modes(lam, n_max):
    """The expansion cut at exactly n_max modes, whatever its tails."""
    return ModeSpectrum(lambda_factor=lam, max_mode=n_max,
                        coefficients=mode_coefficient(
                            np.arange(1, n_max + 1), lam),
                        tail_bound=math.inf, amplitude_tail_bound=math.inf)


class TestDenseKernel:
    """Off-lattice points take the factored dense sum (n = aB + b, angle
    addition); it must equal the plain sum over n point by point."""

    SPECTRA = {
        "lam1_N1": lambda: _first_modes(1.0, 1),
        "lam2": lambda: profile_spectrum(2.0),
        "lam4.7": lambda: profile_spectrum(4.7),
        "lam20": lambda: profile_spectrum(20.0),
        "square": lambda: _first_modes(3.3, 2499),  # N + 1 = 50^2
        "prime": lambda: _first_modes(3.3, 2002),  # N + 1 = 2003
    }

    @pytest.fixture(scope="class", params=sorted(SPECTRA))
    def spectrum(self, request):
        return self.SPECTRA[request.param]()

    @staticmethod
    def _oracle(spectrum, s, zeta, tau):
        """Plain per-point sum, phases from the unreduced law."""
        lam = spectrum.lambda_factor
        n = np.arange(1, spectrum.max_mode + 1, dtype=float)
        c = spectrum.coefficients * np.exp(
            -1j * PI**2 * n**2 * tau / (2.0 * lam**2 * s))
        return np.array([np.sum(c * np.sin(n * PI * z / lam)) for z in zeta])

    def test_matches_plain_sum(self, spectrum):
        lam, s, tau = spectrum.lambda_factor, 0.3, 0.731
        zeta = np.array([1e-12, lam - 1e-12, 1.0 - 1e-9, 1.0 + 1e-9,
                         0.5 * math.sqrt(2.0), lam / math.e, lam / PI])
        zeta = zeta[zeta < lam]
        assert profile_lattice(spectrum, zeta) is None
        amp = wavefunction(spectrum, s, zeta, tau)
        ref = self._oracle(spectrum, s, zeta, tau)
        assert np.max(np.abs(amp - ref)) <= 1e-12

    def test_batch_over_several_blocks_equals_single_points(self):
        # a block holds about 1e6 / (A + B) points, 1177 at N = 180 064,
        # so this batch spans four blocks
        spec = profile_spectrum(20.0)
        zeta = np.sort(np.random.default_rng(11).uniform(0.0, 20.0, 4001))
        amp = wavefunction(spec, 0.3, zeta, 0.731)
        picks = np.unique(np.concatenate(
            [np.arange(0, 4001, 160), np.arange(1170, 1185), [4000]]))
        ref = _pointwise(spec, 0.3, zeta[picks], 0.731)
        assert np.max(np.abs(amp[picks] - ref)) <= 1e-12


class TestLatticeProfiles:
    """Lattice grids take the folded sine transform; it must equal the
    dense sum that scalars and off-lattice grids take."""

    @pytest.fixture(scope="class", params=[2.0, 4.7, 20.0])
    def spectrum(self, request):
        return profile_spectrum(request.param)

    @staticmethod
    def _grids(lam):
        rng = np.random.default_rng(7)
        lattice = np.linspace(0.0, lam, 61)
        # repeated points, and one adjacent pair so the lattice is M = 60
        subset = rng.permutation(np.concatenate(
            [rng.choice(lattice, 12, replace=False), lattice[[0, 7, 7, 8, 60]]]))
        return {"cli": (_zeta_grid(lam, lam / 40), 40),
                "linspace": (np.linspace(0.0, lam, 33), 32),
                "subset": (subset, 60)}

    @pytest.mark.parametrize("when", ["generic", "specular"])
    def test_lattice_equals_pointwise(self, spectrum, when):
        lam, s = spectrum.lambda_factor, 0.3
        tau = 0.731 if when == "generic" else 2.0 * lam * lam * s / PI
        for name, (grid, m) in self._grids(lam).items():
            assert profile_lattice(spectrum, grid) == m, name
            amp = wavefunction(spectrum, s, grid, tau)
            ref = _pointwise(spectrum, s, grid, tau)
            assert np.max(np.abs(amp - ref)) <= 1e-12, name

    def test_walls_exact_zero(self, spectrum):
        lam = spectrum.lambda_factor
        amp = wavefunction(spectrum, 0.3, np.linspace(0.0, lam, 11), 0.731)
        assert amp[0] == 0.0 and amp[-1] == 0.0

    def test_step_on_a_finer_common_lattice(self):
        # multiples of 0.003 and then 4.7: no gap is 4.7/M for the M of the
        # smallest gap, but every gap is a multiple of 0.001
        spec = profile_spectrum(4.7)
        grid = _zeta_grid(4.7, 0.003)
        assert profile_lattice(spec, grid) == 4700
        amp = wavefunction(spec, 0.3, grid, 0.731)
        ref = _pointwise(spec, 0.3, grid, 0.731)
        assert np.max(np.abs(amp - ref)) <= 1e-12

    def test_point_off_lattice_takes_dense_path(self, spectrum):
        lam = spectrum.lambda_factor
        grid = np.linspace(0.0, lam, 21)
        grid[9] += 1e-9
        assert profile_lattice(spectrum, grid) is None
        amp = wavefunction(spectrum, 0.3, grid, 0.731)
        ref = _pointwise(spectrum, 0.3, grid, 0.731)
        assert np.max(np.abs(amp - ref)) <= 1e-12

    def test_lattice_finer_than_spectrum_takes_dense_path(self):
        spec = build_spectrum(5.0, tol=0.5)
        widest = 2 * spec.max_mode + 2
        assert profile_lattice(spec, np.linspace(0.0, 5.0, widest + 1)) == widest
        grid = np.linspace(0.0, 5.0, widest + 2)
        assert profile_lattice(spec, grid) is None
        amp = wavefunction(spec, 0.3, grid, 0.731)
        ref = _pointwise(spec, 0.3, grid, 0.731)
        assert np.max(np.abs(amp - ref)) <= 1e-12

    def test_scalars_and_single_points_take_dense_path(self, spectrum):
        assert profile_lattice(spectrum, 0.5) is None
        assert profile_lattice(spectrum, [0.5, 0.5]) is None


class TestDensity:
    def test_snapshot_initial_profile(self, profile_lam5):
        zg = np.linspace(0.0, 5.0, 501)
        rho = density_snapshot(profile_lam5, 0.2, zg, 0.0)
        expected = np.where((zg > 0) & (zg < 1),
                            2.0 * np.sin(PI * zg) ** 2, 0.0)
        assert np.max(np.abs(rho - expected)) < 1e-5

    def test_snapshot_specular_support(self, profile_lam5, params_s01):
        tau_spec = time_scales(params_s01).tau_specular
        zg = np.linspace(0.0, 3.9, 400)
        rho = density_snapshot(profile_lam5, params_s01.s, zg, tau_spec)
        assert np.max(rho) < 1e-4

    def test_snapshot_grid_validation(self, profile_lam5):
        with pytest.raises(ValueError):
            density_snapshot(profile_lam5, 0.2, np.array([]), 0.0)
        with pytest.raises(ValueError):
            density_snapshot(profile_lam5, 0.2, np.array([0.5, 0.4]), 0.0)

    def test_unitarity_at_generic_time(self, profile_lam5):
        norm = density_norm(profile_lam5, 0.2, 0.37)
        assert norm == pytest.approx(1.0, abs=1e-8)

    def test_norm_is_time_independent(self, profile_lam5, rng):
        norms = [density_norm(profile_lam5, 0.7, t)
                 for t in rng.uniform(0.0, 20.0, 5)]
        assert np.max(np.abs(np.diff(norms))) < 1e-13


class TestParseval:
    @pytest.mark.parametrize("lam", [1.0, 2.0, 5.0, 4.7])
    def test_identity(self, lam):
        n_terms = build_spectrum(lam, tol=1e-9).max_mode
        assert parseval_partial_sum(lam, n_terms) == pytest.approx(1.0, abs=1e-8)

    def test_needs_terms(self):
        with pytest.raises(ValueError):
            parseval_partial_sum(5.0, 0)
