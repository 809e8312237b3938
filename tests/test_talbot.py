"""P(tau) at rational revival times against an exact, truncation-free oracle.

At tau = (p/q) tau_rev every mode phase exp(-2 pi i n^2 p/q) is even and
q-periodic in n, so the mode sum collapses onto q shifted copies of the
initial state (the Talbot effect; Berry & Klein, J. Mod. Opt. 43, 2139
(1996)):

    psi(zeta) = sum_{k<q} a_k Psi0(zeta + 2 Lambda k/q)
    a_k = (1/q) sum_{m<q} exp(-2 pi i (p m^2 + k m)/q)

with Psi0 the odd, 2 Lambda-periodic extension of sqrt(2) sin(pi zeta) on
(0, 1).  Between the kinks of the copies |psi|^2 is a trigonometric
polynomial of frequency at most 2 pi over pieces at most 1 long, which
40-point Gauss-Legendre integrates to roundoff.  No mode is truncated, so
the oracle tests the reported error estimate of P, not just its value.
"""

import math

import numpy as np
import pytest

from causalbox import (SystemParams, build_spectrum, light_front,
                       time_scales, violation_probability)
from causalbox.cli import _mirrored_weight

PI = math.pi
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(40)


def _psi0(x, lam):
    """Odd, 2 Lambda-periodic extension of the released bump."""
    y = np.mod(x, 2.0 * lam)
    return np.where(y < 1.0, math.sqrt(2.0) * np.sin(PI * y),
                    np.where(y > 2.0 * lam - 1.0,
                             -math.sqrt(2.0) * np.sin(PI * (2.0 * lam - y)),
                             0.0))


def _talbot_amplitudes(p, q):
    m = np.arange(q)
    # integer exponents mod q, so no phase roundoff grows with m
    return np.array([np.exp(-2j * PI * ((p * m * m + k * m) % q) / q).sum()
                     for k in range(q)]) / q


def talbot_weight(lam, p, q, lo, hi):
    """int_lo^hi |psi(zeta, (p/q) tau_rev)|^2 dzeta, exactly up to roundoff."""
    amps = _talbot_amplitudes(p, q)
    shifts = 2.0 * lam * np.arange(q) / q
    kinks = [lo, hi]
    for shift in shifts:
        for u in (0.0, 1.0, 2.0 * lam - 1.0):
            first = math.ceil((lo - u + shift) / (2.0 * lam))
            z = u - shift + 2.0 * lam * first
            while z < hi:
                if z > lo:
                    kinks.append(z)
                z += 2.0 * lam
    edges = np.unique(kinks)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    zeta = (mid[:, None] + half[:, None] * _NODES).ravel()
    psi = sum(a * _psi0(zeta + shift, lam) for a, shift in zip(amps, shifts))
    dens = (np.abs(psi) ** 2).reshape(len(mid), -1)
    return float(half @ (dens @ _WEIGHTS))


class TestOracle:
    @pytest.mark.parametrize("p, q", [(1, 3), (5, 16), (3, 64), (7, 6)])
    def test_unitary(self, p, q):
        assert talbot_weight(5.0, p, q, 0.0, 5.0) == pytest.approx(
            1.0, abs=1e-13)

    def test_whole_period_is_the_initial_state(self):
        assert talbot_weight(5.0, 1, 1, 0.0, 1.0) == pytest.approx(
            1.0, abs=1e-14)
        assert talbot_weight(5.0, 1, 1, 1.0, 5.0) == 0.0

    def test_half_period_is_the_mirrored_state(self):
        # weight of sqrt(2) sin(pi (Lambda - zeta)) on the last w of the box
        lam = 5.0
        for w in (0.3, 0.75):
            exact = w - math.sin(2.0 * PI * w) / (2.0 * PI)
            assert talbot_weight(lam, 1, 2, lam - w, lam) == pytest.approx(
                exact, abs=1e-14)
        assert talbot_weight(lam, 1, 2, 0.0, lam - 1.0) <= 1e-30


# (s, Lambda): the front short of the far bump's near edge (saturated,
# u = 1: both times at Lambda 20, the quarter at Lambda 5) or inside it;
# at Lambda 1.5 < 2 the two copies of the quarter revival overlap, but not
# beyond the front
@pytest.mark.parametrize("s, lam", [(0.1, 2.0), (0.2, 5.0), (0.05, 20.0),
                                    (0.3, 1.5)])
def test_validate_closed_forms_are_talbot_weights(s, lam):
    # validate's specular_exact line: P = w(u) at tau_rev/2, w(u)/2 at
    # tau_rev/4, with u = clip(Lambda - 1 - tau, 0, 1)
    tau_rev = time_scales(SystemParams(s=s, lambda_factor=lam)).tau_revival
    for q, share in ((2, 1.0), (4, 0.5)):
        tau = tau_rev / q
        exact = talbot_weight(lam, 1, q, light_front(tau, lam), lam)
        assert share * _mirrored_weight(lam, tau) == pytest.approx(
            exact, abs=1e-12), (q, exact)


# s per Lambda keeps every (p/q) tau_rev inside the window [0, Lambda - 1]
SIZES = {2.0: 0.1, 5.0: 0.1, 20.0: 0.02}
FRACTIONS = [(1, 3), (2, 7), (5, 16), (1, 2), (3, 64), (7, 64), (13, 64),
             (31, 64), (11, 40), (17, 36), (23, 60), (9, 25), (19, 48),
             (1, 17), (7, 6)]


@pytest.fixture(scope="module", params=sorted(SIZES))
def default_spectrum(request):
    return build_spectrum(request.param)


def test_reported_error_bounds_the_true_error(default_spectrum):
    lam = default_spectrum.lambda_factor
    params = SystemParams(s=SIZES[lam], lambda_factor=lam)
    tau_rev = time_scales(params).tau_revival
    for p, q in FRACTIONS:
        tau = p / q * tau_rev
        assert tau < lam - 1.0, (p, q)
        value, err = violation_probability(default_spectrum, params, tau,
                                           full_output=True)
        exact = talbot_weight(lam, p, q, light_front(tau, lam), lam)
        assert abs(value - exact) <= err, (p, q, value, exact, err)
        assert err <= 3e-7, (p, q)


@pytest.mark.parametrize("lam, tol", [(2.0, 1e-2), (2.0, 1e-6),
                                      (5.0, 1e-4), (5.0, 1e-8),
                                      (20.0, 1e-6)])
def test_bound_holds_on_coarse_spectra(lam, tol):
    # the true error exceeds the discarded norm eps by up to 3.6x here, so
    # the projected term 2 sqrt(eps h) is what keeps the bound valid
    params = SystemParams(s=SIZES[lam], lambda_factor=lam)
    spectrum = build_spectrum(params, tol=tol)
    tau_rev = time_scales(params).tau_revival
    for p, q in FRACTIONS:
        tau = p / q * tau_rev
        value, err = violation_probability(spectrum, params, tau,
                                           full_output=True)
        exact = talbot_weight(lam, p, q, light_front(tau, lam), lam)
        assert abs(value - exact) <= err, (p, q, value, exact, err)
