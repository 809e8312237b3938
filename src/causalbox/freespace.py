"""Release into semi-infinite space (no outer box) and its asymptotics.

Removing the outer wall entirely sends the particle into the half line
zeta > 0.  The evolved amplitude is the Fourier integral

    psi(zeta, tau) = i sqrt(2) int dkappa g(kappa)
                     exp(i kappa zeta - i kappa^2 tau / (2 s)),

    g(kappa) = sin(kappa) / (kappa^2 - pi^2),

taken over the whole real line; g is odd, analytic at kappa = +/-pi
(limits -/+ 1/(2 pi)), and encodes the momentum content of the released
ground state (odd-extended to (-1, 1), which implements the hard wall that
remains at zeta = 0).

Exact evaluation.  Splitting g over its two poles and completing the
square turns each piece into a Fresnel integral, giving a closed form in
the complex error function:

    psi = (i sqrt(2)/4) sum_{e1,e2 = +-1} e1 e2
          exp(i p b - i alpha p^2) erf(e^{-i pi/4} (b - 2 alpha p) / (2 sqrt(alpha)))

with b = zeta + e1, p = e2 pi, alpha = tau / (2 s).  The principal-value
poles introduced by the split cancel pairwise, so the sum is the exact
amplitude for every (zeta, tau, s); erf on the e^{-i pi/4} ray is bounded
and overflow-free.  It is the only evaluation path of ``free_wavefunction``:
it vectorizes and costs four erf calls per point even at tau in the
thousands.  The test suite checks it against an independent 30-digit
image-propagator integral in position space.

Asymptotics.  For tau -> infinity the stationary-phase point kappa0 = s y
(y = zeta/tau the ray variable) dominates, |psi|^2 ~ 4 pi s g(s y)^2/tau
(``stationary_phase_wavefunction``), and the weight beyond the light front
y > 1 tends to

    P(s) = 1 - 4 pi int_0^s sin^2(theta) / (theta^2 - pi^2)^2 dtheta,

which decreases from 1 to 0 as s grows (the total integral to infinity is
exactly 1/(4 pi)).  An antiderivative in tabulated functions exists; the
form implemented by ``asymptotic_violation_closed`` at argument sigma
reproduces the integral with upper limit 2 pi sigma, not sigma, i.e. its
natural argument is the confinement size in NON-reduced Compton
wavelengths (h/mc = 2 pi hbar/mc).  Published statements of the curve mix
the two conventions, so this module carries an adjudication oracle:
``adjudicate_convention`` compares the exact finite-time dynamics at large
tau against both candidate upper limits and records which one the dynamics
actually follow (the reduced reading, by a wide margin), rather than
baking either convention in silently.  The verdict is a plain string,
'reduced' or 'nonreduced'; ``asymptotic_result(s, convention)`` takes it,
and one private mapping turns it into the integral's upper limit (s or
2 pi s) and the closed form's argument (that limit over 2 pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

import numpy as np
from scipy.special import erf as _cerf

from .boxmodes import initial_state
from .quadrature import NumericalConvergenceError, QuadratureConfig, integrate
from .special import entire_cosine_integral, sine_integral

__all__ = [
    "AsymptoticResult",
    "ConventionRecord",
    "AdjudicationError",
    "momentum_amplitude",
    "free_wavefunction",
    "stationary_phase_wavefunction",
    "free_violation_probability",
    "asymptotic_violation",
    "asymptotic_violation_closed",
    "asymptotic_series",
    "adjudicate_convention",
    "asymptotic_result",
    "TAU_LARGE_MIN",
]

_PI = math.pi
# Adjudication needs at least this long an evolution to separate the
# candidate conventions.
TAU_LARGE_MIN = 100.0
# Cap on the oscillation-scale breakpoints of the free-space quadratures.
_MAX_CUTS = 4000
_FREE_VIOLATION_QUAD = QuadratureConfig(abs_tol=1e-7, rel_tol=0.0,
                                        max_subdivisions=30000)


class AdjudicationError(RuntimeError):
    """Neither candidate convention matches the exact dynamics.

    Raised by the adjudication oracle when the finite-time violation
    probability disagrees with both asymptotic readings beyond the hard
    threshold; indicates an implementation bug, not a physics ambiguity.
    """


def momentum_amplitude(kappa):
    """g(kappa) = sin(kappa)/(kappa^2 - pi^2), odd, regular at +/-pi.

    The pole nearer to kappa is absorbed into an exact sinc rewrite, so no
    0/0 or cancellation occurs anywhere on the real line; g(pi) = -1/(2 pi)
    and g(-pi) = +1/(2 pi) come out as the analytic limits.
    """
    k = np.asarray(kappa, dtype=float)
    near_pos = np.abs(k - _PI) < 1.0
    near_neg = np.abs(k + _PI) < 1.0
    near = near_pos | near_neg
    # away from the poles the plain quotient is exact where sin is (its
    # zeros at multiples of pi stay exact zeros)
    safe_den = np.where(near, 1.0, k * k - _PI * _PI)
    out = np.sin(k) / safe_den
    # within one unit of a pole, divide the root out analytically:
    # sin(k) = -sin(k -+ pi)
    u = np.where(near_pos, k - _PI, k + _PI)
    other = np.where(near_pos, k + _PI, k - _PI)
    out = np.where(near, -np.sinc(u / _PI) / np.where(near, other, 1.0), out)
    return float(out) if k.ndim == 0 else out


def _psi_erf(z: np.ndarray, tau: float, s: float) -> np.ndarray:
    """Exact closed form; tau > 0."""
    alpha = tau / (2.0 * s)
    rot = np.exp(-1j * _PI / 4.0)
    inv = 1.0 / (2.0 * math.sqrt(alpha))
    total = np.zeros(z.shape, dtype=complex)
    for e1 in (1.0, -1.0):
        for e2 in (1.0, -1.0):
            b = z + e1
            p = e2 * _PI
            total += (e1 * e2 * np.exp(1j * (b * p - alpha * p * p))
                      * _cerf(rot * (b - 2.0 * alpha * p) * inv))
    total[z == 0.0] = 0.0  # hard wall; the four terms cancel there exactly
    return 0.25j * math.sqrt(2.0) * total


def _checked_points(zeta, tau: float, s: float) -> np.ndarray:
    """Input checks shared by the free-space amplitudes; returns zeta as an array."""
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")
    if not 0 < s < math.inf:
        raise ValueError(f"confinement size s must be positive and finite, got {s}")
    z = np.asarray(zeta, dtype=float)
    if not np.all((z >= 0) & (z < math.inf)):
        raise ValueError("zeta must be non-negative (hard wall at 0) and finite")
    return z


def free_wavefunction(zeta, tau: float, s: float):
    """Amplitude of the semi-infinite release at (zeta, tau).

    The initial profile at tau = 0 and the exact erf closed form for
    tau > 0.  zeta may be a scalar (complex result) or an array (same
    shape); tau must be finite, since the amplitude decays to zero
    everywhere as tau grows (``asymptotic_violation`` gives the late-time
    violation probability).
    """
    z = _checked_points(zeta, tau, s)
    flat = np.atleast_1d(z)
    out = (_psi_erf(flat, tau, s) if tau > 0
           else initial_state(flat).astype(complex))
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


def stationary_phase_wavefunction(zeta, tau: float, s: float):
    """Leading-order late-time amplitude of the semi-infinite release.

    Along the ray zeta = y tau a single wavenumber kappa0 = s zeta/tau = s y
    is stationary, so

        psi ~ i sqrt(2) g(kappa0) sqrt(2 pi s/tau) exp(i s zeta^2/(2 tau) - i pi/4)

    and |psi|^2 ~ 4 pi s g(s y)^2/tau.  The reduced Compton wavelength is
    the unit of kappa0, which is why the late-time violation probability
    depends on s alone.  Needs 0 < tau < inf; zeta as in
    ``free_wavefunction``.
    """
    z = _checked_points(zeta, tau, s)
    if not tau > 0:
        raise ValueError(f"stationary-phase form needs tau > 0, got {tau}")
    k0 = s * z / tau
    amp = momentum_amplitude(k0) * math.sqrt(2.0 * _PI * s / tau)
    out = 1j * math.sqrt(2.0) * amp * np.exp(1j * (s * z * z / (2.0 * tau) - _PI / 4.0))
    return complex(out) if z.ndim == 0 else out


def free_violation_probability(tau: float, s: float, full_output: bool = False):
    """P(tau) = 1 - int_0^{1+tau} |psi|^2 dzeta for the semi-infinite release.

    The density is sampled through the exact closed form and integrated
    adaptively; pre-chunking at the O(1) interference scale keeps the
    refinement honest over windows thousands of units long.  tau must be
    finite; the tau -> infinity limit is ``asymptotic_violation(s)``.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau} "
                         "(the late-time limit is asymptotic_violation(s))")
    if not 0 < s < math.inf:
        raise ValueError(f"confinement size s must be positive and finite, got {s}")
    upper = 1.0 + tau
    n_chunks = int(min(_MAX_CUTS, max(8, 2.0 * upper)))
    cuts = np.linspace(0.0, upper, n_chunks + 1)[1:-1]
    cfg = replace(_FREE_VIOLATION_QUAD, breakpoints=tuple(cuts))
    res = integrate(lambda z: np.abs(_psi_erf(z, tau, s)) ** 2, 0.0, upper, cfg)
    if not res.converged:
        raise NumericalConvergenceError(
            f"free violation quadrature did not converge at tau={tau}, s={s}: "
            f"achieved {res.error_estimate:.3e}", res.error_estimate)
    value = 1.0 - float(res.value)
    return (value, res.error_estimate) if full_output else value


def _asym_integrand(theta: np.ndarray) -> np.ndarray:
    """sin^2(theta)/(theta^2 - pi^2)^2, exact through theta = pi.

    sin(theta) = -sin(theta - pi) lets the squared root at pi cancel into a
    sinc; the limit value 1/(4 pi^2) at theta = pi comes out directly.
    Valid for theta > -pi, which covers the integration range.
    """
    u = theta - _PI
    return (np.sinc(u / _PI) / (theta + _PI)) ** 2


def asymptotic_violation(s: float) -> float:
    """Late-time violation probability 1 - 4 pi int_0^s of the ray density.

    The argument is the confinement size in reduced Compton wavelengths.
    Decreases from 1 at s = 0 toward 0, crossing 1% a bit above s = 6.
    The decrease is monotone only to within the 1e-10 absolute tolerance
    past s = 4000 pi: there the last panel misses the tail, so the value
    sits near 1e-12 (4.8e-13 at s = 2e4, 1.06e-12 at 1e9) where the exact
    P falls like 2 pi / (3 s^3).
    """
    if not 0 <= s < math.inf:
        raise ValueError(f"confinement size must be non-negative and finite, got {s}")
    if s == 0.0:
        return 1.0
    # a breakpoint at each zero of sin up to _MAX_CUTS pi; P there is
    # 1.1e-12, which bounds what the one panel beyond it can miss
    n_cuts = min(int(s / _PI), _MAX_CUTS)
    cuts = tuple(k * _PI for k in range(1, n_cuts + 1))
    res = integrate(_asym_integrand, 0.0, float(s),
                    QuadratureConfig(abs_tol=1e-10, rel_tol=1e-12,
                                     max_subdivisions=20000, breakpoints=cuts))
    if not res.converged:
        raise NumericalConvergenceError(
            f"asymptotic violation quadrature did not converge at s={s}: "
            f"achieved {res.error_estimate:.3e}", res.error_estimate)
    return 1.0 - 4.0 * _PI * float(res.value)


def asymptotic_violation_closed(sigma: float) -> float:
    """Tabulated-function form of the asymptotic violation probability.

    Evaluated verbatim at sigma:

        1 - (1/pi)[Si(4 pi sigma - 2 pi) + Si(4 pi sigma + 2 pi)]
          + (4 sigma/pi^2) sin^2(2 pi sigma)/(4 sigma^2 - 1)
          - (1/2 pi^2)[Ci(4 pi sigma - 2 pi) - ln(2 pi sigma - pi)
                       - Ci(4 pi sigma + 2 pi) + ln(2 pi sigma + pi)]

    This expression equals ``asymptotic_violation`` with upper limit
    2 pi sigma (its natural argument is the size in non-reduced Compton
    wavelengths).  The middle term's 0/0 at sigma = 1/2 resolves to 0 and
    is evaluated through an exact sinc rewrite; the Ci-minus-log brackets
    are finite through sigma = 1/2 and are computed via the entire function
    Cin, never by subtracting singular pieces.  A reduced-unit size s maps
    to sigma = u/(2 pi), with u the upper limit that the convention gives
    (see ``asymptotic_result``).
    """
    if not 0 < sigma < math.inf:
        raise ValueError(f"argument must be positive and finite, got {sigma}")
    a = 4.0 * _PI * sigma - 2.0 * _PI
    b = 4.0 * _PI * sigma + 2.0 * _PI
    si_term = (sine_integral(a) + sine_integral(b)) / _PI
    # (4 sigma/pi^2) sin^2(2 pi sigma)/(4 sigma^2 - 1) with the shared root
    # at sigma = 1/2 divided out: sin(2 pi sigma) = -sin(pi (2 sigma - 1))
    t = 2.0 * sigma - 1.0
    sin_term = 4.0 * sigma * t * np.sinc(t) ** 2 / (2.0 * sigma + 1.0)
    ci_term = (entire_cosine_integral(a) - entire_cosine_integral(b)) / (2.0 * _PI**2)
    return 1.0 - si_term + float(sin_term) + ci_term


def asymptotic_series(arg: float) -> float:
    """Small-argument cubic law 1 - (4/3)(2 arg)^3 of the closed form."""
    if not 0 <= arg < math.inf:
        raise ValueError(f"argument must be non-negative and finite, got {arg}")
    return 1.0 - (4.0 / 3.0) * (2.0 * arg) ** 3


@dataclass(frozen=True)
class ConventionRecord:
    """Outcome of adjudicating the asymptotic-formula argument convention.

    convention            'reduced' if the integral form with upper limit s
                          (reduced Compton units) matches the exact
                          dynamics, 'nonreduced' if the 2 pi s reading does
    tau_large             evolution time used by the oracle
    samples               confinement sizes tested (reduced units)
    residuals_reduced     |P_free - candidate| per sample, reduced reading
    residuals_nonreduced  same for the 2 pi s reading
    informative           samples where the candidates actually differ
    matched_residual      worst residual of the winning candidate over the
                          informative samples
    """

    convention: str
    tau_large: float
    samples: Tuple[float, ...]
    residuals_reduced: Tuple[float, ...]
    residuals_nonreduced: Tuple[float, ...]
    informative: Tuple[bool, ...]
    matched_residual: float


@dataclass(frozen=True)
class AsymptoticResult:
    """P(s) by quadrature, closed form and series under one convention."""

    s: float
    p_quadrature: float
    p_closed: float
    p_series: float
    convention: str


def _upper_limit(s: float, convention: str) -> Tuple[float, float]:
    """Upper limit u of the asymptotic integral at size s, and u/(2 pi).

    u is s under the 'reduced' convention and 2 pi s under 'nonreduced';
    u/(2 pi) is the closed form's argument.  Both come straight from s, so
    neither carries the rounding of a multiply-then-divide.
    """
    if convention == "reduced":
        return s, s / (2.0 * _PI)
    if convention == "nonreduced":
        return 2.0 * _PI * s, s
    raise ValueError(f"unknown convention {convention!r}; "
                     "expected 'reduced' or 'nonreduced'")


def adjudicate_convention(s_samples: Sequence[float] = (0.5, 1.0, 2.0),
                          tau_large: float = 1000.0) -> ConventionRecord:
    """Decide the asymptotic argument convention against exact dynamics.

    Evolves the semi-infinite release to tau_large, integrates the weight
    beyond the light front, and compares with both candidate upper limits.
    Samples where the candidates agree too closely (within 0.1) carry no
    information and are excluded from the verdict, though their residuals
    are recorded.  The winner must match within 0.05 or the oracle raises
    AdjudicationError; a clean match is within 0.02.
    """
    if len(s_samples) == 0:
        raise ValueError("need at least one sample size")
    # written so that NaN fails too
    if not tau_large >= TAU_LARGE_MIN:
        raise ValueError(f"tau_large must be at least {TAU_LARGE_MIN:g} to "
                         f"separate the candidates cleanly, got {tau_large}")
    res_red, res_non, informative = [], [], []
    for s in s_samples:
        p_dyn = free_violation_probability(tau_large, s)
        cand_red = asymptotic_violation(_upper_limit(s, "reduced")[0])
        cand_non = asymptotic_violation(_upper_limit(s, "nonreduced")[0])
        res_red.append(abs(p_dyn - cand_red))
        res_non.append(abs(p_dyn - cand_non))
        informative.append(abs(cand_red - cand_non) >= 0.1)
    if not any(informative):
        raise AdjudicationError(
            "all samples are degenerate (candidates indistinguishable); "
            "choose sizes away from s -> 0")
    worst_red = max(r for r, keep in zip(res_red, informative) if keep)
    worst_non = max(r for r, keep in zip(res_non, informative) if keep)
    winner, worst = (("reduced", worst_red) if worst_red <= worst_non
                     else ("nonreduced", worst_non))
    if worst > 0.05:
        raise AdjudicationError(
            f"neither convention matches the exact dynamics within 0.05 "
            f"(best: {winner} at {worst:.4f}); implementation bug likely")
    return ConventionRecord(
        convention=winner,
        tau_large=float(tau_large),
        samples=tuple(float(s) for s in s_samples),
        residuals_reduced=tuple(res_red),
        residuals_nonreduced=tuple(res_non),
        informative=tuple(informative),
        matched_residual=worst,
    )


def asymptotic_result(s: float, convention: str) -> AsymptoticResult:
    """All three asymptotic evaluations at reduced-unit size s, reconciled.

    ``convention`` is 'reduced' or 'nonreduced', normally the verdict
    ``adjudicate_convention().convention``.  p_quadrature is the integral
    to the convention's upper limit u; p_closed and p_series are evaluated
    at u/(2 pi), so the three columns agree in their shared regime.
    """
    upper, arg = _upper_limit(s, convention)
    return AsymptoticResult(
        s=float(s),
        p_quadrature=asymptotic_violation(upper),
        p_closed=asymptotic_violation_closed(arg),
        p_series=asymptotic_series(arg),
        convention=convention,
    )
