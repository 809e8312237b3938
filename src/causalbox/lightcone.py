"""Causality-violation probability for the expanded box.

At release, a light signal from the vanished inner wall travels outward at
zeta_front(tau) = min(1 + tau, Lambda): the boundary of the region that any
relativistically admissible evolution could populate (the union of forward
light cones of the initial support).  The violation probability is the
Schrodinger weight beyond that front,

    P(tau) = int_{zeta_front}^{Lambda} |psi(zeta, tau)|^2 dzeta,

zero at tau = 0 (the state starts inside) and again for tau >= Lambda - 1
(the front has swept the whole outer box).  It is a lower bound on how
wrong the non-relativistic density is, not an estimate of the true
relativistic dynamics.

Two evaluation routes are provided:

``pairwise`` (default)  Expands |psi|^2 into mode pairs.  The partial-range
    integrals I_nm = int_f^Lambda sin(n pi zeta/L) sin(m pi zeta/L) dzeta
    have an elementary closed form in the index difference and sum, so I
    is Toeplitz minus Hankel, and a = I c over the phased coefficients c
    costs three transforms in O(N log N): the coefficients', the two real
    kernels' packed into one complex array, and one inverse.  P_N =
    Re <c, a> is exact for the truncated spectrum.  Its error comes from
    the discarded modes alone, and since they lie above N it is bounded by
    projection: |P - P_N| <= 2 sqrt(eps h) + eps, with eps the spectrum's
    tail bound and h = P_N - (2/Lambda) |a|^2 the part of the cut profile
    beyond the front that modes 1..N cannot hold.  On the default
    norm-only spectrum that reports about 2e-7 (the plain 2 sqrt(eps)
    would be 2e-5), where exact fractional-revival values show a true error
    below 1e-9.  One P costs about 2 ms at Lambda = 5 (5 528 modes, a
    16 384-point transform) on one core of a 2-core Xeon.

``quadrature``  Adaptive Gauss-Kronrod on the sampled density, seeded with
    panels at the finest retained oscillation scale Lambda/N so the error
    estimator never sees an unresolved beat.  Each refinement wave
    re-evaluates the dense mode sum at its nodes: about 40 ms for one P at
    N = 1 191 (12 990 nodes, one wave), against 0.4 ms for the pairwise
    route on the same spectrum (one core of a 2-core Xeon).  Kept as the
    independent oracle of the benchmark's sweep check and of the tests;
    ``causalbox validate`` checks the pairwise route against exact half-
    and quarter-revival values instead.

Each P(tau) is independent of every other, so a sweep is a plain loop over
``violation_probability(..., full_output=True)`` on a grid such as
``default_sweep_grid``; the CLI's ``violation-sweep`` maps it over worker
threads.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .boxmodes import ModeSpectrum, _phases, wavefunction
from .params import SystemParams, time_scales
from .quadrature import NumericalConvergenceError, QuadratureConfig, integrate

__all__ = [
    "ProbabilityRangeError",
    "light_front",
    "violation_probability",
    "default_sweep_grid",
]

_PI = math.pi
_QUADRATURE_ROUTE = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9,
                                     max_subdivisions=20000)


class ProbabilityRangeError(RuntimeError):
    """A computed P(tau) left [0, 1] by far more than its error estimate."""


def light_front(tau: float, lambda_factor: float) -> float:
    """Position min(1 + tau, Lambda) reached by light released at the inner wall."""
    if not tau >= 0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    return min(1.0 + tau, lambda_factor)


def _cosine_range_integrals(d: np.ndarray, front: float, lam: float) -> np.ndarray:
    """int_front^Lambda cos(d pi zeta / Lambda) dzeta for integer index d >= 1."""
    return -(lam / (d * _PI)) * np.sin(d * _PI * front / lam)


def _pairwise_value(spectrum: ModeSpectrum, s: float, tau: float,
                    front: float) -> tuple[float, float]:
    """P_N(tau) and its error bound, both from a = I c (see module docstring).

    I = (T - H)/2 with Toeplitz T_nm = C(n - m) and Hankel H_nm = C(n + m),
    C(d) the cosine integral over [front, Lambda].  Both products are
    circular convolutions of length fft_size >= 2N + 2, long enough that no
    index wraps onto another; the Hankel one convolves c_{-n}, whose
    transform is F[-k].  The 1e-12 in the bound covers roundoff.
    """
    lam = spectrum.lambda_factor
    n_max, size = spectrum.max_mode, spectrum.fft_size
    c = spectrum.coefficients * _phases(spectrum, s, tau)
    pad = np.zeros(size, dtype=complex)
    pad[1:n_max + 1] = c
    f = np.fft.fft(pad)
    f_neg = np.concatenate((f[:1], f[:0:-1]))  # F[-k]
    # C(d) for the differences and sums that occur, d = 0..2N
    cos_int = np.zeros(size)
    cos_int[0] = lam - front
    cos_int[1:2 * n_max + 1] = _cosine_range_integrals(
        np.arange(1, 2 * n_max + 1, dtype=float), front, lam)
    # C(|d|) around the circle for T, C(d) for H, packed as real and
    # imaginary part of one transform G: fft(T) = (G + conj G[-k]) / 2 and
    # fft(H) = (G - conj G[-k]) / 2i
    toeplitz = np.concatenate((cos_int[:size // 2 + 1],
                               cos_int[size // 2 - 1:0:-1]))
    g = np.fft.fft(toeplitz + 1j * cos_int)
    g_neg = np.concatenate((g[:1], g[:0:-1])).conj()
    a = np.fft.ifft(0.25 * ((g + g_neg) * f
                            + 1j * (g - g_neg) * f_neg))[1:n_max + 1]
    value = float(np.vdot(c, a).real)
    h = max(value - 2.0 / lam * float(np.vdot(a, a).real), 0.0)
    eps = spectrum.tail_bound
    return value, 2.0 * math.sqrt(eps * h) + eps + 1e-12


def _quadrature_value(spectrum: ModeSpectrum, s: float, tau: float,
                      front: float):
    lam = spectrum.lambda_factor
    # seed panels at the finest retained oscillation scale Lambda/N
    n_panels = int(math.ceil((lam - front) * spectrum.max_mode / lam)) + 1
    cuts = np.linspace(front, lam, n_panels + 1)[1:-1]
    cfg = replace(_QUADRATURE_ROUTE, breakpoints=tuple(cuts))
    res = integrate(
        lambda z: np.abs(wavefunction(spectrum, s, z, tau)) ** 2,
        front, lam, cfg)
    if not res.converged:
        raise NumericalConvergenceError(
            f"violation quadrature did not converge at tau={tau}: "
            f"achieved {res.error_estimate:.3e}", res.error_estimate)
    return res.value, res.error_estimate


def violation_probability(spectrum: ModeSpectrum, params: SystemParams,
                          tau: float, method: str = "pairwise",
                          full_output: bool = False):
    """Probability weight beyond the light front at time tau.

    Returns the raw value (optionally with its error estimate when
    ``full_output`` is set).  Raw values may stray outside [0, 1] by up to
    the reported estimate; they are returned as computed, so that consumers
    can see the numerics.  A result outside [0, 1] by more than a generous
    multiple of the estimate raises, since that indicates a bug rather
    than roundoff.
    """
    front = light_front(tau, spectrum.lambda_factor)
    if front >= spectrum.lambda_factor:
        return (0.0, 0.0) if full_output else 0.0
    if method == "pairwise":
        value, err = _pairwise_value(spectrum, params.s, tau, front)
    elif method == "quadrature":
        value, qerr = _quadrature_value(spectrum, params.s, tau, front)
        err = qerr + 2.0 * math.sqrt(spectrum.tail_bound)
    else:
        raise ValueError(f"unknown method {method!r}")
    guard = max(1e-6, 10.0 * err)
    if not (-guard <= value <= 1.0 + guard):
        raise ProbabilityRangeError(
            f"violation probability {value} outside [0,1] beyond numerical "
            f"tolerance {guard}; inconsistent spectrum or parameters")
    return (value, err) if full_output else value


# Most points any time or position grid may hold; the largest in use is the
# snapshot profile at Lambda 100 with the default step, 50 001 points.
_MAX_GRID_POINTS = 1 << 21


def _check_grid_points(points: float, setting: str) -> None:
    """Refuse a grid of more than _MAX_GRID_POINTS before allocating it."""
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"{setting} needs {points:.3g} grid points, more "
                         f"than the {_MAX_GRID_POINTS} allowed")


def default_sweep_grid(params: SystemParams, tau_step: float = 0.005) -> np.ndarray:
    """Time grid for figure-quality sweeps over the violation window.

    Uniform spacing on [0, Lambda - 1], refined tenfold within 0.05 of the
    specular-revival time (whose peak can be much narrower than the base
    step) and pinned to contain tau_spec itself when it falls inside the
    window.
    """
    if not tau_step > 0:
        raise ValueError("tau_step must be positive")
    lam = params.lambda_factor
    # the base grid and the refinement hold about Lambda/tau_step points
    _check_grid_points(lam / tau_step, f"tau_step={tau_step:g} at Lambda={lam:g}")
    t_end = lam - 1.0
    n_base = int(round(t_end / tau_step))
    base = np.arange(n_base + 1) * tau_step
    pieces = [base, np.array([t_end])]
    tau_spec = time_scales(params).tau_specular
    if 0.0 <= tau_spec <= t_end:
        fine = tau_step / 10.0
        k_lo = int(math.floor(max(tau_spec - 0.05, 0.0) / fine))
        k_hi = int(math.ceil(min(tau_spec + 0.05, t_end) / fine))
        pieces.append(np.arange(k_lo, k_hi + 1) * fine)
        pieces.append(np.array([tau_spec]))
    grid = np.unique(np.round(np.concatenate(pieces), 12))
    return grid[(grid >= 0.0) & (grid <= t_end)]
