"""Exact mode-sum dynamics of the suddenly expanded box.

The ground state of the inner box, sqrt(2) sin(pi zeta) on (0, 1), is
decomposed over the sine eigenbasis of the outer box of width Lambda.
Collecting the +n and -n travelling components of the standing-wave
expansion into a sine series (their amplitude ratio is odd in n, so the
pair combines into a single real-coefficient term) gives

    psi(zeta, tau) = sum_{n>=1} b_n sin(n pi zeta / Lambda)
                     * exp(-i pi^2 n^2 tau / (2 Lambda^2 s))

    b_n = -(2 sqrt(2) Lambda / pi) * sin(n pi / Lambda) / (n^2 - Lambda^2)
        = -(2 sqrt(2) pi / Lambda) * g(n pi / Lambda)

where g(kappa) = sin(kappa)/(kappa^2 - pi^2) is the momentum amplitude of
the released state (``freespace.momentum_amplitude``) and
psi = sqrt(a) * (dimensional wave function), normalized so that
|psi|^2 integrates to 1 over zeta in [0, Lambda].  The per-mode phase
pi^2 n^2 tau / (2 Lambda^2 s) is the dimensionless form of 2 pi n^2 t / T
with T the revival period of the wide box, so the sum is exactly periodic
in tau with period tau_rev = 4 Lambda^2 s / pi, and at half the period the
initial profile reappears mirrored at the far wall (specular revival):
psi(zeta, tau_rev/2) = -psi(Lambda - zeta, 0) for the phase convention
chosen here (b_n real, initial profile positive on (0, 1); only moduli are
observable).

The ratio sin(pi x/L)/(x^2 - L^2) has a removable 0/0 point at x = L.
Writing it as -(pi/L) sinc((x - L)/L)/(L + x), with sinc(x) =
sin(pi x)/(pi x), is exact for every x > -L and regular through the
resonance, reproducing the limit -pi/(2 L^2) at x = L with no cancellation
or special-case branch.  This one kernel, ``_sin_ratio``, gives the
coefficient ratio (L = Lambda), g (L = pi) and the asymptotic integrand g^2.

Truncation keeps modes 1..N with N the smallest mode whose analytic tail
bound on the discarded norm (sum of |b_n|^2 weights past N, bounded by the
closed-form integral of (n^2 - Lambda^2)^-2) stays below the requested
tolerance.  That is all P(tau) and the norm need: their error bounds are
in terms of the discarded norm.  Profiles also need the discarded
amplitude sum_{n>N} |b_n|, which bounds the sup-norm error and is tight
near the kink the released state has at zeta = 1; the norm criterion alone
leaves it at 8.1e-4 at Lambda = 5 and the default tol = 1e-10.  Profile
consumers therefore take profile_spectrum, which adds the uniform
tolerance tol^(2/5) (1e-4 at the default tol) and keeps about 8x more
modes: 45 016 against 5 528 at Lambda = 5.

Profiles are evaluated by one of two routes that compute the same finite
sum, so they agree to roundoff.  On a lattice zeta_j = j Lambda/M (every
linspace or CLI snapshot grid whose points and walls share a lattice with
M <= 2N + 2) sin(n pi j/M) repeats in n with period 2M and is odd about
M, so the phased coefficients fold onto M - 1 slots and one type-I sine
transform gives the whole profile in O(N + M log M); density_norm uses the
same transform.  The sine transform is one numpy FFT of length 2M of the
odd extension of the folded coefficients, which takes the complex input
whole; the module needs numpy alone.  Scalars and off-lattice points
(quadrature nodes, grids on no lattice that coarse) take the dense sum.
It writes n = aB + b with B about sqrt(N) and splits sin(n pi zeta/Lambda)
by angle addition, so a point costs about 2 sqrt(N) sines and cosines plus
4N multiply-adds in two BLAS products: 40 ms for the 12 990 quadrature
nodes of a 1 191-mode spectrum, 27 ms per 1000 points at N = 45 016
(Lambda = 5), 0.45 s for 2001 points at N = 900 317 (Lambda = 100), on one
core of a 2-core Xeon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModeSpectrum",
    "mode_coefficient",
    "coefficient_ratio",
    "build_spectrum",
    "profile_spectrum",
    "wavefunction",
    "initial_state",
    "density_snapshot",
    "density_norm",
    "profile_lattice",
    "parseval_partial_sum",
]

_PI = math.pi
# Cap on the retained modes N, checked before any array is allocated.  It
# admits the profile spectrum at Lambda = 100 (900 317 modes) and bounds a
# pairwise P(tau) transform at 2^23 complex points (128 MB per array).
_MAX_MODES = 1 << 21
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ModeSpectrum:
    """Truncated sine-basis expansion of the released ground state.

    lambda_factor         outer-box width Lambda
    max_mode              highest retained quantum number N
    coefficients          real b_n for n = 1..N (phase fixed as in the
                          module doc)
    tail_bound            bound on the discarded norm
                          sum_{n>N} (Lambda/2) b_n^2
    amplitude_tail_bound  bound on the discarded amplitude sum_{n>N} |b_n|,
                          hence on the sup-norm truncation error
    uniform_tol           the sup-norm tolerance that also chose N, or
                          None when the norm tolerance alone did
    """

    lambda_factor: float
    max_mode: int
    coefficients: np.ndarray
    tail_bound: float
    amplitude_tail_bound: float
    uniform_tol: float | None = None

    def parseval_weight(self) -> float:
        """Retained norm (Lambda/2) sum b_n^2; equals 1 - eps, eps <= tail_bound."""
        return 0.5 * self.lambda_factor * float(np.dot(self.coefficients,
                                                       self.coefficients))

    @property
    def fft_size(self) -> int:
        """Smallest power of two >= 2N + 2.

        The transform length of the pairwise P(tau) products and the
        panel count of the exact density-norm quadrature.
        """
        return 1 << int(math.ceil(math.log2(2 * self.max_mode + 2)))


def _sin_ratio(x, lam: float):
    """sin(pi x/lam)/(x^2 - lam^2) for x > -lam, exact through x = lam."""
    return -_PI * np.sinc((x - lam) / lam) / (lam * (x + lam))


def coefficient_ratio(n, lambda_factor: float):
    """sin(n pi/Lambda)/(n^2 - Lambda^2), exact through the n = Lambda point."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 1):
        raise ValueError("mode number must be a positive integer")
    out = _sin_ratio(n_arr, float(lambda_factor))
    return float(out) if np.isscalar(n) or n_arr.ndim == 0 else out


def mode_coefficient(n, lambda_factor: float):
    """Expansion amplitude b_n of the released ground state (real by convention)."""
    lam = float(lambda_factor)
    if not lam >= 1:
        raise ValueError(f"lambda_factor must be >= 1, got {lambda_factor}")
    return -(2.0 * math.sqrt(2.0) * lam / _PI) * coefficient_ratio(n, lam)


def _tanh_excess(x: float) -> float:
    """x/(1 - x^2) - atanh(x) for 0 <= x < 1, without cancellation.

    Below x = 1/2 the two terms agree to O(x^3), so the difference is
    summed as sum_{k>=1} (2k/(2k+1)) x^(2k+1) instead.
    """
    if x > 0.5:
        return x / (1.0 - x * x) - math.atanh(x)
    x2, term, total, k = x * x, x, 0.0, 0
    while True:
        k += 1
        term *= x2
        part = 2.0 * k / (2.0 * k + 1.0) * term
        total += part
        if part <= 1e-17 * total:
            return total


def _tail_weight_bound(n_max: float, lam: float) -> float:
    """Closed-form bound on the Parseval weight beyond mode n_max.

    Uses |b_n| <= (2 sqrt(2) Lambda/pi)/(n^2 - Lambda^2) and the exact
    integral of (x^2 - Lambda^2)^-2 from n_max to infinity, which is
    (2/pi^2)(x/(1 - x^2) - atanh x) with x = Lambda/n_max.
    """
    if n_max <= lam:
        return math.inf
    return 2.0 / _PI**2 * _tanh_excess(lam / n_max)


def _tail_amplitude_bound(n_max: float, lam: float) -> float:
    """Closed-form bound on sum_{n>N} |b_n|, the sup-norm truncation error."""
    if n_max <= lam:
        return math.inf
    return 2.0 * math.sqrt(2.0) / _PI * math.atanh(lam / n_max)


def _smallest_mode(lam: float, bound, tol: float) -> int:
    lo = int(math.ceil(lam)) + 1
    hi = max(2 * lo, 16)
    while bound(hi, lam) > tol:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid, lam) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def build_spectrum(params, tol: float = 1e-10,
                   uniform_tol: float | None = None) -> ModeSpectrum:
    """Truncate by a provable norm tail, and a sup-norm tail on request.

    ``params`` is a SystemParams or a bare expansion factor (the
    coefficients depend only on Lambda; the confinement size s enters the
    dynamics through the phases alone).  ``tol`` bounds the discarded
    Parseval weight, and by default it alone chooses N: that suffices for
    P(tau) and the norm.  ``uniform_tol``, when given, also bounds the
    discarded amplitude sum, which keeps truncated profiles within that
    distance of the ideal ones everywhere, including at the kink; profile
    consumers get it through profile_spectrum (1e-4 gives N = 18 007,
    45 016 and 180 064 at Lambda = 2, 5 and 20, against 2 211, 5 528 and
    22 110 for tol = 1e-10 alone).  Both tail bounds are reported either way.  The degenerate Lambda = 1
    case is allowed: only the resonant n = 1 mode survives, with
    b_1 = sqrt(2).  A tolerance that needs more than 2^21 modes raises
    ValueError before anything is allocated.
    """
    if not 0 < tol < 1:
        raise ValueError(f"truncation tolerance must lie in (0, 1), got {tol}")
    if uniform_tol is not None and not uniform_tol > 0:
        raise ValueError(f"uniform tolerance must be positive, got {uniform_tol}")
    lam = float(getattr(params, "lambda_factor", params))
    if not 1 <= lam < math.inf:
        raise ValueError(f"lambda_factor must be >= 1 and finite, got {lam}")
    n_max = _smallest_mode(lam, _tail_weight_bound, tol)
    if uniform_tol is not None:
        n_max = max(n_max, _smallest_mode(lam, _tail_amplitude_bound,
                                          uniform_tol))
    if n_max > _MAX_MODES:
        raise ValueError(
            f"tol={tol:g} at Lambda={lam:g} needs {n_max} modes, more than "
            f"the {_MAX_MODES} allowed; raise tol or lower Lambda")
    coeffs = mode_coefficient(np.arange(1, n_max + 1), lam)
    return ModeSpectrum(
        lambda_factor=lam,
        max_mode=n_max,
        coefficients=np.asarray(coeffs, dtype=float),
        tail_bound=_tail_weight_bound(n_max, lam),
        amplitude_tail_bound=_tail_amplitude_bound(n_max, lam),
        uniform_tol=uniform_tol,
    )


def profile_spectrum(params, tol: float = 1e-10) -> ModeSpectrum:
    """The spectrum for profiles: the norm cut plus the sup-norm cut tol**0.4.

    At the default tol that keeps truncated profiles within 1e-4 of the
    ideal ones everywhere.
    """
    return build_spectrum(params, tol=tol, uniform_tol=tol ** 0.4)


def _phases(spectrum: ModeSpectrum, s: float, tau: float) -> np.ndarray:
    """exp(-i pi^2 n^2 tau / (2 Lambda^2 s)) = exp(-2 pi i n^2 tau/tau_rev).

    The argument is reduced before the exponential: n^2 is an integer, so
    only r = tau/tau_rev mod 1 and then the fractional part of n^2 r
    matter.  The unreduced argument passes 1e10 rad at the default
    truncation, where libm takes its slow argument-reduction path; reduced,
    exp sees [0, 2 pi) only.  Roundoff is at worst that of the unreduced
    form, about eps N^2 r cycles.  Where that exceeds one cycle the phases
    mean nothing (tau = 1e300 at s = 0.1, Lambda = 2 reduced to tau = 0), so
    such a time is refused, as is a non-finite r.
    """
    lam = spectrum.lambda_factor
    n_max = spectrum.max_mode
    r = tau * _PI / (4.0 * lam * lam * s)
    roundoff = _EPS * n_max * n_max * r
    if not roundoff <= 1.0:
        raise ValueError(f"phase roundoff eps N^2 tau/tau_rev = {roundoff:.2g} "
                         f"cycles is past one at tau={tau:g}, s={s:g}, "
                         f"Lambda={lam:g}")
    n = np.arange(1, n_max + 1, dtype=float)
    u = n * n * (r % 1.0)
    u -= np.floor(u)
    return np.exp(-2j * _PI * u)


def _lattice_amplitudes(c: np.ndarray, m: int) -> np.ndarray:
    """sum_n c_n sin(n pi j / m) for j = 0..m, with c_n given for n = 1..N.

    sin(n pi j / m) depends on n only through r = n mod 2m, and is odd
    in r.  The coefficients therefore fold exactly onto their sums per
    residue, rows_r, of which only the odd part rows_r - rows_{2m-r} counts:
    on r = 1..m-1 it is the input of a type-I sine transform, and beyond
    it is that input's odd extension.  One FFT of length 2m of the odd
    part, times i/2, gives every interior value.  The two walls are exact
    zeros.  Cost O(N + m log m).
    """
    period = 2 * m
    pad = np.zeros(-(-(len(c) + 1) // period) * period, dtype=complex)
    pad[1:len(c) + 1] = c
    rows = pad.reshape(-1, period).sum(axis=0)
    out = 0.5j * np.fft.fft(rows - np.roll(rows[::-1], 1))[:m + 1]
    out[0] = out[m] = 0.0
    return out


def profile_lattice(spectrum: ModeSpectrum, zeta) -> int | None:
    """M when every point of zeta lies on the lattice k Lambda/M, else None.

    M is the smallest such lattice: Lambda over the common divisor of the
    gaps between the distinct points and the two walls, found by Euclid's
    algorithm (nearest-integer remainders, those below half the finest
    admissible spacing counted as zero).  M must lie in [2, 2N + 2] so the
    sine transform costs no more than a few dense rows.  A point counts as
    on the lattice within 8 eps Lambda of its site; grids built by linspace
    or by the CLI sit within 1e-15.  Scalars, single points and off-lattice
    sets (quadrature nodes, points on no lattice coarser than 2N + 2) give
    None.
    """
    lam = spectrum.lambda_factor
    z = np.unique(np.asarray(zeta, dtype=float))
    if z.size < 2:
        return None
    m_max = 2 * spectrum.max_mode + 2
    noise = 0.5 * lam / m_max
    gaps = np.sort(np.diff(np.concatenate(([0.0], z, [lam]))))
    # gaps on a lattice differ by a multiple of Lambda/M >= 2 noise, so
    # closer ones differ by roundoff only
    distinct = gaps[np.concatenate(([True], np.diff(gaps) > noise))]
    step = lam
    for gap in distinct.tolist():
        while gap > noise:
            step, gap = gap, abs(step - gap * round(step / gap))
        if step * (m_max + 0.5) < lam:
            return None
    m = round(lam / step)
    if m < 2:
        return None
    off = np.abs(z - np.rint(z * (m / lam)) * (lam / m))
    if float(np.max(off)) > 8.0 * np.finfo(float).eps * lam:
        return None
    return m


def wavefunction(spectrum: ModeSpectrum, s: float, zeta, tau: float):
    """Complex amplitude psi(zeta, tau) of the truncated mode sum.

    zeta may be a scalar or an array of positions in [0, Lambda]; tau >= 0.
    Vanishes identically at both walls.  Points that all lie on a lattice
    k Lambda/M (see ``profile_lattice``) are read off one folded type-I sine
    transform of the phased coefficients, in O(N + M log M); any other
    input is a blocked dense sum, factored by angle addition into
    O(sqrt(N)) sines per point and two BLAS products (see the module
    docstring for timings), deterministic and independent of block
    boundaries to roundoff.  Both compute the same finite sum, so they
    agree to roundoff (about 1e-14).  Non-finite zeta raises ValueError.
    """
    lam = spectrum.lambda_factor
    z = np.asarray(zeta, dtype=float)
    if not np.all((z >= 0) & (z <= lam)):
        raise ValueError(f"zeta must be finite and lie in [0, {lam}]")
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")
    if not s > 0:
        raise ValueError(f"confinement size s must be positive, got {s}")
    c = spectrum.coefficients * _phases(spectrum, s, tau)
    flat = np.atleast_1d(z).ravel()
    m = profile_lattice(spectrum, flat)
    if m is not None:
        out = _lattice_amplitudes(c, m)[np.rint(flat * (m / lam)).astype(int)]
        return out.reshape(z.shape)
    # n = aB + b: sin(n t) = sin(aB t) cos(b t) + cos(aB t) sin(b t), so the
    # O(N) part of each point is two real products with the B x 2A table
    # [Re C^T | Im C^T], C[a, b] = c_{aB+b} (c_0 = 0)
    n_low = math.isqrt(spectrum.max_mode + 1)
    n_high = -(-(spectrum.max_mode + 1) // n_low)
    pad = np.zeros(n_high * n_low, dtype=complex)
    pad[1:spectrum.max_mode + 1] = c
    c_t = pad.reshape(n_high, n_low).T
    table = np.concatenate((c_t.real, c_t.imag), axis=1)
    low = np.arange(n_low, dtype=float)
    high = np.arange(0, n_high * n_low, n_low, dtype=float)
    out = np.empty(flat.shape, dtype=complex)
    block = max(64, 1_000_000 // (n_low + n_high))  # ~35 MB of work arrays
    for i in range(0, len(flat), block):
        t = flat[i:i + block, None] * (_PI / lam)
        cos_part = (np.cos(low * t) @ table).reshape(len(t), 2, n_high)
        sin_part = (np.sin(low * t) @ table).reshape(len(t), 2, n_high)
        re_im = (np.einsum("pa,pka->pk", np.sin(high * t), cos_part)
                 + np.einsum("pa,pka->pk", np.cos(high * t), sin_part))
        out[i:i + block] = re_im[:, 0] + 1j * re_im[:, 1]
    # every basis term vanishes identically at the walls; do not leave the
    # roundoff residue of sin(n pi) there
    out[(flat == 0.0) | (flat == lam)] = 0.0
    if z.ndim == 0:
        return complex(out[0])
    return out.reshape(z.shape)


def initial_state(zeta):
    """Released profile at tau = 0: sqrt(2) sin(pi zeta) on (0, 1), else 0."""
    z = np.asarray(zeta, dtype=float)
    out = np.where((z > 0) & (z < 1), np.sqrt(2.0) * np.sin(_PI * z), 0.0)
    return float(out) if z.ndim == 0 else out


def density_snapshot(spectrum: ModeSpectrum, s: float, zeta_grid,
                     tau: float) -> np.ndarray:
    """rho = |psi|^2 on a strictly increasing grid at a fixed instant."""
    grid = np.asarray(zeta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("zeta grid must not be empty")
    if grid.ndim != 1 or (grid.size > 1 and not np.all(np.diff(grid) > 0)):
        raise ValueError("zeta grid must be 1-D and strictly increasing")
    return np.abs(wavefunction(spectrum, s, grid, tau)) ** 2


def density_norm(spectrum: ModeSpectrum, s: float, tau: float) -> float:
    """Integral of |psi|^2 over [0, Lambda] from grid samples of the density.

    The density of an N-mode sum is a trigonometric polynomial with beat
    frequencies up to 2N, and the uniform trapezoid rule on J > N panels
    integrates every such beat exactly (the wave function vanishes at both
    walls, so interior samples suffice).  The samples come from the type-I
    sine transform of the phased coefficients in ``_lattice_amplitudes``,
    one FFT of length 2 J of their odd extension, which equals the direct
    pointwise sum to roundoff.  Result: the quadrature is exact up to
    roundoff, and the value differs from 1 only by the truncated tail.
    """
    n_pts = spectrum.fft_size
    c = spectrum.coefficients * _phases(spectrum, s, tau)
    rho = np.abs(_lattice_amplitudes(c, n_pts)[1:-1]) ** 2
    return float(rho.sum() * spectrum.lambda_factor / n_pts)


def parseval_partial_sum(lambda_factor: float, n_terms: int) -> float:
    """(4 Lambda^3 / pi^2) sum_{n=1}^{N} [sin(n pi/Lambda)/(n^2-Lambda^2)]^2.

    Tends to 1 as N grows for every Lambda >= 1 (resonant terms enter
    through their finite limits); the completeness check used by the
    validation suite.
    """
    if n_terms < 1:
        raise ValueError("need at least one term")
    lam = float(lambda_factor)
    r = coefficient_ratio(np.arange(1, n_terms + 1), lam)
    return 4.0 * lam**3 / _PI**2 * float(np.dot(r, r))
