"""Closed-form conditions for total breakdown of causal consistency.

The specular revival parks the entire probability density in the far strip
[Lambda - 1, Lambda] at tau_spec = 2 Lambda^2 s / pi.  If light released at
the inner wall has not yet reached the near edge of that strip, i.e.

    Lambda - 2 >= tau_spec      equivalently  (2s/pi) Lambda^2 - Lambda + 2 <= 0,

then the violation probability hits exactly 1: the non-relativistic
evolution would deterministically signal across a space-like gap.  The
quadratic admits real roots only when its discriminant 1 - 16 s / pi is
non-negative, giving the confinement threshold

    s <= pi/16 ~ 0.19635        (Lorentz factor gamma = 129 at equality)

and, below it, the admissible expansion window

    Lambda_-+ = (pi / 4s) (1 -+ sqrt(1 - 16 s / pi)).

For s << pi/16 the smaller root suffers cancellation in that textbook form,
so it is recovered from the product of roots Lambda_- Lambda_+ = pi / s.

The answers are plain values.  ``breakdown_interval(s)`` is that window,
or None above the threshold, so ``breakdown_interval(s) is not None`` says
whether any expansion factor breaks down; ``is_total_breakdown(s, Lambda)``
is the verdict for one pair, read off that window.

Also here: the free Gaussian wave-packet spreading width, the standard
cautionary example of apparent superluminal spreading.  With lengths in
reduced Compton wavelengths and tau = c t in the same unit, an initial
width sigma0 grows as sigma(tau) = sqrt(sigma0^2 + (tau / (2 sigma0))^2),
which asymptotically outruns light iff sigma0 < 1/2.  (Unlike the boxed
problem this is not a sharp statement, since a Gaussian has no compact
support to violate; the boxed setup exists precisely to fix that.)
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .params import _check_size

__all__ = [
    "CONFINEMENT_THRESHOLD",
    "GAMMA_THRESHOLD",
    "breakdown_interval",
    "is_total_breakdown",
    "gaussian_width",
]

CONFINEMENT_THRESHOLD = math.pi / 16.0
GAMMA_THRESHOLD = 129.0


def breakdown_interval(s: float) -> Optional[Tuple[float, float]]:
    """Expansion-factor window [Lambda_-, Lambda_+] with P = 1, if any.

    None above the confinement threshold; a degenerate (4, 4) exactly at
    it.  The lower root comes from the product identity to avoid the
    1 - sqrt(1 - small) cancellation.  s is refused where gamma(s)
    overflows, as in ``lorentz_factor``.
    """
    _check_size(s)
    disc = 1.0 - 16.0 * s / math.pi
    if disc < 0:
        return None
    upper = math.pi / (4.0 * s) * (1.0 + math.sqrt(disc))
    lower = (math.pi / s) / upper
    return (lower, upper)


def is_total_breakdown(s: float, lambda_factor: float) -> bool:
    """Whether the revival outruns light for this (s, Lambda) pair.

    True exactly when Lambda lies in ``breakdown_interval(s)``, endpoints
    included (the revival lands exactly when light arrives), so the verdict
    never contradicts the window.  s as in ``breakdown_interval``.
    """
    window = breakdown_interval(s)
    if not lambda_factor > 1:
        raise ValueError(f"expansion factor must exceed 1, got {lambda_factor}")
    return window is not None and window[0] <= lambda_factor <= window[1]


def gaussian_width(sigma0: float, tau: float) -> float:
    """Width sqrt(sigma0^2 + (tau/(2 sigma0))^2) of a spreading Gaussian.

    Lengths in reduced Compton wavelengths, tau = c t in the same unit.
    The ratio width/tau tends to 1/(2 sigma0), so packets narrower than
    one half spread faster than light asymptotically.
    """
    if not 0 < sigma0 < math.inf:
        raise ValueError(f"sigma0 must be positive and finite, got {sigma0}")
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")
    return math.hypot(sigma0, tau / (2.0 * sigma0))
