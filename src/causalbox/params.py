"""Dimensionless parameterization of the sudden-expansion problem.

A particle of mass m sits in the ground state of a hard-wall box of width a.
At t = 0 the right wall jumps outward so the box becomes Lambda*a wide
(Lambda > 1).  Everything downstream works in dimensionless variables

    zeta = x / a            position, 0 <= zeta <= Lambda
    tau  = c t / a          time measured by light crossings of the inner box
    s    = a / lambdabar_c  confinement size in reduced Compton wavelengths

with lambdabar_c = hbar / (m c).  This collapses (m, c, hbar, a) into the
single knob s, so no dimensional constant appears anywhere else in the
library.  The two time scales that control the physics are

    tau_rev  = 4 Lambda^2 s / pi      exact revival period of the wide box
    tau_spec = tau_rev / 2            specular revival (mirrored profile)

The revival period follows from the wide-box spectrum: the n-th mode phase
advances as 2 pi n^2 t / T with T = 4 m Lambda^2 a^2 / (pi hbar), and in the
variables above 2 pi n^2 t / T = pi^2 n^2 tau / (2 Lambda^2 s), which returns
to itself (mod 2 pi, all n) after tau_rev = 4 Lambda^2 s / pi.

The Lorentz factor of a classical particle carrying the inner-box ground
state kinetic energy E0 = pi^2 hbar^2 / (2 m a^2) is

    gamma(s) = 1 + E0 / (m c^2) = 1 + pi^2 / (2 s^2),

so small boxes mean relativistic particles; s is the only control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SystemParams",
    "TimeScales",
    "lorentz_factor",
    "speed_fraction",
    "time_scales",
]


@dataclass(frozen=True)
class SystemParams:
    """The two dimensionless knobs of the problem.

    s             confinement size a in units of the reduced Compton
                  wavelength hbar/(m c); must be positive and finite
    lambda_factor expansion factor Lambda of the outer box; must exceed 1
                  and be finite
    """

    s: float
    lambda_factor: float

    def __post_init__(self):
        if not 0 < self.s < math.inf:
            raise ValueError(
                f"confinement size s must be positive and finite, got {self.s}")
        if not 1 < self.lambda_factor < math.inf:
            raise ValueError(
                f"expansion factor must exceed 1 and be finite, "
                f"got {self.lambda_factor}"
            )


@dataclass(frozen=True)
class TimeScales:
    """Dimensionless time scales of the expansion.

    tau_revival    full revival period 4 Lambda^2 s / pi
    tau_specular   half period, when the mirrored profile reappears
    tau_evacuation Lambda - 1, when the light front reaches the far wall
                   (the causality-violation window closes here)
    """

    tau_revival: float
    tau_specular: float
    tau_evacuation: float


def lorentz_factor(s: float) -> float:
    """Lorentz factor gamma(s) = 1 + pi^2 / (2 s^2).

    gamma is strictly decreasing in s and tends to 1 for large boxes; the
    total-breakdown threshold s = pi/16 maps to gamma = 129 exactly.
    """
    if not s > 0:
        raise ValueError(f"confinement size s must be positive, got {s}")
    return 1.0 + math.pi**2 / (2.0 * s * s)


def speed_fraction(s: float) -> float:
    """Classical speed v/c for the ground-state kinetic energy at size s.

    Evaluates sqrt(1 - 1/gamma^2) through the exact excess gamma - 1 =
    pi^2/(2 s^2), which stays accurate for s >> 1 where gamma is barely
    above 1.
    """
    if not s > 0:
        raise ValueError(f"confinement size s must be positive, got {s}")
    excess = math.pi**2 / (2.0 * s * s)  # gamma - 1, exact
    gamma = 1.0 + excess
    return math.sqrt(excess * (gamma + 1.0)) / gamma


def time_scales(params: SystemParams) -> TimeScales:
    """Revival, specular-revival and evacuation times for given parameters."""
    tau_rev = 4.0 * params.lambda_factor**2 * params.s / math.pi
    return TimeScales(
        tau_revival=tau_rev,
        tau_specular=0.5 * tau_rev,
        tau_evacuation=params.lambda_factor - 1.0,
    )
