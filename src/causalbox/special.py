"""Sine and cosine integrals Si, Ci and the entire auxiliary Cin.

Definitions (DLMF section 6.2):

    Si(x)  = int_0^x sin(t)/t dt                       odd, -> pi/2 at +inf
    Cin(x) = int_0^x (1 - cos(t))/t dt                 even, entire
    Ci(x)  = gamma_E + ln(x) - Cin(x)   (x > 0)        -> 0 at +inf

The closed-form asymptotic violation probability combines Ci with logarithms
in the pattern Ci(2y) - ln(y), which is finite as y crosses zero.  Computing
that difference by subtraction loses every digit near the crossing, so small
and negative-tending arguments must be routed through Cin, which has no
singular part.

Evaluation:

  Si, Ci          ``scipy.special.sici`` at every argument.  scipy is
                  imported on the first call of ``sici`` below, not with
                  this module, so the box path never loads it.
  Cin, |x| <= 1   its power series (DLMF section 6.6), eight terms in Horner
                  form; here gamma_E + ln|x| - Ci(|x|) cancels, losing every
                  digit as x -> 0.
  Cin, |x| >  1   gamma_E + ln|x| - Ci(|x|) with Ci from ``sici``; the
                  cancellation costs at most a factor 2.4, at x = 1.

Against 40-digit mpmath values on 1e-8 <= |x| <= 1e4 (tests/test_special.py)
Si is within 4.4e-16 absolute and Cin within 2.3e-16 relative.  Ci is within
2.2e-16 absolute where |Ci| <= 1 and 2.9e-16 relative beyond (3.6e-15 at
x = 1.9e-8, where |Ci| = 17.2).  The frozen REFERENCE_TABLE below is matched
to 4.4e-16.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EULER_GAMMA",
    "sine_integral",
    "cosine_integral",
    "entire_cosine_integral",
    "REFERENCE_TABLE",
    "reference_table_errors",
]

EULER_GAMMA = 0.5772156649015328606

# Cin(x) = sum_{k>=1} (-1)^(k+1) x^(2k) / (2k (2k)!), highest power first; on
# |x| <= 1 the first omitted term is below 4e-17 of the sum
_CIN_COEFFS = tuple((-1) ** (k + 1) / (2 * k * math.factorial(2 * k))
                    for k in range(8, 0, -1))


def sici(x):
    """(Si, Ci) from ``scipy.special.sici``, imported on the first call."""
    from scipy.special import sici as scipy_sici

    return scipy_sici(x)


def _cin_series(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    out = np.zeros_like(x2)
    for c in _CIN_COEFFS:
        out = out * x2 + c
    return out * x2


def sine_integral(x):
    """Si(x) for any real x (scalar or array)."""
    arr = np.asarray(x, dtype=float)
    si = sici(arr)[0]
    return float(si) if arr.ndim == 0 else si


def cosine_integral(x):
    """Ci(x) for x > 0 (scalar or array); raises for non-positive input.

    Callers needing the finite combination Ci(2y) - ln(y) near or below
    y = 0 must go through entire_cosine_integral instead.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("Ci(x) requires x > 0; route small arguments via Cin")
    ci = sici(arr)[1]
    return float(ci) if arr.ndim == 0 else ci


def entire_cosine_integral(x):
    """Cin(x) = gamma_E + ln|x| - Ci(|x|), extended evenly to all real x.

    Entire in x, so safe wherever the Ci-minus-log combination appears with
    an argument that can be small or cross zero.
    """
    arr = np.asarray(x, dtype=float)
    ax = np.abs(np.atleast_1d(arr))
    small = ax <= 1.0
    out = np.empty_like(ax)
    out[small] = _cin_series(ax[small])
    big = ax[~small]
    out[~small] = EULER_GAMMA + np.log(big) - sici(big)[1]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# 20-point reference values (x, Si(x), Cin(x)) frozen from adaptive
# quadrature of the defining integrals at 30-digit working precision,
# cross-checked against an independent arbitrary-precision implementation.
# Spans both Cin regimes, with x = 1 on the series side of the switch.
REFERENCE_TABLE = (
    (0.25, 0.24913357031975716, 0.015584366362587895),
    (0.5, 0.49310741804306669, 0.061852563148200453),
    (1.0, 0.94608307036718301, 0.23981174200056473),
    (2.0, 1.6054129768026948, 0.84738201668661317),
    (3.0, 1.8486525279994683, 1.5561981675616422),
    (3.141592653589793, 1.8519370519824662, 1.6482776387045075),
    (4.0, 1.7582031389490531, 2.1044917239083539),
    (5.0, 1.5499312449446741, 2.3766833269922771),
    (6.0, 1.4246875512805065, 2.437032378022835),
    (8.0, 1.5741868217069421, 2.5342233240493592),
    (10.0, 1.658347594218874, 2.9252571909000339),
    (12.0, 1.5049712415263734, 3.1119023215736468),
    (12.566370614359172, 1.4921612255844601, 3.1143565510027432),
    (14.0, 1.5562110500776651, 3.1468766385892069),
    (16.0, 1.6313022682700329, 3.3640045772615041),
    (18.0, 1.5366080968611855, 3.5110625257971986),
    (20.0, 1.5482417010434398, 3.5285281176101705),
    (25.0, 1.5314825509999613, 3.8029400869494362),
    (50.0, 1.5516170724859359, 4.4948670566537952),
    (100.0, 1.5622254668890563, 5.1875346760322347),
)


def reference_table_errors() -> dict:
    """Worst absolute deviations of Si and Cin from the frozen table."""
    xs = np.array([row[0] for row in REFERENCE_TABLE])
    si_ref = np.array([row[1] for row in REFERENCE_TABLE])
    cin_ref = np.array([row[2] for row in REFERENCE_TABLE])
    return {
        "si": float(np.max(np.abs(sine_integral(xs) - si_ref))),
        "cin": float(np.max(np.abs(entire_cosine_integral(xs) - cin_ref))),
    }
