"""How small must a box be before Schrodinger dynamics turns relativistic?

Everything in this library hangs off one dimensionless knob: the initial
confinement size s, the box width in reduced Compton wavelengths of the
particle.  The ground-state kinetic energy fixes an equivalent classical
Lorentz factor gamma(s) = 1 + pi^2/(2 s^2), so shrinking the box is the
same as boosting the particle.  This script walks the regimes, locates the
gamma = 129 threshold below which the theory can fail totally, and replays
the classic free-Gaussian spreading estimate for contrast.

Run:  python demos/01_relativistic_regimes.py
"""

import math

from causalbox import (
    CONFINEMENT_THRESHOLD,
    SystemParams,
    breakdown_interval,
    gaussian_width,
    lorentz_factor,
    speed_fraction,
    time_scales,
)

print("=" * 72)
print("Confinement size vs relativistic character")
print("=" * 72)
print(f"{'s':>8} {'gamma':>12} {'v/c':>10} {'tau_rev (L=5)':>14}")
for s in (100.0, 10.0, 4.0, 1.0, 0.5, 0.2, 0.1, 0.05):
    ts = time_scales(SystemParams(s=s, lambda_factor=5.0))
    print(f"{s:8.2f} {lorentz_factor(s):12.4f} {speed_fraction(s):10.6f} "
          f"{ts.tau_revival:14.4f}")

print()
print(f"breakdown threshold: s <= pi/16 = {CONFINEMENT_THRESHOLD:.6f}, "
      f"i.e. gamma >= {lorentz_factor(CONFINEMENT_THRESHOLD):.1f}")
print()
print("Below the threshold a window of expansion factors makes the")
print("violation total (P = 1 at the specular revival):")
print(f"{'s':>8} {'possible':>9} {'window':>24}")
for s in (0.05, 0.1, 0.15, CONFINEMENT_THRESHOLD, 0.25):
    window = breakdown_interval(s)
    text = f"[{window[0]:.3f}, {window[1]:.3f}]" if window else "none"
    print(f"{s:8.4f} {str(window is not None):>9} {text:>24}")

print()
print("=" * 72)
print("Contrast: free Gaussian spreading (the cautionary estimate)")
print("=" * 72)
print("A packet of initial width sigma0 (reduced Compton units) spreads as")
print("sigma(tau) = sqrt(sigma0^2 + (tau/(2 sigma0))^2); asymptotically it")
print("outruns light iff sigma0 < 1/2.  But a Gaussian has no compact")
print("support, so 'outside the light cone' is ill-posed there; the boxed")
print("release makes the statement sharp, which is the point of the rest")
print("of this library.")
print()
print(f"{'sigma0':>8} {'superluminal':>13} {'sigma(tau=10)/10':>18}")
for sigma0 in (0.1, 0.3, 0.5, 1.0, 2.0):
    print(f"{sigma0:8.2f} {str(sigma0 < 0.5):>13} "
          f"{gaussian_width(sigma0, 10.0) / 10.0:18.4f}")

print()
print(f"marginal case sigma0 = 1/2: width/tau -> "
      f"{gaussian_width(0.5, 1e6) / 1e6:.8f} (exactly light speed)")
print(f"sigma0 = 0.1 at tau = 1: width = {math.sqrt(0.01 + 25.0):.4f} "
      f"(already 5x the light-travel distance)")
