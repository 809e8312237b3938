"""No outer wall at all: exact evolution, late-time limit, closed form.

With the outer box removed the released state propagates on the half line
and the violation probability settles, as tau grows, to a limit P(s) that
depends only on the confinement size.  This script shows the machinery
end to end: the exact Fresnel-integral evaluation of the wave function
and its late-time stationary-phase form, the approach of P(tau) to its
asymptote, the adjudication oracle that pins down which argument
convention the closed-form curve uses, and the agreement of the integral,
tabulated-function, and cubic-series routes.

Run:  python demos/04_free_expansion_asymptotics.py
"""

import numpy as np

from causalbox import (
    adjudicate_convention,
    asymptotic_result,
    asymptotic_violation,
    free_violation_probability,
    free_wavefunction,
    stationary_phase_wavefunction,
)

print("Late times select one wavenumber per ray y = zeta/tau, kappa0 = s y;")
print("the light front y = 1 rides kappa0 = s itself.  Exact closed form vs")
print("the stationary-phase amplitude built on that wavenumber:")
print(f"{'zeta':>7} {'tau':>6} {'s':>5} {'kappa0':>7} {'|psi| exact':>13} "
      f"{'|psi| stat.':>13} {'rel. diff':>9}")
for zeta, tau, s in ((3.0, 10.0, 1.0), (30.0, 40.0, 2.0), (800.0, 900.0, 1.0),
                     (1000.0, 1000.0, 0.7), (2000.0, 1000.0, 2.0)):
    a = abs(free_wavefunction(zeta, tau, s))
    sp = abs(stationary_phase_wavefunction(zeta, tau, s))
    print(f"{zeta:7.1f} {tau:6.0f} {s:5.2f} {s * zeta / tau:7.3f} "
          f"{a:13.9f} {sp:13.9f} {abs(sp - a) / a:9.1e}")
print()
print("P(tau) approaching the asymptote P(s):")
print(f"{'s':>5} {'P(30)':>10} {'P(100)':>10} {'P(1000)':>10} {'P(inf)':>10}")
for s in (0.5, 1.0, 2.0):
    row = [free_violation_probability(tau, s) for tau in (30.0, 100.0, 1000.0)]
    print(f"{s:5.2f} {row[0]:10.6f} {row[1]:10.6f} {row[2]:10.6f} "
          f"{asymptotic_violation(s):10.6f}")

print()
record = adjudicate_convention()
print("Which argument does the tabulated-function curve take?  The oracle")
print("compares the exact dynamics at tau = 1000 with both readings:")
for i, s in enumerate(record.samples):
    print(f"  s = {s}: |P_dyn - P_int(s)| = {record.residuals_reduced[i]:.5f}"
          f"   |P_dyn - P_int(2 pi s)| = {record.residuals_nonreduced[i]:.5f}")
print(f"verdict: '{record.convention}' units for the integral form "
      f"(worst matched residual {record.matched_residual:.2e});")
print("the closed form and the cubic series take the size in NON-reduced")
print("Compton wavelengths, i.e. their argument is s/(2 pi).")
print()
print("All three routes on one grid (canonical s in reduced units):")
print(f"{'s':>8} {'integral':>12} {'closed form':>12} {'series':>12}")
for s in (0.25, 0.5, 1.0, 2.0, np.pi, 2.0 * np.pi):
    res = asymptotic_result(float(s), record.convention)
    print(f"{s:8.4f} {res.p_quadrature:12.8f} {res.p_closed:12.8f} "
          f"{res.p_series:12.8f}")
print("(the series is a small-argument law; it degrades first, as it must)")
print()
print("Anchor: closed-form argument 1 is the upper limit 2 pi (reduced")
print(f"s = {2.0 * np.pi:.4f}), where the asymptotic violation is "
      f"{asymptotic_violation(2.0 * np.pi):.4f}, i.e. about one percent.")
print("Note: the curve starts dropping significantly around non-reduced")
print("argument ~0.2; whether that echoes the boxed-problem threshold is a")
print("reading of the same curve, recorded here without endorsement.")
