"""The released wave packet: expansion, collapse, and the specular revival.

A particle starts in the ground state of the unit box and is released into
a box Lambda times wider.  The exact evolution is a truncated sine-basis
mode sum; because the widened-box spectrum is purely quadratic in the mode
number, the motion is exactly periodic with period tau_rev = 4 Lambda^2
s/pi, and at half that period the initial profile reappears pressed
against the far wall, mirror-reflected.  This script samples the density
at the canonical snapshot times, checks unitarity and periodicity on the
fly, and shows the mirrored profile overlapping the ideal one.

Run:  python demos/02_box_revival_dynamics.py
"""

import numpy as np

from causalbox import (
    SystemParams,
    density_norm,
    density_snapshot,
    initial_state,
    profile_spectrum,
    time_scales,
    wavefunction,
)

params = SystemParams(s=0.1, lambda_factor=5.0)
spectrum = profile_spectrum(params)
scales = time_scales(params)

print(f"s = {params.s}, Lambda = {params.lambda_factor}")
print(f"retained modes: {spectrum.max_mode}, "
      f"discarded norm <= {spectrum.tail_bound:.2e}, "
      f"discarded amplitude <= {spectrum.amplitude_tail_bound:.2e}")
print(f"revival period tau_rev = {scales.tau_revival:.6f}, "
      f"specular revival at {scales.tau_specular:.6f}")
print()

rev = scales.tau_revival
snapshots = [("release", 0.0), ("rev/8", rev / 8), ("rev/4", rev / 4),
             ("rev/2 (specular)", rev / 2), ("5 rev/8", 5 * rev / 8),
             ("front reaches wall", scales.tau_evacuation)]
zgrid = np.linspace(0.0, params.lambda_factor, 1001)

print(f"{'snapshot':>20} {'tau':>9} {'norm':>12} {'<zeta>':>8} {'support':>18}")
for label, tau in snapshots:
    rho = density_snapshot(spectrum, params.s, zgrid, tau)
    norm = density_norm(spectrum, params.s, tau)
    mean = np.trapezoid(rho * zgrid, zgrid)
    occupied = zgrid[rho > 1e-3]
    support = f"[{occupied[0]:.2f}, {occupied[-1]:.2f}]" if len(occupied) else "-"
    print(f"{label:>20} {tau:9.4f} {norm:12.10f} {mean:8.3f} {support:>18}")

print()
print("Specular revival detail: |psi(zeta, tau_rev/2)| against the mirrored")
print("initial profile sqrt(2)|sin(pi(Lambda - zeta))| on the far strip:")
zfine = np.linspace(3.8, 5.0, 9)
revived = np.abs(wavefunction(spectrum, params.s, zfine, scales.tau_specular))
ideal = np.abs(initial_state(params.lambda_factor - zfine))
print(f"{'zeta':>6} {'revived':>12} {'mirrored':>12} {'diff':>10}")
for z, r, i in zip(zfine, revived, ideal):
    print(f"{z:6.2f} {r:12.8f} {i:12.8f} {abs(r - i):10.2e}")

print()
tau_probe = 0.77 * rev
diff = np.max(np.abs(wavefunction(spectrum, params.s, zgrid, tau_probe)
                     - wavefunction(spectrum, params.s, zgrid,
                                    tau_probe + rev)))
print(f"exact periodicity: max |psi(tau) - psi(tau + tau_rev)| = {diff:.2e}")
print("(the mode phases advance by exact multiples of 2 pi over one period)")
