"""Sweeping the causality-violation probability across box sizes.

Between release (tau = 0) and the moment the light front reaches the far
wall (tau = Lambda - 1), part of the Schrodinger density can sit beyond
every point light could have reached: P(tau) measures that weight.  For
roomy boxes the effect is a percent-level wiggle; shrinking the box grows
a broad ballistic peak, and below the confinement threshold a second,
needle-sharp peak rises to exactly 1 at the specular revival, where the
whole packet has tunneled past the light front.  This reproduces the
classic six-panel story and writes one sweep to CSV for plotting.

Run:  python demos/03_violation_window.py
"""

import numpy as np

from causalbox import (
    SystemParams,
    breakdown_interval,
    build_spectrum,
    default_sweep_grid,
    is_total_breakdown,
    time_scales,
    violation_probability,
)

LAMBDA = 5.0
SIZES = (4.0, 2.5, 1.0, 0.5, 0.2, 0.1)

spectrum = build_spectrum(LAMBDA)
print(f"outer box Lambda = {LAMBDA}; panels scan the confinement size s")
print(f"{'s':>6} {'max P':>10} {'at tau':>8} {'P(tau_spec)':>12} "
      f"{'breakdown?':>11}")
sweeps = {}
for s in SIZES:
    params = SystemParams(s=s, lambda_factor=LAMBDA)
    grid = default_sweep_grid(params, tau_step=0.02)
    # one (P, error estimate) pair per time
    pe = np.array([violation_probability(spectrum, params, float(tau),
                                         full_output=True) for tau in grid])
    sweeps[s] = (grid, pe[:, 0], pe[:, 1])
    values = pe[:, 0]
    i_max = int(np.argmax(values))
    tau_spec = time_scales(params).tau_specular
    in_window = tau_spec <= params.lambda_factor - 1.0
    p_spec = (values[np.argmin(np.abs(grid - tau_spec))]
              if in_window else float("nan"))
    print(f"{s:6.2f} {values[i_max]:10.6f} {grid[i_max]:8.3f} "
          f"{p_spec:12.6f} {str(is_total_breakdown(s, LAMBDA)):>11}")

print()
print("Only s = 0.1 satisfies both breakdown conditions at Lambda = 5:")
lo, hi = breakdown_interval(0.1)
print(f"  s = 0.1 <= pi/16, window Lambda in [{lo:.3f}, {hi:.3f}] contains 5 "
      f"-> total breakdown = {is_total_breakdown(0.1, LAMBDA)}")
print(f"  s = 0.2 is just above the threshold -> sharp peak but "
      f"P < 1 (total breakdown = {is_total_breakdown(0.2, LAMBDA)})")

print()
print("The s = 0.2 peak height has a closed form: at the specular revival")
print("the density is the mirrored initial profile, so the weight beyond")
print("the front integrates analytically:")
captured = LAMBDA - 1.0 - 2.0 * LAMBDA**2 * 0.2 / np.pi
analytic = captured - np.sin(2.0 * np.pi * captured) / (2.0 * np.pi)
grid02, values02, _ = sweeps[0.2]
p02 = values02[np.argmin(np.abs(
    grid02 - time_scales(SystemParams(s=0.2, lambda_factor=LAMBDA)).tau_specular))]
print(f"  analytic {analytic:.6f} vs swept {p02:.6f}")

out = "violation_sweep_s0.1.csv"
grid01, values01, errors01 = sweeps[0.1]
with open(out, "w", encoding="utf-8", newline="\n") as fh:
    fh.write("tau,p_violation,error_estimate\n")
    for t, p, e in zip(grid01, values01, errors01):
        fh.write(f"{t:.17g},{p:.17g},{e:.17g}\n")
print()
print(f"wrote {out} ({len(grid01)} rows); the same file comes from:")
print("  causalbox violation-sweep --s 0.1 --lambda 5 --out sweep.csv")
