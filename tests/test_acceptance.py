"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute; tolerances are fixed here and nowhere else.
"""

import math

import numpy as np
import pytest

from causalbox import (
    CONVENTION,
    SystemParams,
    adjudicate_convention,
    asymptotic_result,
    asymptotic_violation,
    asymptotic_violation_closed,
    breakdown_interval,
    build_spectrum,
    density_norm,
    free_violation_probability,
    initial_state,
    integrate,
    is_total_breakdown,
    lorentz_factor,
    parseval_partial_sum,
    profile_spectrum,
    time_scales,
    violation_probability,
    wavefunction,
)
from causalbox.cli import main
from causalbox.quadrature import QuadratureConfig

PI = math.pi


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_threshold_lorentz_factor():
    got = lorentz_factor(PI / 16.0)
    ok = abs(got - 129.0) / 129.0 <= 1e-12
    _report(1, ok, f"gamma(pi/16) = {got!r}, relative error "
                   f"{abs(got - 129.0) / 129.0:.2e} <= 1e-12")


def test_criterion_02_breakdown_interval():
    lo, hi = breakdown_interval(0.1)
    ok = abs(lo - 2.352) <= 1e-3 and abs(hi - 13.356) <= 1e-3
    _report(2, ok, f"interval at s=0.1 = ({lo:.6f}, {hi:.6f}) vs "
                   f"(2.352, 13.356) within 1e-3")


def test_criterion_03_weak_violation_for_large_box(spectrum_lam5):
    params = SystemParams(s=4.0, lambda_factor=5.0)
    grid = np.round(np.arange(401) * 0.01, 12)
    peak = max(violation_probability(spectrum_lam5, params, float(tau))
               for tau in grid)
    _report(3, peak <= 0.03, f"max P over tau grid (step 0.01) = "
                             f"{peak:.5f} <= 0.03")


def test_criterion_04_total_breakdown_peak(spectrum_lam5, params_s01):
    p = violation_probability(spectrum_lam5, params_s01, 5.0 / PI)
    _report(4, p >= 0.999, f"P(5/pi) at s=0.1 = {p:.7f} >= 0.999")


def test_criterion_05_marginal_peak(spectrum_lam5, params_s02):
    captured = 4.0 - 10.0 / PI
    expected = captured - math.sin(2.0 * PI * captured) / (2.0 * PI)
    p = violation_probability(spectrum_lam5, params_s02, 10.0 / PI)
    ok = abs(p - expected) <= 1e-3 and p < 1.0
    _report(5, ok, f"P(10/pi) at s=0.2 = {p:.6f} vs analytic "
                   f"{expected:.6f} within 1e-3, strictly below 1")


@pytest.mark.parametrize("s,lam", [(0.1, 5.0), (1.0, 5.0), (4.0, 5.0),
                                   (0.5, 3.7)])
def test_criterion_06_revival_invariants(s, lam, rng):
    params = SystemParams(s=s, lambda_factor=lam)
    # the 1e-4 specular sup bound is the sup-norm cut's
    spectrum = profile_spectrum(params)
    scales = time_scales(params)

    norm_errs = [abs(density_norm(spectrum, s, t) - 1.0)
                 for t in rng.uniform(0.0, scales.tau_revival, 10)]
    unitary_ok = max(norm_errs) <= 1e-8

    zg = np.linspace(0.0, lam, 301)
    period_err = 0.0
    for tau in (0.0, 0.37 * scales.tau_revival):
        diff = np.abs(wavefunction(spectrum, s, zg, tau)
                      - wavefunction(spectrum, s, zg, tau + scales.tau_revival))
        period_err = max(period_err, float(diff.max()))
    periodic_ok = period_err <= 1e-10

    zfine = np.linspace(0.0, lam, 2001)
    spec_err = float(np.max(np.abs(
        np.abs(wavefunction(spectrum, s, zfine, scales.tau_specular))
        - np.abs(initial_state(lam - zfine)))))
    specular_ok = spec_err <= 1e-4

    ok = unitary_ok and periodic_ok and specular_ok
    _report(6, ok, f"(s={s}, lam={lam}) unitarity {max(norm_errs):.1e} "
                   f"<= 1e-8, periodicity {period_err:.1e} <= 1e-10, "
                   f"specular sup {spec_err:.1e} <= 1e-4")


def test_criterion_07_parseval_identity():
    worst = 0.0
    for lam in (1.0, 2.0, 5.0, 4.7):
        n_terms = build_spectrum(lam, tol=1e-9).max_mode
        worst = max(worst, abs(parseval_partial_sum(lam, n_terms) - 1.0))
    _report(7, worst <= 1e-8, f"worst |parseval sum - 1| = {worst:.2e} <= 1e-8")


def test_criterion_08_asymptotic_normalization():
    S = 2000.0
    res = integrate(
        lambda t: (np.sinc((t - PI) / PI) / (t + PI)) ** 2, 0.0, S,
        QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=20000,
                         breakpoints=tuple(k * PI for k in range(1, int(S / PI) + 1))))
    tail = (1.0 / (S - PI) + 1.0 / (S + PI)
            - math.log((S + PI) / (S - PI)) / PI) / (4.0 * PI**2)
    total = 4.0 * PI * res.value
    ok = res.converged and abs(total - 1.0) <= 1e-6 + 4.0 * PI * tail
    _report(8, ok, f"4 pi int_0^{S:g} = {total:.10f}, analytic tail "
                   f"<= {4.0 * PI * tail:.1e}, off by {abs(total - 1.0):.2e}")


def test_criterion_09_closed_form_and_cubic_coefficient():
    worst = max(abs(asymptotic_violation_closed(float(a))
                    - asymptotic_violation(2.0 * PI * float(a)))
                for a in np.geomspace(0.05, 50.0, 30))
    args = np.geomspace(1e-3, 1e-2, 8)
    defect = np.array([1.0 - asymptotic_violation(2.0 * PI * a) for a in args])
    coeff = float(defect @ args**3 / (args**3 @ args**3))
    ok = worst <= 1e-8 and abs(coeff - 32.0 / 3.0) / (32.0 / 3.0) <= 0.01
    _report(9, ok, f"closed-vs-integral worst {worst:.2e} <= 1e-8 on 30 "
                   f"log-spaced args; cubic coefficient {coeff:.4f} vs 32/3 "
                   f"within 1%")


def test_criterion_10_one_percent_anchor():
    # printed-curve argument 1 is the upper limit 2 pi under either
    # convention: s = 2 pi reduced, or s = 1 non-reduced
    p = asymptotic_violation(2.0 * PI)
    ok = abs(p - 0.01) <= 0.005
    _report(10, ok, f"printed-curve argument 1 is upper limit 2 pi: "
                    f"P = {p:.4f} = 0.01 +/- 0.005")


def test_criterion_11_long_time_consistency():
    triples = adjudicate_convention()
    stated = max(r for _, r, _ in triples)
    rival = max(r for _, _, r in triples)
    ok = stated <= rival
    details = [f"worst residual {CONVENTION!r} {stated:.1e} "
               f"<= rival {rival:.2f}"]
    for s in (0.5, 1.0, 2.0):
        target = asymptotic_result(s).p_quadrature
        r_late = abs(free_violation_probability(1000.0, s) - target)
        r_early = abs(free_violation_probability(100.0, s) - target)
        ok = ok and r_late <= 0.01 and r_late < r_early
        details.append(f"s={s}: |residual| {r_early:.1e} -> {r_late:.1e}")
    _report(11, ok, "; ".join(details) + " (each <= 0.01 and decreasing)")


def test_criterion_12_breakdown_predicts_dynamics():
    cases = [(0.1, 5.0), (0.1, 2.0), (0.1, 13.0), (0.1, 14.0),
             (0.19, 4.0), (0.15, 9.0)]
    ok = True
    details = []
    for s, lam in cases:
        params = SystemParams(s=s, lambda_factor=lam)
        spectrum = build_spectrum(params)
        p = violation_probability(spectrum, params,
                                  time_scales(params).tau_specular)
        total = is_total_breakdown(s, lam)
        agrees = (p >= 0.999) if total else (p <= 0.999)
        ok = ok and agrees
        details.append(f"({s},{lam}): {'T' if total else 'F'} P={p:.4f}")
    _report(12, ok, "; ".join(details))


def test_criterion_13_cli_determinism(tmp_path):
    a, b = tmp_path / "t1.csv", tmp_path / "t8.csv"
    argv = ["violation-sweep", "--s", "0.1", "--lambda", "5",
            "--tau-step", "0.01"]
    rc1 = main(argv + ["--out", str(a), "--threads", "1"])
    rc8 = main(argv + ["--out", str(b), "--threads", "8"])
    with open(a, "rb") as fh:
        bytes1 = fh.read()
    with open(b, "rb") as fh:
        bytes8 = fh.read()
    ok = rc1 == 0 and rc8 == 0 and bytes1 == bytes8
    _report(13, ok, f"--threads 1 vs --threads 8 produce identical bytes "
                    f"({len(bytes1)} bytes, {bytes1 == bytes8})")
