"""Command-line front end: figure-quality CSV sweeps and the validation gate.

Subcommands
    violation-sweep   P(tau) over the violation window -> CSV
    snapshot          probability-density profiles at chosen times -> CSV
    asymptotic        late-time P(s) by quadrature/closed form/series -> CSV
    breakdown         total-breakdown verdict for one (s, Lambda) -> text
    validate          invariant battery and the fixed adjudication experiment

Numeric CSV fields are printed with 17 significant digits (round-trip exact
for doubles), comma separated, one header row, one trailing newline.  Each
output file gets a JSON manifest sidecar recording the command, the full
parameter set, the library version, the wall-clock duration and
``stages``, the seconds per stage, which add up to the duration.  Box
commands also record which truncation criteria chose the spectrum
(``truncation``: "norm" for the sweep, "norm+uniform" for profiles), and
the sweep its ``worst_error_estimate``.
Identical invocations produce bit-identical CSV bytes.  violation-sweep
takes --threads, whose workers only partition the tau grid; they never
change the arithmetic.  ``asymptotic`` writes P(s) in the library's stated
convention (``freespace.CONVENTION``); only ``validate`` re-runs the
experiment behind it, and judges its residuals on the ``adjudication``
line like any other check.

Exit codes: 0 success, 1 invalid arguments (usage errors included),
numerical failure or a failed ``validate`` check, 3 I/O error.  Each
failure prints one line to stderr; ``validate`` reports on stdout, one
line per check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .boxmodes import (build_spectrum, density_norm, density_snapshot,
                       initial_state, parseval_partial_sum, profile_lattice,
                       profile_spectrum, wavefunction)
from .breakdown import (CONFINEMENT_THRESHOLD, GAMMA_THRESHOLD,
                        breakdown_interval, is_total_breakdown)
from .freespace import (CONVENTION, adjudicate_convention, asymptotic_result,
                        asymptotic_violation, asymptotic_violation_closed)
from .lightcone import (ProbabilityRangeError, _check_grid_points,
                        default_sweep_grid, violation_probability)
from .params import SystemParams, lorentz_factor, time_scales
from .quadrature import NumericalConvergenceError, integrate
from .special import (EULER_GAMMA, cosine_integral, entire_cosine_integral,
                      reference_table_errors)

__all__ = ["main"]

_PI = math.pi


class _Clock:
    """Lap timer: each lap closes one named stage, so the stages tile the run."""

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[stage] = now - self._last
        self._last = now


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(args, clock: _Clock, header: str, rows,
                   parameters: dict) -> None:
    """Write the CSV, close the ``write`` stage, then write the manifest."""
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    clock.lap("write")
    _write_json(args.out + ".manifest.json", {
        "command": args.command, "parameters": parameters,
        "version": __version__,
        "duration_s": sum(clock.stages.values()), "stages": clock.stages,
        "outputs": [args.out]})


def _chunked_map(fn, items, threads: int):
    """Order-preserving parallel map; identical output for any thread count.

    Workers are capped at the core count and the number of items.
    """
    items = list(items)
    workers = min(threads, os.cpu_count() or 1, len(items))
    if workers <= 1 or len(items) < 4:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _box_parameters(args, spectrum) -> dict:
    """Manifest fields shared by the box commands: inputs and truncation.

    ``truncation`` names the criteria that chose N: "norm" alone, or
    "norm+uniform" when the sup-norm tail was cut too.
    """
    truncation = "norm" if spectrum.uniform_tol is None else "norm+uniform"
    return {"s": args.s, "lambda": args.lambda_factor, "tol": args.tol,
            "truncation": truncation, "spectrum_max_mode": spectrum.max_mode,
            "spectrum_tail_bound": spectrum.tail_bound,
            "spectrum_amplitude_tail_bound": spectrum.amplitude_tail_bound}


def cmd_violation_sweep(args) -> int:
    params = SystemParams(s=args.s, lambda_factor=args.lambda_factor)
    clock = _Clock()
    spectrum = build_spectrum(params, tol=args.tol)
    clock.lap("spectrum")
    grid = default_sweep_grid(params, tau_step=args.tau_step)

    def one(tau: float):
        return violation_probability(spectrum, params, float(tau),
                                     full_output=True)

    results = _chunked_map(one, grid, args.threads)
    clock.lap("evaluate")
    rows = ((_fmt(tau), _fmt(p), _fmt(err))
            for tau, (p, err) in zip(grid, results))
    _write_outputs(args, clock, "tau,p_violation,error_estimate", rows,
                   {**_box_parameters(args, spectrum),
                    "threads": args.threads, "tau_step": args.tau_step,
                    "grid_points": int(len(grid)),
                    "fft_size": spectrum.fft_size,
                    "worst_error_estimate": max(err for _, err in results)})
    return 0


def _zeta_grid(lam: float, step: float) -> np.ndarray:
    """Snapshot positions: multiples of step up to Lambda, then Lambda itself."""
    if not 0 < step < math.inf:
        raise ValueError(f"zeta step must be positive and finite, got {step}")
    _check_grid_points(lam / step, f"zeta_step={step:g} at Lambda={lam:g}")
    n_steps = int(round(lam / step))
    zgrid = np.round(np.arange(n_steps + 1) * step, 12)
    zgrid = zgrid[zgrid <= lam]
    if zgrid[-1] < lam:
        zgrid = np.append(zgrid, lam)
    return zgrid


def cmd_snapshot(args) -> int:
    params = SystemParams(s=args.s, lambda_factor=args.lambda_factor)
    clock = _Clock()
    spectrum = profile_spectrum(params, tol=args.tol)
    clock.lap("spectrum")
    scales = time_scales(params)
    if args.tau_list:
        taus = [float(t) for t in args.tau_list.split(",")]
    else:
        rev = scales.tau_revival
        taus = [0.0, rev / 8, rev / 4, rev / 2, 5 * rev / 8,
                scales.tau_evacuation]
    zgrid = _zeta_grid(params.lambda_factor, args.zeta_step)
    rhos = [density_snapshot(spectrum, params.s, zgrid, tau) for tau in taus]
    clock.lap("evaluate")
    rows = ((_fmt(tau), _fmt(z), _fmt(r))
            for tau, rho in zip(taus, rhos) for z, r in zip(zgrid, rho))
    _write_outputs(args, clock, "tau,zeta,rho", rows,
                   {**_box_parameters(args, spectrum),
                    "tau_list": taus,
                    "zeta_step": args.zeta_step,
                    "profile_lattice": profile_lattice(spectrum, zgrid)})
    return 0


def cmd_asymptotic(args) -> int:
    if not (0 < args.s_min < args.s_max):
        raise ValueError("require 0 < s-min < s-max")
    if args.n_points < 2:
        raise ValueError("need at least two grid points")
    _check_grid_points(args.n_points, f"n_points={args.n_points}")
    clock = _Clock()
    sgrid = np.geomspace(args.s_min, args.s_max, args.n_points)
    results = [asymptotic_result(float(s)) for s in sgrid]
    clock.lap("evaluate")
    rows = ((_fmt(s), _fmt(r.p_quadrature), _fmt(r.p_closed),
             _fmt(r.p_series), CONVENTION) for s, r in zip(sgrid, results))
    _write_outputs(args, clock, "s,p_quadrature,p_closed,p_series,convention",
                   rows, {"s_min": args.s_min, "s_max": args.s_max,
                          "n_points": args.n_points})
    return 0


def cmd_breakdown(args) -> int:
    interval = breakdown_interval(args.s)
    total = is_total_breakdown(args.s, args.lambda_factor)
    gamma = lorentz_factor(args.s)
    print(f"confinement size        s = {_fmt(args.s)}")
    print(f"expansion factor   Lambda = {_fmt(args.lambda_factor)}")
    print(f"threshold         pi/16 = {CONFINEMENT_THRESHOLD:.6f}")
    print(f"Lorentz factor     gamma = {gamma:.6g}"
          f"   (threshold gamma = {GAMMA_THRESHOLD:g})")
    if interval is not None:
        lo, hi = interval
        print(f"breakdown window  Lambda in [{_fmt(lo)}, {_fmt(hi)}]")
    else:
        print("breakdown window  none (s above threshold)")
    verdict = "TOTAL BREAKDOWN" if total else "NO"
    print(f"verdict           {verdict}")
    return 0


def _mirrored_weight(lam: float, tau: float) -> float:
    """Weight of the mirrored bump sqrt(2) sin(pi (Lambda - zeta)) beyond the front.

    The bump fills [Lambda - 1, Lambda]; the front leaves u = Lambda - 1 - tau
    of it, clipped to [0, 1], which holds u - sin(2 pi u)/(2 pi).
    """
    u = min(max(lam - 1.0 - tau, 0.0), 1.0)
    return u - math.sin(2.0 * _PI * u) / (2.0 * _PI)


def _validation_checks():
    """Yield (name, passed, detail) for the invariant battery."""
    res = integrate(np.sin, 0.0, _PI)
    yield ("quadrature_textbook", abs(res.value - 2.0) <= 1e-12,
           f"int sin = {res.value!r}")

    errs = reference_table_errors()
    yield ("special_function_table", max(errs.values()) <= 1e-10,
           f"max |err| si={errs['si']:.2e} cin={errs['cin']:.2e}")

    worst = max(abs(cosine_integral(x)
                    - (EULER_GAMMA + math.log(x) - entire_cosine_integral(x)))
                for x in (0.25, 0.5, 1.0))
    yield ("si_ci_identity", worst <= 1e-12, f"worst residual {worst:.2e}")

    worst = 0.0
    for lam in (1.0, 2.0, 5.0, 4.7):
        n_terms = build_spectrum(lam, tol=1e-9).max_mode
        worst = max(worst, abs(parseval_partial_sum(lam, n_terms) - 1.0))
    yield ("parseval_identity", worst <= 1e-8, f"worst |sum-1| {worst:.2e}")

    params = SystemParams(s=0.1, lambda_factor=5.0)
    spec = build_spectrum(params)
    profile = profile_spectrum(params)
    scales = time_scales(params)
    worst = max(abs(density_norm(spec, params.s, t) - 1.0)
                for t in (0.0, 0.37, scales.tau_specular, 2.9))
    yield ("box_unitarity", worst <= 1e-8, f"worst |norm-1| {worst:.2e}")

    zg = np.linspace(0.0, 5.0, 201)
    d = np.abs(wavefunction(profile, params.s, zg, 0.37)
               - wavefunction(profile, params.s, zg,
                              0.37 + scales.tau_revival))
    yield ("box_periodicity", float(d.max()) <= 1e-10,
           f"max pointwise diff {d.max():.2e}")

    d = np.abs(np.abs(wavefunction(profile, params.s, zg,
                                   scales.tau_specular))
               - np.abs(initial_state(5.0 - zg)))
    yield ("specular_revival", float(d.max()) <= 6e-5,
           f"sup modulus diff {d.max():.2e}")

    p2 = SystemParams(s=0.2, lambda_factor=5.0)
    spec2 = build_spectrum(p2)
    worst = max(abs(violation_probability(spec2, p2, 0.0)),
                abs(violation_probability(spec2, p2, 4.0)))
    yield ("violation_endpoints", worst <= 1e-6, f"worst endpoint {worst:.2e}")

    # at tau_rev/2 the state is the mirrored bump; at tau_rev/4 it is
    # ((1-i) bump(zeta) - (1+i) bump(Lambda-zeta))/2, and beyond the front
    # only the mirrored half of it lies.  Complex coefficients make the
    # quarter row sensitive to the n^2 dispersion law.
    p3 = SystemParams(s=0.1, lambda_factor=2.0)
    spec3 = build_spectrum(p3)
    rev = time_scales(p3).tau_revival
    gaps, errs = [], []
    for tau, share in ((rev / 2, 1.0), (rev / 4, 0.5)):
        p, err = violation_probability(spec3, p3, tau, full_output=True)
        gaps.append(abs(p - share * _mirrored_weight(p3.lambda_factor, tau)))
        errs.append(err)
    yield ("specular_exact", all(g <= e for g, e in zip(gaps, errs)),
           f"|P - exact| {gaps[0]:.1e}, {gaps[1]:.1e}; "
           f"err {errs[0]:.1e}, {errs[1]:.1e}")

    total = 1.0 - asymptotic_violation(2000.0)
    yield ("asymptotic_normalization", abs(total - 1.0) <= 1e-6,
           f"4 pi int_0^2000 = {total!r}")

    worst = max(abs(asymptotic_violation_closed(a)
                    - asymptotic_violation(2.0 * _PI * a))
                for a in (0.05, 0.3, 0.5, 1.0, 3.0, 10.0))
    yield ("closed_form_vs_integral", worst <= 1e-8,
           f"worst |closed - quad| {worst:.2e}")

    p_break = violation_probability(spec, params, scales.tau_specular)
    p_no = violation_probability(spec2, p2, time_scales(p2).tau_specular)
    yield ("breakdown_cross_check",
           p_break >= 0.999 and p_no <= 0.999,
           f"P(tau_spec): breakdown {p_break:.6f}, marginal {p_no:.6f}")

    lo, hi = breakdown_interval(0.1)
    quad = max(abs((2 * 0.1 / _PI) * x * x - x + 2.0) for x in (lo, hi))
    yield ("breakdown_interval_roots", quad <= 1e-12,
           f"|quadratic at roots| {quad:.2e}")

    triples = adjudicate_convention()
    stated = max(r for _, r, _ in triples)
    rival = max(r for _, _, r in triples)
    yield ("adjudication", stated <= 0.02 and stated <= rival,
           f"convention={CONVENTION}: worst residual {stated:.4f}, "
           f"rival {rival:.4f}")


def cmd_validate(args) -> int:
    failures = 0
    for name, ok, detail in _validation_checks():
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name:28s} {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so they exit like any other bad input."""

    def error(self, message):
        raise ValueError(message)


def _finite(text: str) -> float:
    """Float option value; NaN and +-inf are rejected."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalbox",
        description="causality-violation analysis of the sudden expansion")
    sub = parser.add_subparsers(dest="command", required=True)

    box = _Parser(add_help=False)
    box.add_argument("--s", type=_finite, required=True,
                     help="confinement size in reduced Compton wavelengths")
    box.add_argument("--lambda", dest="lambda_factor", type=_finite,
                     required=True, help="expansion factor (> 1)")
    box.add_argument("--tol", type=_finite, default=1e-10,
                     help="spectrum truncation tolerance")
    box.add_argument("--out", required=True)

    sweep = sub.add_parser("violation-sweep", parents=[box],
                           help="P(tau) over the violation window as CSV")
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--tau-step", type=_finite, default=0.005)
    sweep.set_defaults(func=cmd_violation_sweep)

    snap = sub.add_parser("snapshot", parents=[box],
                          help="density profiles as CSV")
    snap.add_argument("--tau-list", default="",
                      help="comma-separated times; default: revival fractions")
    snap.add_argument("--zeta-step", type=_finite, default=0.002)
    snap.set_defaults(func=cmd_snapshot)

    asym = sub.add_parser("asymptotic",
                          help="late-time violation probability as CSV")
    asym.add_argument("--s-min", type=_finite, required=True)
    asym.add_argument("--s-max", type=_finite, required=True)
    asym.add_argument("--n-points", type=int, default=60)
    asym.add_argument("--out", required=True)
    asym.set_defaults(func=cmd_asymptotic)

    brk = sub.add_parser("breakdown", help="total-breakdown verdict")
    brk.add_argument("--s", type=_finite, required=True)
    brk.add_argument("--lambda", dest="lambda_factor", type=_finite,
                     required=True)
    brk.set_defaults(func=cmd_breakdown)

    val = sub.add_parser("validate",
                         help="invariant battery and adjudication oracle")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except (NumericalConvergenceError, ProbabilityRangeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
