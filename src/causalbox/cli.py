"""Command-line front end: figure-quality CSV sweeps and the validation gate.

Subcommands
    violation-sweep   P(tau) over the violation window -> CSV
    snapshot          probability-density profiles at chosen times -> CSV
    asymptotic        late-time P(s) by quadrature/closed form/series -> CSV
    breakdown         total-breakdown verdict for one (s, Lambda) -> text
    validate          run the invariant battery and the adjudication oracle

Numeric CSV fields are printed with 17 significant digits (round-trip exact
for doubles), comma separated, one header row, one trailing newline.  Each
output file gets a JSON manifest sidecar recording the command, the full
parameter set, the library version, the adjudicated convention where it
applies, the wall-clock duration and ``stages``, the seconds per stage,
which add up to the duration.  Box commands also record which truncation
criteria chose the spectrum (``truncation``: "norm" for the sweep,
"norm+uniform" for profiles), and the sweep its ``worst_error_estimate``.
Identical invocations produce bit-identical CSV bytes, whatever --threads
says; worker threads only partition the grid, they never change the
arithmetic.

Exit codes: 0 success, 1 invalid arguments (usage errors included) or
validation/numerical failure, 2 adjudication failure, 3 I/O error.  Each
failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import numpy as np

from . import __version__
from .boxmodes import (build_spectrum, density_norm, density_snapshot,
                       initial_state, parseval_partial_sum, profile_lattice,
                       profile_spectrum, wavefunction)
from .breakdown import (CONFINEMENT_THRESHOLD, GAMMA_THRESHOLD,
                        breakdown_interval, is_total_breakdown)
from .freespace import (TAU_LARGE_MIN, AdjudicationError,
                        adjudicate_convention, asymptotic_result,
                        asymptotic_violation, asymptotic_violation_closed)
from .lightcone import (ProbabilityRangeError, default_sweep_grid,
                        violation_probability)
from .params import SystemParams, lorentz_factor, time_scales
from .quadrature import NumericalConvergenceError, QuadratureConfig, integrate
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


def _write_outputs(args, clock: _Clock, header: str, rows, parameters: dict,
                   convention: str | None = None) -> None:
    """Write the CSV, close the ``write`` stage, then write the manifest."""
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    clock.lap("write")
    _write_json(args.out + ".manifest.json", {
        "command": args.command, "parameters": parameters,
        "version": __version__, "convention": convention,
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
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _box_parameters(args, spectrum) -> dict:
    """Manifest fields shared by the box commands: inputs and truncation.

    ``truncation`` names the criteria that chose N: "norm" alone, or
    "norm+uniform" when the sup-norm tail was cut too.
    """
    truncation = "norm" if spectrum.uniform_tol is None else "norm+uniform"
    return {"s": args.s, "lambda": args.lambda_factor, "tol": args.tol,
            "threads": args.threads, "truncation": truncation,
            "spectrum_max_mode": spectrum.max_mode,
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
                    "tau_step": args.tau_step, "grid_points": int(len(grid)),
                    "fft_size": spectrum.fft_size,
                    "worst_error_estimate": max(err for _, err in results)})
    return 0


def _zeta_grid(lam: float, step: float) -> np.ndarray:
    """Snapshot positions: multiples of step up to Lambda, then Lambda itself."""
    if not 0 < step < math.inf:
        raise ValueError(f"zeta step must be positive and finite, got {step}")
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

    def one(tau: float):
        return density_snapshot(spectrum, params.s, zgrid, tau)

    rhos = _chunked_map(one, taus, args.threads)
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
    clock = _Clock()
    if args.convention == "auto":
        record = adjudicate_convention(tau_large=args.tau_large)
        _write_json(args.out + ".convention.json", asdict(record))
        clock.lap("adjudicate")
        convention = record.convention
    else:
        convention = args.convention
    sgrid = np.geomspace(args.s_min, args.s_max, args.n_points)

    def one(s: float):
        return asymptotic_result(float(s), convention)

    results = _chunked_map(one, sgrid, args.threads)
    clock.lap("evaluate")
    rows = ((_fmt(r.s), _fmt(r.p_quadrature), _fmt(r.p_closed),
             _fmt(r.p_series), convention) for r in results)
    _write_outputs(args, clock, "s,p_quadrature,p_closed,p_series,convention",
                   rows,
                   {"s_min": args.s_min, "s_max": args.s_max,
                    "n_points": args.n_points, "threads": args.threads,
                    # a forced convention never reads tau_large
                    "tau_large": (args.tau_large if args.convention == "auto"
                                  else None),
                    "requested_convention": args.convention},
                   convention=convention)
    return 0


def cmd_breakdown(args) -> int:
    interval = breakdown_interval(args.s)
    total = is_total_breakdown(args.s, args.lambda_factor)
    gamma = lorentz_factor(args.s)
    print(f"confinement size        s = {args.s:g}")
    print(f"expansion factor   Lambda = {args.lambda_factor:g}")
    print(f"threshold         pi/16 = {CONFINEMENT_THRESHOLD:.6f}")
    print(f"Lorentz factor     gamma = {gamma:.6g}"
          f"   (threshold gamma = {GAMMA_THRESHOLD:g})")
    if interval is not None:
        lo, hi = interval
        print(f"breakdown window  Lambda in [{lo:.6g}, {hi:.6g}]")
    else:
        print("breakdown window  none (s above threshold)")
    verdict = "TOTAL BREAKDOWN" if total else "NO"
    print(f"verdict           {verdict}")
    return 0


def _validation_checks(tau_large: float):
    """Yield (name, passed, detail) for the invariant battery."""
    res = integrate(np.sin, 0.0, _PI)
    yield ("quadrature_textbook", abs(res.value - 2.0) <= 1e-12,
           f"int sin = {res.value!r}")

    errs = reference_table_errors()
    yield ("special_function_table", max(errs.values()) <= 1e-10,
           f"max |err| si={errs['si']:.2e} cin={errs['cin']:.2e}")

    worst = max(abs(cosine_integral(x)
                    - (EULER_GAMMA + math.log(x) - entire_cosine_integral(x)))
                for x in (1.0, 5.0, 20.0))
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

    small = build_spectrum(p2, tol=1e-8)
    pq = violation_probability(small, p2, 0.37, method="quadrature")
    pp = violation_probability(small, p2, 0.37)
    yield ("violation_cross_route", abs(pq - pp) <= 1e-6,
           f"|quadrature - pairwise| = {abs(pq - pp):.2e}")

    big = integrate(lambda t: (np.sinc((t - _PI) / _PI) / (t + _PI)) ** 2,
                    0.0, 2000.0,
                    QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12,
                                     max_subdivisions=20000,
                                     breakpoints=tuple(
                                         k * _PI for k in range(1, 637))))
    total = 4.0 * _PI * big.value
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

    record = adjudicate_convention(tau_large=tau_large)
    yield ("adjudication",
           record.matched_residual <= 0.02,
           f"convention={record.convention}, "
           f"worst residual {record.matched_residual:.4f} "
           f"at tau_large={tau_large:g}")


def cmd_validate(args) -> int:
    if args.tau_large < TAU_LARGE_MIN:
        raise ValueError(f"--tau-large must be at least {TAU_LARGE_MIN:g}, "
                         f"got {args.tau_large:g}")
    failures = 0
    try:
        for name, ok, detail in _validation_checks(args.tau_large):
            status = "PASS" if ok else "FAIL"
            print(f"[{status}] {name:28s} {detail}")
            failures += 0 if ok else 1
    except AdjudicationError as exc:
        print(f"[FAIL] adjudication              {exc}")
        return 2
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
    box.add_argument("--threads", type=int, default=1)

    sweep = sub.add_parser("violation-sweep", parents=[box],
                           help="P(tau) over the violation window as CSV")
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
    asym.add_argument("--convention", choices=("auto", "reduced", "nonreduced"),
                      default="auto")
    asym.add_argument("--tau-large", type=_finite, default=1000.0)
    asym.add_argument("--out", required=True)
    asym.add_argument("--threads", type=int, default=1)
    asym.set_defaults(func=cmd_asymptotic)

    brk = sub.add_parser("breakdown", help="total-breakdown verdict")
    brk.add_argument("--s", type=_finite, required=True)
    brk.add_argument("--lambda", dest="lambda_factor", type=_finite,
                     required=True)
    brk.set_defaults(func=cmd_breakdown)

    val = sub.add_parser("validate",
                         help="invariant battery and adjudication oracle")
    val.add_argument("--tau-large", type=_finite, default=1000.0)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except AdjudicationError as exc:
        print(f"adjudication failure: {exc}", file=sys.stderr)
        return 2
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
