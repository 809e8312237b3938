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
applies, and the wall-clock duration.  Identical invocations produce
bit-identical CSV bytes, whatever --threads says; worker threads only
partition the grid, they never change the arithmetic.

Exit codes: 0 success, 1 validation/numerical failure, 2 adjudication
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .boxmodes import (build_spectrum, density_norm, density_snapshot,
                       parseval_partial_sum, profile_lattice, wavefunction)
from .breakdown import (CONFINEMENT_THRESHOLD, breakdown_interval,
                        breakdown_report)
from .freespace import (AdjudicationError, ConventionRecord,
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


@dataclass
class RunManifest:
    """Reproducibility record written beside every output file.

    ``stages`` maps stage names to wall seconds; where present they add up
    to ``duration_s``.
    """

    command: str
    parameters: dict
    version: str = __version__
    convention: str | None = None
    duration_s: float = 0.0
    stages: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def write(self, csv_path: str) -> None:
        path = csv_path + ".manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


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


def cmd_violation_sweep(args) -> int:
    params = SystemParams(s=args.s, lambda_factor=args.lambda_factor)
    t0 = time.perf_counter()
    spectrum = build_spectrum(params, tol=args.tol)
    t1 = time.perf_counter()
    grid = default_sweep_grid(params, tau_step=args.tau_step)

    def one(tau: float):
        return violation_probability(spectrum, params, float(tau),
                                     full_output=True)

    results = _chunked_map(one, grid, args.threads)
    t2 = time.perf_counter()
    rows = []
    for tau, (p, err) in zip(grid, results):
        if args.clamp:
            p = min(max(p, 0.0), 1.0)
        rows.append((_fmt(tau), _fmt(p), _fmt(err)))
    _write_csv(args.out, "tau,p_violation,error_estimate", rows)
    t3 = time.perf_counter()
    manifest = RunManifest(
        command="violation-sweep",
        parameters={"s": args.s, "lambda": args.lambda_factor,
                    "tau_step": args.tau_step, "tol": args.tol,
                    "threads": args.threads, "clamp": bool(args.clamp),
                    "grid_points": int(len(grid)),
                    "spectrum_max_mode": spectrum.max_mode,
                    "spectrum_tail_bound": spectrum.tail_bound,
                    "spectrum_amplitude_tail_bound":
                        spectrum.amplitude_tail_bound,
                    "fft_size": spectrum.fft_size},
        duration_s=t3 - t0,
        stages={"spectrum": t1 - t0, "evaluate": t2 - t1, "write": t3 - t2},
        outputs=[args.out],
    )
    manifest.write(args.out)
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
    t0 = time.perf_counter()
    spectrum = build_spectrum(params, tol=args.tol)
    t1 = time.perf_counter()
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

    curves = _chunked_map(one, taus, args.threads)
    t2 = time.perf_counter()
    rows = []
    for curve in curves:
        for z, r in zip(curve.zeta, curve.rho):
            rows.append((_fmt(curve.tau), _fmt(z), _fmt(r)))
    _write_csv(args.out, "tau,zeta,rho", rows)
    t3 = time.perf_counter()
    RunManifest(
        command="snapshot",
        parameters={"s": args.s, "lambda": args.lambda_factor,
                    "tau_list": taus, "zeta_step": args.zeta_step,
                    "tol": args.tol, "threads": args.threads,
                    "spectrum_max_mode": spectrum.max_mode,
                    "spectrum_tail_bound": spectrum.tail_bound,
                    "spectrum_amplitude_tail_bound":
                        spectrum.amplitude_tail_bound,
                    "profile_lattice": profile_lattice(spectrum, zgrid)},
        duration_s=t3 - t0,
        stages={"spectrum": t1 - t0, "evaluate": t2 - t1, "write": t3 - t2},
        outputs=[args.out],
    ).write(args.out)
    return 0


def _forced_record(name: str) -> ConventionRecord:
    return ConventionRecord(convention=name, tau_large=math.nan, samples=(),
                            residuals_reduced=(), residuals_nonreduced=(),
                            informative=(), matched_residual=math.nan)


def cmd_asymptotic(args) -> int:
    if not (0 < args.s_min < args.s_max):
        raise ValueError("require 0 < s-min < s-max")
    if args.n_points < 2:
        raise ValueError("need at least two grid points")
    t0 = time.perf_counter()
    if args.convention == "auto":
        record = adjudicate_convention(tau_large=args.tau_large)
        with open(args.out + ".convention.json", "w", encoding="utf-8") as fh:
            json.dump(asdict(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        record = _forced_record(args.convention)
    sgrid = np.geomspace(args.s_min, args.s_max, args.n_points)

    def one(s: float):
        return asymptotic_result(float(s), record)

    results = _chunked_map(one, sgrid, args.threads)
    rows = [(_fmt(r.s), _fmt(r.p_quadrature), _fmt(r.p_closed),
             _fmt(r.p_series), record.convention) for r in results]
    _write_csv(args.out, "s,p_quadrature,p_closed,p_series,convention", rows)
    RunManifest(
        command="asymptotic",
        parameters={"s_min": args.s_min, "s_max": args.s_max,
                    "n_points": args.n_points, "threads": args.threads,
                    "tau_large": args.tau_large,
                    "requested_convention": args.convention},
        convention=record.convention,
        duration_s=time.perf_counter() - t0,
        outputs=[args.out],
    ).write(args.out)
    return 0


def cmd_breakdown(args) -> int:
    report = breakdown_report(args.s, args.lambda_factor)
    gamma = lorentz_factor(args.s)
    print(f"confinement size        s = {args.s:g}")
    print(f"expansion factor   Lambda = {args.lambda_factor:g}")
    print(f"threshold         pi/16 = {CONFINEMENT_THRESHOLD:.6f}")
    print(f"Lorentz factor     gamma = {gamma:.6g}"
          f"   (threshold gamma = {report.gamma_threshold:g})")
    if report.interval is not None:
        lo, hi = report.interval
        print(f"breakdown window  Lambda in [{lo:.6g}, {hi:.6g}]")
    else:
        print("breakdown window  none (s above threshold)")
    verdict = "TOTAL BREAKDOWN" if report.total_breakdown else "NO"
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
    scales = time_scales(params)
    worst = max(abs(density_norm(spec, params.s, t) - 1.0)
                for t in (0.0, 0.37, scales.tau_specular, 2.9))
    yield ("box_unitarity", worst <= 1e-8, f"worst |norm-1| {worst:.2e}")

    zg = np.linspace(0.0, 5.0, 201)
    d = np.abs(wavefunction(spec, params.s, zg, 0.37)
               - wavefunction(spec, params.s, zg, 0.37 + scales.tau_revival))
    yield ("box_periodicity", float(d.max()) <= 1e-10,
           f"max pointwise diff {d.max():.2e}")

    mirrored = np.sqrt(2.0) * np.sin(_PI * np.clip(5.0 - zg, 0.0, 1.0)) \
        * ((5.0 - zg > 0) & (5.0 - zg < 1))
    d = np.abs(np.abs(wavefunction(spec, params.s, zg, scales.tau_specular))
               - np.abs(mirrored))
    yield ("specular_revival", float(d.max()) <= 1e-4,
           f"sup modulus diff {d.max():.2e}")

    p2 = SystemParams(s=0.2, lambda_factor=5.0)
    spec2 = build_spectrum(p2)
    worst = max(abs(violation_probability(spec2, p2, 0.0)),
                abs(violation_probability(spec2, p2, 4.0)))
    yield ("violation_endpoints", worst <= 1e-6, f"worst endpoint {worst:.2e}")

    small = build_spectrum(p2, tol=1e-8, uniform_tol=1.0)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalbox",
        description="causality-violation analysis of the sudden expansion")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("violation-sweep",
                           help="P(tau) over the violation window as CSV")
    sweep.add_argument("--s", type=float, required=True,
                       help="confinement size in reduced Compton wavelengths")
    sweep.add_argument("--lambda", dest="lambda_factor", type=float,
                       required=True, help="expansion factor (> 1)")
    sweep.add_argument("--tau-step", type=float, default=0.005)
    sweep.add_argument("--tol", type=float, default=1e-10,
                       help="spectrum truncation tolerance")
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--threads", type=int, default=1)
    sweep.add_argument("--clamp", action="store_true",
                       help="clamp displayed values into [0, 1] (flagged in manifest)")
    sweep.set_defaults(func=cmd_violation_sweep)

    snap = sub.add_parser("snapshot", help="density profiles as CSV")
    snap.add_argument("--s", type=float, required=True)
    snap.add_argument("--lambda", dest="lambda_factor", type=float,
                      required=True)
    snap.add_argument("--tau-list", default="",
                      help="comma-separated times; default: revival fractions")
    snap.add_argument("--zeta-step", type=float, default=0.002)
    snap.add_argument("--tol", type=float, default=1e-10)
    snap.add_argument("--out", required=True)
    snap.add_argument("--threads", type=int, default=1)
    snap.set_defaults(func=cmd_snapshot)

    asym = sub.add_parser("asymptotic",
                          help="late-time violation probability as CSV")
    asym.add_argument("--s-min", type=float, required=True)
    asym.add_argument("--s-max", type=float, required=True)
    asym.add_argument("--n-points", type=int, default=60)
    asym.add_argument("--convention", choices=("auto", "reduced", "nonreduced"),
                      default="auto")
    asym.add_argument("--tau-large", type=float, default=1000.0)
    asym.add_argument("--out", required=True)
    asym.add_argument("--threads", type=int, default=1)
    asym.set_defaults(func=cmd_asymptotic)

    brk = sub.add_parser("breakdown", help="total-breakdown verdict")
    brk.add_argument("--s", type=float, required=True)
    brk.add_argument("--lambda", dest="lambda_factor", type=float,
                     required=True)
    brk.set_defaults(func=cmd_breakdown)

    val = sub.add_parser("validate",
                         help="invariant battery and adjudication oracle")
    val.add_argument("--tau-large", type=float, default=1000.0)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
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
