"""Seeded command lists for the three workloads, and their output checks.

Each workload is a fixed list of causalbox CLI invocations.  The seed draws
only inputs that leave the amount of work unchanged (s, snapshot times,
the asymptotic s-min, each within a narrow band); Lambda values, tau steps
and zeta grids are fixed, so the number of P(tau) evaluations and of
mode-sum terms does not depend on the seed.

Why these workloads:

sweep          violation-sweep at Lambda = 2, 5, 20.  Pairwise P(tau)
               (phases plus FFT correlations) is nearly all the time; no
               profile is evaluated.  The FFT arrays take 1 MB at
               Lambda = 2 (inside a 2 MB L2) and 8 MB at Lambda = 20.
snapshot       snapshot at Lambda = 2, 5, 20 on uniform zeta grids that are
               sub-lattices of the box.  Dense mode-sum profiles do almost
               all the work and P is never called: the workload that a DST
               profile path speeds up and any lightcone change bypasses.
               Lambda = 2 uses the CLI's default zeta step (1001 points);
               the default grids at Lambda = 5 and 20 (2501 and 10001
               points) would take 3.2 s and 46 s per profile, so there the
               step is coarser (SNAPSHOT_GRIDS).
validate-asym  validate, asymptotic and breakdown.  201-point profiles
               evaluated directly through wavefunction (not through
               density_snapshot), the quadrature route at Gauss-Kronrod nodes,
               free-space adjudication, the erf closed form and Si/Ci: the
               workload the special and quadrature layers drive.

The checks run outside the timed region and use oracles independent of
the timed path: the quadrature route of P(tau) on a smaller norm-only
spectrum, a point-by-point mode sum at the generic snapshot time, the
exact initial or mirrored profile at revival times, scipy's
QUADPACK for the late-time integral, and the breakdown quadratic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate as scipy_integrate

from causalbox.boxmodes import build_spectrum, mode_coefficient
from causalbox.lightcone import violation_probability
from causalbox.params import SystemParams

WORKLOADS = ("sweep", "snapshot", "validate-asym")

_PI = math.pi
# tolerance of the norm-only spectrum the sweep oracle uses; its reported
# error 2 sqrt(tol) = 2e-4 keeps the quadrature route under a second
_ORACLE_TOL = 1e-8
# summation roundoff allowed on top of a truncation bound: about 1e5 terms
# of magnitude below one, each rounded to a few ulps
_ROUNDOFF = 1e-10


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its output is checked against."""

    kind: str
    argv: tuple
    out: str | None = None
    inputs: dict = field(default_factory=dict)

    @property
    def outputs(self) -> tuple:
        """Files the command writes (CSV, manifest, convention record)."""
        if self.out is None:
            return ()
        extra = ((self.out + ".convention.json",)
                 if self.kind == "asymptotic" else ())
        return (self.out, self.out + ".manifest.json") + extra


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    rows: int
    detail: str = ""


def _num(x: float) -> str:
    return repr(float(x))


def _sweep_commands(rng: random.Random, out_dir: str) -> list[Command]:
    # Lambda = 2 and 20: tau_spec = 2 Lambda^2 s / pi lies past the window
    # end, so default_sweep_grid adds no refinement.  Lambda = 5: s is in
    # the breakdown regime and tau_spec = (j0 + u) * 0.2 sits inside a
    # fine cell of the tenfold refinement, which then always adds the same
    # two fine points plus tau_spec itself.
    j0, u = rng.choice((7, 8)), rng.uniform(0.3, 0.7)
    specs = (
        (2.0, rng.uniform(0.45, 0.60), 0.1, 11),
        (5.0, _PI * (j0 + u) * 0.2 / 50.0, 2.0, 6),
        (20.0, rng.uniform(0.10, 0.12), 17.0, 3),
    )
    cmds = []
    for lam, s, step, rows in specs:
        out = f"{out_dir}/sweep_l{lam:g}.csv"
        cmds.append(Command(
            "violation-sweep",
            ("violation-sweep", "--s", _num(s), "--lambda", _num(lam),
             "--tau-step", _num(step), "--out", out),
            out,
            {"s": s, "lambda": lam, "rows": rows,
             "oracle_row": rng.randrange(1, rows - 1)}))
    return cmds


# (Lambda, zeta step).  Points and points x N against the CLI default step
# of 0.002: Lambda = 2, 1001 points, the default itself; Lambda = 5, 101
# points, 0.040 of the default's 2501 x 45016; Lambda = 20, 41 points,
# 0.0041 of the default's 10001 x 180064.
SNAPSHOT_GRIDS = ((2.0, 0.002), (5.0, 0.05), (20.0, 0.5))
# grid points at which the generic-time profile is compared with a direct sum
_DIRECT_POINTS = 5


def _snapshot_commands(rng: random.Random, out_dir: str) -> list[Command]:
    cmds = []
    for lam, step in SNAPSHOT_GRIDS:
        s = rng.uniform(0.09, 0.11)
        tau_rev = 4.0 * lam * lam * s / _PI
        k = rng.randint(1, 3)
        taus = (rng.uniform(0.05, 0.45) * tau_rev, k * tau_rev / 2.0)
        out = f"{out_dir}/snapshot_l{lam:g}.csv"
        cmds.append(Command(
            "snapshot",
            ("snapshot", "--s", _num(s), "--lambda", _num(lam),
             "--zeta-step", _num(step),
             "--tau-list", ",".join(_num(t) for t in taus), "--out", out),
            out,
            {"s": s, "lambda": lam, "zeta_step": step, "taus": taus,
             "revival_half_periods": k,
             "direct_points": tuple(sorted(rng.sample(
                 range(1, int(round(lam / step))), _DIRECT_POINTS)))}))
    return cmds


def _validate_asym_commands(rng: random.Random, out_dir: str) -> list[Command]:
    s_min = rng.uniform(0.28, 0.32)
    s_brk = rng.uniform(0.09, 0.11)
    out = f"{out_dir}/asymptotic.csv"
    return [
        Command("validate", ("validate",)),
        Command("asymptotic",
                ("asymptotic", "--s-min", _num(s_min), "--s-max", "30",
                 "--n-points", "60", "--out", out),
                out, {"s_min": s_min, "s_max": 30.0, "n_points": 60,
                      "oracle_rows": tuple(rng.sample(range(60), 3))}),
        Command("breakdown",
                ("breakdown", "--s", _num(s_brk), "--lambda", "5"),
                None, {"s": s_brk, "lambda": 5.0}),
    ]


def build_workload(name: str, seed: int, out_dir: str) -> list[Command]:
    """The workload's command list; the same seed gives the same inputs."""
    makers = {"sweep": _sweep_commands, "snapshot": _snapshot_commands,
              "validate-asym": _validate_asym_commands}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return makers[name](random.Random(f"{name}/{seed}"), out_dir)


# ---------------------------------------------------------------- checks


class _Bad(Exception):
    """An output that fails its check; the message says why."""


def _read_csv(text: str, header: str, ncols: int) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise _Bad(f"header {lines[:1]!r} != {header!r}")
    rows = []
    for i, line in enumerate(lines[1:]):
        rec = line.split(",")
        if len(rec) != ncols:
            raise _Bad(f"row {i + 1} has {len(rec)} fields, want {ncols}")
        try:
            vals = [float(x) for x in rec[:3]]
        except ValueError as exc:
            raise _Bad(f"row {i + 1}: {exc}") from None
        if not all(math.isfinite(v) for v in vals):
            raise _Bad(f"row {i + 1} is not finite: {rec}")
        rows.append(vals + rec[3:])
    return rows


def breakdown_expected(s: float, lam: float) -> bool:
    """(2s/pi) Lambda^2 - Lambda + 2 <= 0: the revival outruns light."""
    return (2.0 * s / _PI) * lam * lam - lam + 2.0 <= 0.0


def _check_sweep(cmd: Command, text: str, stdout: str) -> int:
    rows = _read_csv(text, "tau,p_violation,error_estimate", 3)
    inp = cmd.inputs
    if len(rows) != inp["rows"]:
        raise _Bad(f"{len(rows)} rows, want {inp['rows']}")
    s, lam = inp["s"], inp["lambda"]
    for tau, p, err in rows:
        if not -err <= p <= 1.0 + err:
            raise _Bad(f"P({tau}) = {p} outside [0, 1] by more than {err}")
    tau0, p0, err0 = rows[0]
    if tau0 != 0.0 or abs(p0) > err0:
        raise _Bad(f"P(0) = {p0}, reported error {err0}")
    tau_end, p_end, _ = rows[-1]
    if tau_end != lam - 1.0 or p_end != 0.0:
        raise _Bad(f"P({tau_end}) = {p_end} at the window end")
    tau_spec = 2.0 * lam * lam * s / _PI
    if breakdown_expected(s, lam):
        hit = [p for tau, p, _ in rows if abs(tau - tau_spec) <= 1e-9]
        if not hit or hit[0] < 0.999:
            raise _Bad(f"P(tau_spec = {tau_spec}) = {hit} in breakdown regime")
    tau, p, err = rows[inp["oracle_row"]]
    params = SystemParams(s=s, lambda_factor=lam)
    small = build_spectrum(params, tol=_ORACLE_TOL, uniform_tol=1.0)
    q, qerr = violation_probability(small, params, tau, method="quadrature",
                                    full_output=True)
    if abs(p - q) > err + qerr:
        raise _Bad(f"P({tau}) = {p} but quadrature gives {q} "
                   f"(allowed {err + qerr:.3e})")
    return len(rows)


def _exact_modulus(zeta: np.ndarray, lam: float, mirrored: bool):
    """|psi| of the initial bump sqrt(2) sin(pi zeta) on (0, 1), or its mirror."""
    x = lam - zeta if mirrored else zeta
    return np.where((x > 0) & (x < 1), np.sqrt(2.0) * np.abs(np.sin(_PI * x)),
                    0.0)


def _direct_sum(zeta, lam: float, s: float, tau: float, n_max: int):
    """psi = sum_n b_n exp(-i pi^2 n^2 tau / (2 Lambda^2 s)) sin(n pi zeta / Lambda).

    Mode by mode from the expansion amplitudes and the box dispersion law,
    one point at a time: no blocking, no BLAS and no shared phase code.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    c = mode_coefficient(n, lam) * np.exp(
        -1j * _PI * _PI * n * n * tau / (2.0 * lam * lam * s))
    return np.array([np.sum(c * np.sin(n * (_PI * z / lam))) for z in zeta])


def _check_snapshot(cmd: Command, text: str, stdout: str) -> int:
    rows = _read_csv(text, "tau,zeta,rho", 3)
    inp = cmd.inputs
    lam, step, taus = inp["lambda"], inp["zeta_step"], inp["taus"]
    grid = np.arange(int(round(lam / step)) + 1) * step
    if len(rows) != len(taus) * len(grid):
        raise _Bad(f"{len(rows)} rows, want {len(taus) * len(grid)}")
    data = np.array(rows, dtype=float).reshape(len(taus), len(grid), 3)
    for block, tau in zip(data, taus):
        if not np.all(block[:, 0] == tau):
            raise _Bad(f"tau column differs from {tau}")
    if np.abs(data[:, :, 1] - grid).max() > 1e-9:
        raise _Bad("zeta column is not the requested uniform grid")
    rho = data[:, :, 2]
    if rho.min() < 0 or np.any(rho[:, [0, -1]] != 0):
        raise _Bad("density negative, or nonzero at a wall")
    spectrum = build_spectrum(lam)
    bound = spectrum.amplitude_tail_bound
    idx = list(inp["direct_points"])
    direct = np.abs(_direct_sum(grid[idx], lam, inp["s"], taus[0],
                                spectrum.max_mode))
    worst = float(np.abs(np.sqrt(rho[0, idx]) - direct).max())
    if worst > bound + _ROUNDOFF:
        raise _Bad(f"profile at tau = {taus[0]} off the direct sum by "
                   f"{worst:.3e} > amplitude tail bound {bound:.3e}")
    k = inp["revival_half_periods"]
    exact = _exact_modulus(grid, lam, mirrored=k % 2 == 1)
    worst = float(np.abs(np.sqrt(rho[1]) - exact).max())
    if worst > bound:
        raise _Bad(f"profile at {k} half revivals off by {worst:.3e} "
                   f"> amplitude tail bound {bound:.3e}")
    return len(rows)


def _asymptotic_integral(upper: float) -> float:
    """1 - 4 pi int_0^upper sin^2 t / (t^2 - pi^2)^2 dt by QUADPACK."""
    def f(t):
        u = t - _PI
        # sin t / (t - pi) = -sin(u)/u, finite through t = pi
        r = 1.0 if abs(u) < 1e-8 else math.sin(u) / u
        return (r / (t + _PI)) ** 2
    pts = [k * _PI for k in range(1, int(upper / _PI) + 1)]
    val, _ = scipy_integrate.quad(f, 0.0, upper, points=pts or None,
                                  limit=1000, epsabs=1e-14, epsrel=1e-13)
    return 1.0 - 4.0 * _PI * val


def _check_asymptotic(cmd: Command, text: str, stdout: str) -> int:
    rows = _read_csv(text, "s,p_quadrature,p_closed,p_series,convention", 5)
    inp = cmd.inputs
    sgrid = np.geomspace(inp["s_min"], inp["s_max"], inp["n_points"])
    if len(rows) != len(sgrid):
        raise _Bad(f"{len(rows)} rows, want {len(sgrid)}")
    conventions = {r[4] for r in rows}
    if len(conventions) != 1 or not conventions <= {"reduced", "nonreduced"}:
        raise _Bad(f"convention column {sorted(conventions)}")
    for (s, p_quad, p_closed, _, conv), want_s in zip(rows, sgrid):
        if abs(s - want_s) > 1e-12 * want_s:
            raise _Bad(f"s = {s}, want {want_s}")
        if abs(p_quad - p_closed) > 1e-8:
            raise _Bad(f"s = {s}: quadrature {p_quad} vs closed {p_closed}")
    for i in inp["oracle_rows"]:
        s, p_quad = rows[i][0], rows[i][1]
        upper = s if rows[i][4] == "reduced" else 2.0 * _PI * s
        want = _asymptotic_integral(upper)
        if abs(p_quad - want) > 1e-8:
            raise _Bad(f"s = {s}: quadrature {p_quad} vs QUADPACK {want}")
    return len(rows)


def _check_validate(cmd: Command, text: str, stdout: str) -> int:
    lines = stdout.splitlines()
    if not lines or not all(ln.startswith("[PASS]") for ln in lines):
        bad = [ln for ln in lines if not ln.startswith("[PASS]")]
        raise _Bad(f"validate lines not PASS: {bad[:3] or 'no output'}")
    return len(lines)


def _check_breakdown(cmd: Command, text: str, stdout: str) -> int:
    verdicts = [ln.split(None, 1)[1].strip() for ln in stdout.splitlines()
                if ln.startswith("verdict")]
    want = ("TOTAL BREAKDOWN" if breakdown_expected(cmd.inputs["s"],
                                                     cmd.inputs["lambda"])
            else "NO")
    if verdicts != [want]:
        raise _Bad(f"verdict {verdicts}, want {want!r}")
    return 0


_CHECKS = {"violation-sweep": _check_sweep, "snapshot": _check_snapshot,
           "asymptotic": _check_asymptotic, "validate": _check_validate,
           "breakdown": _check_breakdown}


def check_output(cmd: Command, text: str, stdout: str) -> CheckResult:
    """Check one command's output; never raises for a bad output.

    ``text`` is the CSV the command wrote ("" for commands without one) and
    ``stdout`` what it printed.  ``rows`` counts CSV data rows, plus the
    check lines that validate prints.
    """
    try:
        return CheckResult(True, _CHECKS[cmd.kind](cmd, text, stdout))
    except _Bad as exc:
        return CheckResult(False, 0, str(exc))
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        # the oracle itself failed on these inputs
        return CheckResult(False, 0, f"{type(exc).__name__}: {exc}")
