"""Timed passes over a workload's commands, output checks and metrics.

A pass runs every command of the workload once through
``causalbox.cli.main`` in this process, with stdout captured.  Passes
repeat, closed loop and single-threaded, until their summed wall time
reaches the requested seconds; one untimed pass before them warms caches
and finishes lazy imports.  Outputs (CSV bytes plus stdout) are hashed
after each pass, outside its timer, and every distinct output is checked
once after the loop, so that neither the checks nor their memory land in
the timings or in ``peak_rss_mb``.  An execution fails when its command
exits non-zero, raises, fails its check, or writes bytes that differ from
the first timed execution of the same command; the last rule is what
makes the traced run's CSV bytes match the untraced run's.

A guest that shares its host's cores with other tenants changes speed by
20-30 % within a minute and by up to twofold over an hour, which moves
the median of a run by as much.  So pass times (wall_p50_s, wall_tail_s, rows_per_s) are reported
at a reference speed: a fixed numpy kernel that no causalbox code runs
(``SpeedProbe``) is timed before the first pass and after each pass, and
every pass time of the run is scaled by PROBE_REF_S over the median of
those probes.  Where the probe takes PROBE_REF_S, the scaled time is the
wall time.  A change to causalbox moves the scaled time by the same factor
as the wall time, because the probe does not run causalbox.  One factor
per run, not one per pass: a single 30 ms probe is noisier than the pass
it would scale, and the low order statistic that wall_tail_s is on the
slow workloads picks out exactly the passes a noisy probe scaled down.
The raw wall times are kept in the record file.

Passes continue past the requested seconds until there are MIN_PASSES of
them, so that wall_tail_s always has ten passes beyond it and never
switches to the maximum of ten or fewer when the machine is slow.

Untraced (trace 0): end-to-end metrics.  Traced (trace 1): untraced and
traced passes alternate, the traced ones under ``Tracer.installed``, and
the per-layer metrics come from their spans; ``trace.overhead_frac``
compares the medians of the two kinds of pass.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from causalbox import cli
from causalbox.boxmodes import build_spectrum

from tracer import Tracer, fft_size, self_times
from workloads import WORKLOADS, build_workload, check_output

SETUP_REPEATS = 11
MIN_PASSES = 11
# seconds the speed probe takes on the reference machine (a 2-core Xeon
# guest with 2 MB L2 and OpenBLAS on one thread)
PROBE_REF_S = 0.030
LAMBDAS = (2, 5, 20)
SUBCOMMANDS = ("violation-sweep", "snapshot", "asymptotic", "breakdown",
               "validate")

# name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "wall_p50_s": ("s", "lower"),
    "wall_tail_s": ("s", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    **{f"boxmodes.max_mode.l{lam}": ("count", "lower") for lam in LAMBDAS},
    "boxmodes.mode_excess": ("ratio", "lower"),
    "boxmodes.build_spectrum.time_s": ("s", "lower"),
    "boxmodes.wavefunction.self_s": ("s", "lower"),
    "boxmodes.wavefunction.points": ("count", "lower"),
    "boxmodes.mode_terms": ("count", "lower"),
    "boxmodes.density_norm.self_s": ("s", "lower"),
    "boxmodes.self_s": ("s", "lower"),
    "lightcone.violation_probability.calls": ("count", "lower"),
    "lightcone.violation_probability.self_s": ("s", "lower"),
    "lightcone.violation_probability.p50_ms": ("ms", "lower"),
    **{f"lightcone.fft_size.l{lam}": ("count", "lower") for lam in LAMBDAS},
    "lightcone.fft_bytes": ("B-computed", "lower"),
    "lightcone.quadrature_route.self_s": ("s", "lower"),
    "lightcone.self_s": ("s", "lower"),
    "quadrature.integrate.calls": ("count", "lower"),
    "quadrature.integrate.self_s": ("s", "lower"),
    "quadrature.integrate.subdivisions": ("count", "lower"),
    "quadrature.integrate.evals": ("count", "lower"),
    "quadrature.integrate.unconverged": ("count", "lower"),
    "freespace.free_violation_probability.self_s": ("s", "lower"),
    "freespace.adjudicate_convention.time_s": ("s", "lower"),
    "freespace.asymptotic_violation.self_s": ("s", "lower"),
    "freespace.asymptotic_violation_closed.self_s": ("s", "lower"),
    "freespace.self_s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "special.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    **{f"cli.{sub}.p50_s": ("s", "lower") for sub in SUBCOMMANDS},
    "trace.pass_mean_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


@dataclass
class Execution:
    """One command run inside a pass."""

    command: int
    rc: int | None
    digest: str
    bytes_written: int


@dataclass
class Pass:
    seconds: float
    traced: bool
    runs: list = field(default_factory=list)


class SpeedProbe:
    """Times a fixed numpy kernel: FFTs of 4 MB arrays and a sine matrix.

    It exercises what the workloads spend their time on (FFT, vectorised
    sin, a matrix-vector product, memory traffic beyond L2) but calls no
    causalbox code, so its time tracks the machine alone.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(1 << 18) + 0j
        self._points = rng.uniform(0.0, 1.0, 32)
        self._modes = np.arange(1, 20001, dtype=float)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        np.fft.ifft(np.fft.fft(self._signal))
        np.sin(np.outer(self._points, self._modes)) @ (1.0 / self._modes)
        return time.perf_counter() - t0


def _run_command(argv, tracer: Tracer | None, kind: str):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.main(list(argv))
            else:
                rc = tracer.call(f"cli.{kind}", cli.main, (list(argv),), {})
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed command, not a failed run
        traceback.print_exc(file=sys.stderr)
        rc = None
    return rc, buf.getvalue()


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def _run_pass(cmds, tracer: Tracer | None, pending: dict) -> Pass:
    """One timed pass; outputs are hashed after the pass timer stops."""
    gc.collect()
    results = []
    t0 = time.perf_counter()
    for cmd in cmds:
        results.append(_run_command(cmd.argv, tracer, cmd.kind))
    wall = time.perf_counter() - t0
    p = Pass(wall, tracer is not None)
    for i, (cmd, (rc, stdout)) in enumerate(zip(cmds, results)):
        text = _read(cmd.out) if cmd.out else ""
        digest = hashlib.sha256((text + "\0" + stdout).encode()).hexdigest()
        size = sum(os.path.getsize(f) for f in cmd.outputs
                   if os.path.exists(f))
        pending.setdefault((i, digest), (text, stdout))
        p.runs.append(Execution(i, rc, digest, size))
    return p


def tail(values):
    """Highest order statistic with at least ten values above it.

    Returns (value, percentile).  With ten or fewer values no such
    statistic exists and the maximum is returned at percentile 100.
    """
    v = sorted(values)
    k = len(v) - 10
    if k < 1:
        return v[-1], 100.0
    return v[k - 1], 100.0 * k / len(v)


def measure_setup(src: Path, repeats: int = SETUP_REPEATS) -> list[float]:
    """Seconds to import causalbox.cli in fresh interpreters.

    Raw wall time: most of an import is reading and unmarshalling files,
    which the speed probe does not track.  One unmeasured import first
    writes the bytecode caches.
    """
    code = ("import sys, time\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "t0 = time.perf_counter()\n"
            "import causalbox.cli\n"
            "print(time.perf_counter() - t0, flush=True)\n"
            # interpreter teardown is not set-up; skip it
            "import os\n"
            "os._exit(0)\n")
    times = []
    for _ in range(repeats + 1):
        out = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout))
    return times[1:]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    Read from VmHWM, the high-water mark of the process's own address
    space.  ru_maxrss would do on its own but for exec: a child keeps its
    parent's peak as a floor.  It is the fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Machine and library facts that the timings depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")},
        "caches": caches,
    }


# ------------------------------------------------------------- per layer


def layer_metrics(spans, n_passes: int) -> dict:
    """Per-layer metrics from the spans of ``n_passes`` traced passes.

    Times and counts are per pass.  ``max_mode`` and ``fft_size`` are taken
    from the spectra the workload actually used at each Lambda (0 where it
    used none); ``fft_size`` and ``fft_bytes`` are computed from max_mode
    the way the pairwise route sizes its arrays.
    """
    selfs = self_times(spans)
    per = 1.0 / n_passes
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name, what="self"):
        idx = by_name.get(name, ())
        vals = (selfs[i] if what == "self" else spans[i].duration for i in idx)
        return per * sum(vals)

    def layer_self(layer):
        return per * sum(t for s, t in zip(spans, selfs)
                         if s.name.split(".", 1)[0] == layer)

    def calls(name):
        return len(by_name.get(name, ())) // n_passes

    def attrs(name):
        # spans of calls that raised carry no attrs
        return [spans[i].attrs for i in by_name.get(name, ())
                if spans[i].attrs]

    def attr_sum(name, key):
        return sum(a[key] for a in attrs(name)) // n_passes

    def p50(name, scale=1.0):
        d = [spans[i].duration for i in by_name.get(name, ())]
        return scale * statistics.median(d) if d else 0.0

    built = attrs("boxmodes.build_spectrum")
    vp = attrs("lightcone.violation_probability")
    m = {}
    for lam in LAMBDAS:
        m[f"boxmodes.max_mode.l{lam}"] = max(
            (a["max_mode"] for a in built if a["lambda"] == lam), default=0)
    # N that the norm criterion alone would keep, at the same tol
    norm_only = {}
    for a in built:
        key = (a["lambda"], a["tol"])
        if a["lambda"] in LAMBDAS and key not in norm_only:
            tol = {} if a["tol"] is None else {"tol": a["tol"]}
            norm_only[key] = build_spectrum(a["lambda"], uniform_tol=1.0,
                                            **tol).max_mode
    m["boxmodes.mode_excess"] = max(
        (a["max_mode"] / norm_only[a["lambda"], a["tol"]] for a in built
         if a["lambda"] in LAMBDAS), default=0.0)
    m["boxmodes.build_spectrum.time_s"] = total("boxmodes.build_spectrum",
                                                "duration")
    m["boxmodes.wavefunction.self_s"] = total("boxmodes.wavefunction")
    m["boxmodes.wavefunction.points"] = attr_sum("boxmodes.wavefunction",
                                                 "points")
    m["boxmodes.mode_terms"] = sum(
        a["points"] * a["max_mode"]
        for a in attrs("boxmodes.wavefunction")) // n_passes
    m["boxmodes.density_norm.self_s"] = total("boxmodes.density_norm")
    m["boxmodes.self_s"] = layer_self("boxmodes")
    m["lightcone.violation_probability.calls"] = calls(
        "lightcone.violation_probability")
    m["lightcone.violation_probability.self_s"] = total(
        "lightcone.violation_probability")
    m["lightcone.violation_probability.p50_ms"] = p50(
        "lightcone.violation_probability", 1e3)
    for lam in LAMBDAS:
        m[f"lightcone.fft_size.l{lam}"] = max(
            (fft_size(a["max_mode"]) for a in vp if a["lambda"] == lam),
            default=0)
    m["lightcone.fft_bytes"] = 16 * max(
        (fft_size(a["max_mode"]) for a in vp), default=0)
    m["lightcone.quadrature_route.self_s"] = total("lightcone.quadrature_route")
    m["lightcone.self_s"] = layer_self("lightcone")
    m["quadrature.integrate.calls"] = calls("quadrature.integrate")
    m["quadrature.integrate.self_s"] = total("quadrature.integrate")
    m["quadrature.integrate.subdivisions"] = attr_sum("quadrature.integrate",
                                                      "subdivisions")
    m["quadrature.integrate.evals"] = attr_sum("quadrature.integrate", "evals")
    m["quadrature.integrate.unconverged"] = sum(
        not a["converged"] for a in attrs("quadrature.integrate")) // n_passes
    for name in ("free_violation_probability", "asymptotic_violation",
                 "asymptotic_violation_closed"):
        m[f"freespace.{name}.self_s"] = total(f"freespace.{name}")
    m["freespace.adjudicate_convention.time_s"] = total(
        "freespace.adjudicate_convention", "duration")
    m["freespace.self_s"] = layer_self("freespace")
    m["special.calls"] = sum(len(v) for k, v in by_name.items()
                             if k.startswith("special.")) // n_passes
    m["special.self_s"] = layer_self("special")
    m["cli.self_s"] = layer_self("cli")
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.p50_s"] = p50(f"cli.{sub}")
    return m


# ------------------------------------------------------------------ run


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict
    samples: dict
    attempted: int
    failed: int
    failures: list
    commands: list
    passes: list

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> dict:
        """The JSON object printed as the last line of stdout."""
        units = PER_LAYER if self.trace else END_TO_END
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": units[k][0]}
                            for k, v in self.metrics.items()}}


def _grade(cmds, passes, pending):
    """Check each distinct output; count failed executions and rows."""
    checked = {key: check_output(cmds[key[0]], text, stdout)
               for key, (text, stdout) in pending.items()}
    first = {}
    failures, rows, failed, attempted = [], 0, 0, 0
    for p in passes:
        for ex in p.runs:
            attempted += 1
            ref = first.setdefault(ex.command, ex.digest)
            res = checked[(ex.command, ex.digest)]
            why = None
            if ex.rc != 0:
                why = f"exit code {ex.rc}"
            elif not res.ok:
                why = res.detail
            elif ex.digest != ref:
                why = "output bytes differ from the first timed run"
            if why:
                failed += 1
                if len(failures) < 20:
                    failures.append({"command": list(cmds[ex.command].argv),
                                     "traced": p.traced, "why": why})
            else:
                rows += res.rows
    return attempted, failed, failures, rows


def run(workload: str, seed: int, seconds: float, trace: bool,
        root: Path) -> Result:
    out_dir = root / ".bench_out" / workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cmds = build_workload(workload, seed, str(out_dir))
    setup = [] if trace else measure_setup(root / "src")
    probe = SpeedProbe()
    probe()

    _run_pass(cmds, None, {})  # warm-up, not counted
    tracer = Tracer()
    passes, pending, spent = [], {}, 0.0
    probes = [probe()]
    while spent < seconds or len(passes) < MIN_PASSES:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                p = _run_pass(cmds, tracer, pending)
        else:
            p = _run_pass(cmds, None, pending)
        probes.append(probe())
        passes.append(p)
        spent += p.seconds
    speed = PROBE_REF_S / statistics.median(probes)
    peak_mb = peak_rss_mb()

    attempted, failed, failures, rows = _grade(cmds, passes, pending)
    plain = [p.seconds for p in passes if not p.traced]
    samples = {"passes": len(plain), "failed_frac": failed / attempted}
    if trace:
        traced_walls = [p.seconds for p in passes if p.traced]
        metrics = layer_metrics(tracer.spans, len(traced_walls))
        metrics["cli.bytes_written"] = statistics.median(
            sum(ex.bytes_written for ex in p.runs) for p in passes)
        metrics["trace.pass_mean_s"] = statistics.fmean(traced_walls)
        metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain) - 1.0)
        metrics = {k: metrics[k] for k in PER_LAYER}
        samples["traced_passes"] = len(traced_walls)
        samples["spans"] = len(tracer.spans)
        _write_spans(root / ".bench_out" /
                     f"{workload}-seed{seed}-spans.jsonl", tracer.spans)
    else:
        scaled = [p.seconds * speed for p in passes]
        tail_s, pct = tail(scaled)
        metrics = {
            "wall_p50_s": statistics.median(scaled),
            "wall_tail_s": tail_s,
            "rows_per_s": rows / sum(scaled),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_mb,
        }
        samples.update(tail_percentile=pct, setup_imports=len(setup),
                       raw_wall_p50_s=statistics.median(plain),
                       speed=speed, probes=len(probes))
    return Result(workload, seed, trace, metrics, samples, attempted, failed,
                  failures, [list(c.argv) for c in cmds],
                  [(p.seconds, p.traced) for p in passes])


def _write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({"name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "attrs": s.attrs}) + "\n")


def report(result: Result, env: dict, root: Path) -> None:
    """Print the metric table and write the full record beside the outputs."""
    units = PER_LAYER if result.trace else END_TO_END
    n = result.samples["passes"]
    print(f"# workload {result.workload}  seed {result.seed}  "
          f"trace {int(result.trace)}  attempted {result.attempted}  "
          f"failed {result.failed}  "
          f"failed_frac {result.samples['failed_frac']:.4g}")
    for name, value in result.metrics.items():
        note = ""
        if name == "wall_tail_s":
            note = (f"p{result.samples['tail_percentile']:.1f} of {n} passes,"
                    " reference speed")
        elif name == "setup_s":
            note = f"median of {result.samples['setup_imports']} imports"
        elif name == "wall_p50_s":
            note = (f"{n} passes, reference speed; raw wall "
                    f"{result.samples['raw_wall_p50_s']:.4g} s at speed "
                    f"{result.samples['speed']:.3f} "
                    f"({result.samples['probes']} probes)")
        elif name == "rows_per_s":
            note = f"{n} passes, reference speed"
        elif name == "peak_rss_mb":
            note = "1 process"
        elif result.trace:
            note = f"per pass, {result.samples['traced_passes']} traced"
        print(f"{name:48s} {value:>16.6g} {units[name][0]:<11s} {note}")
    for f in result.failures:
        print(f"# FAILED {' '.join(f['command'])}: {f['why']}")
    record = {"workload": result.workload, "seed": result.seed,
              "trace": result.trace, "environment": env,
              "samples": result.samples, "commands": result.commands,
              "passes": [{"seconds": t, "traced": tr}
                         for t, tr in result.passes],
              "failures": result.failures,
              **result.line()}
    path = (root / ".bench_out" /
            f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
