"""causalbox benchmark: seeded CLI workloads, checked, timed and traced.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 22 --trace 0

--workload   sweep, snapshot, validate-asym, or all: every workload in
             turn, each untraced and then traced, whatever --trace says,
             each in a fresh interpreter so that peak_rss_mb is its own
--seed       draws the workload's inputs; the same seed, the same inputs
--seconds    summed wall time of the timed passes
--trace      0: end-to-end metrics; 1: per-layer metrics from spans

Prints one metric per line (name, value, unit, sample count), then, as
the last line, a JSON object with the keys correct, attempted, failed and
metrics.  Outputs, spans and a full record with the machine's description
go to .bench_out/ in the repository root.  The library is imported from
src/ of the same checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    help="sweep, snapshot, validate-asym or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "causalbox" / "cli.py").is_file():
        print(f"benchmark: no causalbox sources under {src}", file=sys.stderr)
        return 2
    # before numpy is first imported: OpenBLAS would otherwise start one
    # thread per core for the BLAS products in the dense profile path
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    names = (harness.WORKLOADS if args.workload == "all"
             else (args.workload,))
    if not set(names) <= set(harness.WORKLOADS):
        print(f"benchmark: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in names for trace in (0, 1)]
        print(json.dumps(run_children(runs, args.seed, args.seconds)))
        return 0
    env = harness.environment()
    print(f"# machine: {env['cpu_count']} cpus, affinity {env['affinity']}, "
          f"caches {env['caches']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, {env['blas']}, threads {env['threads']}")
    res = harness.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), ROOT)
    harness.report(res, env, ROOT)
    print(json.dumps(res.line()))
    return 0


def run_children(runs, seed, seconds, script=Path(__file__)) -> dict:
    """Run each (workload, trace) in its own interpreter; merge the results.

    peak_rss_mb is the peak of the whole process, so a workload that ran
    after a heavier one in the same process would report the heavier one's
    peak.  Each child's report is echoed; its last line is its result.
    """
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        out = subprocess.run(
            [sys.executable, str(script), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        line = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in line["metrics"].items()})
    return merged


if __name__ == "__main__":
    sys.exit(main())
