"""Tests of the benchmark itself: span arithmetic, wrappers, checks, seeds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run as bench_run
import tracer as tracing
from causalbox import boxmodes, cli
from causalbox.boxmodes import build_spectrum
from tracer import Span, Tracer, fft_size, self_times
from workloads import WORKLOADS, build_workload, check_output

HERE = Path(__file__).resolve().parent


def _traced_pass(workload, seed, out_dir):
    cmds = build_workload(workload, seed, str(out_dir))
    tr = Tracer()
    with tr.installed():
        p = harness._run_pass(cmds, tr, {})
    assert [ex.rc for ex in p.runs] == [0] * len(cmds)
    return cmds, harness.layer_metrics(tr.spans, 1)


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 3.0, 6.0, 0),    # overlaps a: [3, 4] counted once
        Span("a.child", 2.0, 3.0, 1),
        Span("late", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_tail_needs_ten_values_beyond_it():
    assert harness.tail(list(range(1, 61))) == (50, pytest.approx(250 / 3))
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_wrappers_are_installed_and_restored():
    mods = tracing._modules()
    before = {(m, k): v for m, mod in mods.items()
              for k, v in vars(mod).items() if callable(v)}
    tr = Tracer()
    with pytest.raises(KeyError):
        with tr.installed():
            for mod, name in (("cli", "violation_probability"),
                              ("cli", "density_snapshot"),
                              ("lightcone", "wavefunction"),
                              ("lightcone", "integrate"),
                              ("freespace", "integrate"),
                              ("freespace", "sine_integral"),
                              ("freespace", "free_violation_probability")):
                assert getattr(mods[mod], name) is not before[mod, name]
            spec = boxmodes.build_spectrum(2.0, tol=1e-6, uniform_tol=1.0)
            boxmodes.density_norm(spec, 1.0, 0.3)
            raise KeyError("leave the context by an exception")
    after = {(m, k): v for m, mod in mods.items()
             for k, v in vars(mod).items() if callable(v)}
    assert after == before
    assert [s.name for s in tr.spans] == ["boxmodes.build_spectrum",
                                          "boxmodes.density_norm"]


def test_corrupted_row_counts_as_failed_and_run_completes(tmp_path,
                                                          monkeypatch):
    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        if "--lambda" in argv and argv[argv.index("--lambda") + 1] == "2.0":
            out = argv[argv.index("--out") + 1]
            lines = Path(out).read_text().splitlines()
            lines[3] = lines[3].replace(",", ",x", 1)
            Path(out).write_text("\n".join(lines) + "\n")
        return rc

    monkeypatch.setattr(harness, "measure_setup", lambda src: [0.5])
    monkeypatch.setattr(harness, "MIN_PASSES", 1)
    monkeypatch.setattr(harness.cli, "main", corrupting_main)
    res = harness.run("sweep", 3, 0.01, False, tmp_path)
    assert (res.attempted, res.failed) == (3, 1)
    assert not res.correct
    assert res.samples["failed_frac"] == pytest.approx(1 / 3)
    assert "row 3" in res.failures[0]["why"]
    assert set(res.line()["metrics"]) == set(harness.END_TO_END)


def test_seed_changes_inputs_not_work(tmp_path):
    work = {}
    for seed in (11, 12):
        sweep, m_sweep = _traced_pass("sweep", seed, tmp_path)
        snap, m_snap = _traced_pass("snapshot", seed, tmp_path)
        work[seed] = ([c.argv for c in sweep + snap],
                      m_sweep["lightcone.violation_probability.calls"],
                      m_snap["boxmodes.mode_terms"])
    assert work[11][0] != work[12][0]
    assert work[11][1:] == work[12][1:]
    assert work[11][1] > 0 and work[11][2] > 0


def test_computed_sizes_equal_the_library(tmp_path, monkeypatch):
    lengths = []
    real_fft = np.fft.fft

    def recording_fft(a, *args, **kwargs):
        lengths.append(len(a))
        return real_fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recording_fft)
    _, m = _traced_pass("sweep", 5, tmp_path)
    for lam in harness.LAMBDAS:
        assert m[f"boxmodes.max_mode.l{lam}"] == build_spectrum(lam).max_mode
    assert {m[f"lightcone.fft_size.l{lam}"]
            for lam in harness.LAMBDAS} == set(lengths)
    assert m["lightcone.fft_bytes"] == 16 * max(lengths)
    assert fft_size(build_spectrum(20.0).max_mode) == max(lengths)


def test_snapshot_check_catches_a_wrong_dispersion_law(tmp_path,
                                                       monkeypatch):
    # phases linear in n agree with the n^2 law at every half revival,
    # because n^2 and n have the same parity; only the generic time differs
    cmd = build_workload("snapshot", 4, str(tmp_path))[0]
    assert cmd.inputs["lambda"] == 2.0

    def linear_phases(spectrum, s, tau):
        n = np.arange(1, spectrum.max_mode + 1, dtype=float)
        lam = spectrum.lambda_factor
        return np.exp(-1j * np.pi**2 * n * tau / (2.0 * lam * lam * s))

    results = []
    for phases in (boxmodes._phases, linear_phases):
        monkeypatch.setattr(boxmodes, "_phases", phases)
        assert cli.main(list(cmd.argv)) == 0
        results.append(check_output(cmd, Path(cmd.out).read_text(), ""))
    assert results[0].ok, results[0].detail
    assert not results[1].ok
    assert "off the direct sum" in results[1].detail


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == harness.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "sweep", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


# a stand-in for run.py that reads its peak the way the harness does
_FAKE_RUN = ("import json, sys\n"
             f"sys.path[:0] = {[str(HERE.parent / 'src'), str(HERE)]!r}\n"
             """
import numpy as np
from harness import peak_rss_mb
workload = sys.argv[sys.argv.index("--workload") + 1]
if workload == "heavy":
    np.ones(80 * 2**20 // 8).sum()  # 80 MB touched, then freed
rss = peak_rss_mb()
print("# report line")
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}}))
""")


def test_each_run_of_all_reports_its_own_peak(tmp_path, capsys):
    script = tmp_path / "fake_run.py"
    script.write_text(_FAKE_RUN)
    merged = bench_run.run_children([("heavy", 0), ("light", 0)], 1, 1.0,
                                     script)
    peak = {k: v["value"] for k, v in merged["metrics"].items()}
    assert set(peak) == {"heavy.peak_rss_mb", "light.peak_rss_mb"}
    assert peak["light.peak_rss_mb"] < peak["heavy.peak_rss_mb"] - 60
    assert (merged["attempted"], merged["failed"]) == (2, 0)
    assert capsys.readouterr().out.count("# report line") == 2
