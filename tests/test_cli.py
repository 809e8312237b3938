import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalbox.cli
import causalbox.freespace
import causalbox.lightcone
import causalbox.special
from causalbox import (QuadratureResult, build_spectrum, initial_state,
                       mode_coefficient, profile_spectrum)
from causalbox.cli import _build_parser, main

PI = math.pi


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _rows(path):
    text = _read(path).decode()
    assert text.endswith("\n") and not text.endswith("\n\n")
    lines = text.splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


BOX_STAGES = {"spectrum", "evaluate", "write"}


def _assert_stages_tile(manifest, expected):
    stages = manifest["stages"]
    assert set(stages) == expected
    assert all(v >= 0 for v in stages.values())
    assert sum(stages.values()) == pytest.approx(manifest["duration_s"],
                                                 abs=1e-3)


class TestViolationSweep:
    def test_output_contract(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["violation-sweep", "--s", "0.2", "--lambda", "5",
                   "--tau-step", "0.05", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == "tau,p_violation,error_estimate"
        taus = np.array([float(r[0]) for r in rows])
        pvals = np.array([float(r[1]) for r in rows])
        assert taus[0] == 0.0 and taus[-1] == 4.0
        assert np.all(np.diff(taus) > 0)
        assert abs(pvals[0]) <= 1e-6 and abs(pvals[-1]) <= 1e-6
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["command"] == "violation-sweep"
        assert manifest["parameters"]["s"] == 0.2
        assert manifest["version"]

    def test_breakdown_peak_present(self, tmp_path):
        out = tmp_path / "deep.csv"
        rc = main(["violation-sweep", "--s", "0.1", "--lambda", "5",
                   "--tau-step", "0.05", "--out", str(out)])
        assert rc == 0
        _, rows = _rows(out)
        taus = np.array([float(r[0]) for r in rows])
        pvals = np.array([float(r[1]) for r in rows])
        near_peak = np.abs(taus - 5.0 / PI) < 0.01
        assert pvals[near_peak].max() >= 0.999

    def test_large_box_stays_under_three_percent(self, tmp_path):
        out = tmp_path / "roomy.csv"
        rc = main(["violation-sweep", "--s", "4", "--lambda", "5",
                   "--tau-step", "0.05", "--out", str(out)])
        assert rc == 0
        _, rows = _rows(out)
        assert max(float(r[1]) for r in rows) <= 0.03

    def test_deep_confinement_stays_inside_the_phase_bound(self, tmp_path):
        # s = 1e-7: the last time spans 1.3e6 revivals, roundoff 8.5e-3 cycles
        out = tmp_path / "deep.csv"
        assert main(["violation-sweep", "--s", "1e-7", "--lambda", "5",
                     "--tau-step", "0.25", "--out", str(out)]) == 0
        _, rows = _rows(out)
        assert float(rows[-1][0]) == 4.0
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["violation-sweep", "--s", "0.2", "--lambda", "5",
                "--tau-step", "0.02"]
        assert main(argv + ["--out", str(a), "--threads", "1"]) == 0
        assert main(argv + ["--out", str(b), "--threads", "8"]) == 0
        assert _read(a) == _read(b)

    def test_manifest_stages_and_fft_size(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["violation-sweep", "--s", "0.2", "--lambda", "5",
                     "--tau-step", "0.5", "--out", str(out)]) == 0
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        _assert_stages_tile(manifest, BOX_STAGES)
        assert manifest["parameters"]["fft_size"] == 16384
        assert manifest["parameters"]["truncation"] == "norm"
        _, rows = _rows(out)
        assert manifest["parameters"]["worst_error_estimate"] \
            == max(float(r[2]) for r in rows)
        assert 0.0 < manifest["parameters"]["worst_error_estimate"] <= 3e-7
        spectrum = build_spectrum(5.0)
        assert manifest["parameters"]["spectrum_tail_bound"] \
            == spectrum.tail_bound
        assert manifest["parameters"]["spectrum_amplitude_tail_bound"] \
            == spectrum.amplitude_tail_bound

    def test_probability_out_of_range_is_a_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(causalbox.lightcone, "_pairwise_value",
                            lambda *args: (5.0, 1e-7))
        rc = main(["violation-sweep", "--s", "0.2", "--lambda", "5",
                   "--tau-step", "0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("s, lam", [("inf", "5"), ("0.2", "inf")])
    def test_non_finite_parameter_rejected(self, tmp_path, capsys, s, lam):
        rc = main(["violation-sweep", "--s", s, "--lambda", lam,
                   "--tau-step", "0.5", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_threads_below_one_rejected(self, tmp_path, capsys):
        rc = main(["violation-sweep", "--s", "0.2", "--lambda", "5",
                   "--tau-step", "0.5", "--threads", "0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("invalid arguments:")
        assert not (tmp_path / "x.csv").exists()

    def test_unwritable_path(self, tmp_path):
        rc = main(["violation-sweep", "--s", "0.2", "--lambda", "5",
                   "--tau-step", "0.5",
                   "--out", str(tmp_path / "missing" / "x.csv")])
        assert rc == 3


class TestSnapshot:
    def test_profiles_and_normalization(self, tmp_path):
        out = tmp_path / "snap.csv"
        tau_spec = 5.0 / PI
        rc = main(["snapshot", "--s", "0.1", "--lambda", "5",
                   "--tau-list", f"0,{tau_spec:.17g}",
                   "--zeta-step", "0.002", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == "tau,zeta,rho"
        data = np.array([[float(v) for v in r] for r in rows])
        for tau in (0.0, tau_spec):
            sel = data[data[:, 0] == float(f"{tau:.17g}")]
            assert len(sel) > 0
            # discrete unitarity at the default resolution
            assert np.trapezoid(sel[:, 2], sel[:, 1]) == pytest.approx(
                1.0, abs=1e-3)
        at0 = data[data[:, 0] == 0.0]
        mid = at0[np.isclose(at0[:, 1], 0.5)]
        assert mid[0, 2] == pytest.approx(2.0, abs=1e-6)
        revived = data[data[:, 0] != 0.0]
        early = revived[revived[:, 1] < 3.9]
        assert early[:, 2].max() < 1e-4
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        _assert_stages_tile(manifest, BOX_STAGES)
        assert manifest["parameters"]["profile_lattice"] == 2500
        assert manifest["parameters"]["truncation"] == "norm+uniform"
        spectrum = profile_spectrum(5.0)
        assert manifest["parameters"]["spectrum_tail_bound"] \
            == spectrum.tail_bound
        assert manifest["parameters"]["spectrum_amplitude_tail_bound"] \
            == spectrum.amplitude_tail_bound

    def test_profile_within_its_amplitude_tail_bound(self, tmp_path):
        # the profile is the sum over the N modes the manifest records, and
        # at the specular revival it is within that N's amplitude tail
        # bound (1e-4 at the default tol) of the mirrored initial bump
        out = tmp_path / "snap.csv"
        tau_spec = 5.0 / PI
        assert main(["snapshot", "--s", "0.1", "--lambda", "5",
                     "--tau-list", f"0.37,{tau_spec:.17g}",
                     "--zeta-step", "0.05", "--out", str(out)]) == 0
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        n_max = manifest["parameters"]["spectrum_max_mode"]
        bound = manifest["parameters"]["spectrum_amplitude_tail_bound"]
        assert n_max == 45016 and bound <= 1e-4
        _, rows = _rows(out)
        data = np.array(rows, dtype=float).reshape(2, -1, 3)
        zeta = data[0, :, 1]
        n = np.arange(1, n_max + 1, dtype=float)
        c = mode_coefficient(n, 5.0) * np.exp(
            -1j * PI**2 * n**2 * 0.37 / (2.0 * 25.0 * 0.1))
        direct = np.abs(np.sin(np.outer(zeta, n * PI / 5.0)) @ c)
        assert np.max(np.abs(np.sqrt(data[0, :, 2]) - direct)) <= 1e-9
        mirrored = np.abs(initial_state(5.0 - zeta))
        assert np.max(np.abs(np.sqrt(data[1, :, 2]) - mirrored)) <= bound

    @pytest.mark.parametrize("option", [("--zeta-step", "0"),
                                        ("--tau-list", "inf")])
    def test_bad_grid_or_time_rejected(self, tmp_path, capsys, option):
        rc = main(["snapshot", "--s", "0.1", "--lambda", "5", *option,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("invalid arguments:")

    def test_step_not_dividing_lambda_is_recorded_as_dense(self, tmp_path):
        out = tmp_path / "snap.csv"
        assert main(["snapshot", "--s", "0.1", "--lambda", "5",
                     "--tau-list", "0.37", "--zeta-step", "0.31415926",
                     "--out", str(out)]) == 0
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["parameters"]["profile_lattice"] is None


class TestAsymptotic:
    def test_columns_and_convention_cache(self, tmp_path):
        out = tmp_path / "asym.csv"
        rc = main(["asymptotic", "--s-min", "0.5", "--s-max", "20",
                   "--n-points", "7", "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == "s,p_quadrature,p_closed,p_series,convention"
        assert all(r[4] == "reduced" for r in rows)
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) < 1e-8
        # smallest size agrees with the cubic law to better than a percent
        first = rows[0]
        assert float(first[1]) == pytest.approx(float(first[3]), rel=0.01)
        # the convention is stated, not cached: CSV and manifest only
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["asym.csv", "asym.csv.manifest.json"]
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert "convention" not in manifest
        assert manifest["parameters"] == {"s_min": 0.5, "s_max": 20.0,
                                          "n_points": 7}
        _assert_stages_tile(manifest, {"evaluate", "write"})

    def test_bad_range(self, tmp_path):
        rc = main(["asymptotic", "--s-min", "5", "--s-max", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_never_adjudicates(self, tmp_path, monkeypatch):
        argv = ["asymptotic", "--s-min", "0.3", "--s-max", "1",
                "--n-points", "5"]
        assert main(argv + ["--out", str(tmp_path / "a.csv")]) == 0

        def refuse():
            raise AssertionError("must not run")

        monkeypatch.setattr(causalbox.freespace, "adjudicate_convention",
                            refuse)
        monkeypatch.setattr(causalbox.cli, "adjudicate_convention", refuse)
        assert main(argv + ["--out", str(tmp_path / "b.csv")]) == 0
        assert _read(tmp_path / "a.csv") == _read(tmp_path / "b.csv")
        assert not list(tmp_path.glob("*.convention.json"))

    def test_unconverged_quadrature_is_a_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        def stalled(f, a, b, cfg):
            return QuadratureResult(value=0.5, error_estimate=3e-3,
                                    subdivisions_used=cfg.max_subdivisions,
                                    converged=False)

        monkeypatch.setattr(causalbox.freespace, "integrate", stalled)
        rc = main(["asymptotic", "--s-min", "0.3", "--s-max", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

    def test_unconverged_p_of_s_under_forced_convention(
            self, tmp_path, capsys, monkeypatch):
        # no adjudication runs, so the P(s) quadrature itself must refuse
        monkeypatch.setattr(
            causalbox.freespace, "integrate",
            lambda f, a, b, cfg: QuadratureResult(0.5, 3e-3, 0, False))
        rc = main(["asymptotic", "--s-min", "0.3", "--s-max", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: asymptotic violation "
                              "quadrature did not converge")
        assert err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["validate", "--tau-large", "50"],
        ["asymptotic", "--s-min", "0.3", "--s-max", "inf", "--out", "x.csv"],
        ["violation-sweep", "--s", "abc", "--lambda", "5", "--out", "x.csv"],
        ["violation-sweep", "--s", "0.2", "--lambda", "5"],
        ["no-such-command", "--out", "x.csv"],
        ["breakdown", "--s", "0", "--lambda", "5"],
        ["breakdown", "--s", "0.1", "--lambda", "1"],
        # grids past the point cap, refused before they are allocated
        ["snapshot", "--s", "0.1", "--lambda", "5", "--zeta-step", "1e-10",
         "--out", "x.csv"],
        ["violation-sweep", "--s", "0.2", "--lambda", "5",
         "--tau-step", "1e-12", "--out", "x.csv"],
        ["asymptotic", "--s-min", "0.3", "--s-max", "30",
         "--n-points", "10000000000", "--out", "x.csv"],
        # the closed form's sin^2 term would overflow at s = 1e300
        ["asymptotic", "--s-min", "1e3", "--s-max", "1e300",
         "--n-points", "2", "--out", "x.csv"],
        ["asymptotic", "--s-min", "0.3", "--s-max", "30",
         "--convention", "reduced", "--out", "x.csv"],
        ["snapshot", "--s", "0.1", "--lambda", "5", "--threads", "2",
         "--out", "x.csv"],
        # phases tau/tau_rev that overflow to inf, which wrote NaN rows
        ["snapshot", "--s", "0.1", "--lambda", "2", "--zeta-step", "0.5",
         "--tau-list", "1e308", "--out", "x.csv"],
        ["snapshot", "--s", "1e-311", "--lambda", "2", "--zeta-step", "0.5",
         "--out", "x.csv"],
        ["violation-sweep", "--s", "1e-311", "--lambda", "2",
         "--tau-step", "0.25", "--out", "x.csv"],
        # finite phases whose roundoff spans 1e293 cycles: the tau = 1e300
        # profile came out byte-identical to the tau = 0 one
        ["snapshot", "--s", "0.1", "--lambda", "2", "--zeta-step", "0.5",
         "--tau-list", "1e300,0", "--out", "x.csv"],
        # gamma overflows: a ZeroDivisionError traceback at 1e-200
        ["breakdown", "--s", "1e-200", "--lambda", "5"],
        ["breakdown", "--s", "1e-160", "--lambda", "5"],
    ], ids=["removed-option", "s-max-inf", "s-not-a-number", "missing-out",
            "unknown-command", "breakdown-s-zero", "breakdown-lambda-one",
            "snapshot-grid-past-cap", "sweep-grid-past-cap",
            "asymptotic-grid-past-cap", "asymptotic-overflow",
            "removed-convention-option", "removed-snapshot-threads",
            "snapshot-tau-phase-overflow",
            "snapshot-s-phase-overflow", "sweep-s-phase-overflow",
            "snapshot-tau-phase-roundoff",
            "breakdown-s-1e-200", "breakdown-s-1e-160"])
    def test_rejected_with_one_line(self, tmp_path, capsys, monkeypatch,
                                    argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid arguments:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["violation-sweep", "--s", "0.2", "--lambda", "1e5", "--out", "x.csv"],
        ["snapshot", "--s", "0.1", "--lambda", "5", "--tol", "1e-20",
         "--out", "x.csv"],
    ], ids=["sweep-lambda-1e5", "snapshot-tol-1e-20"])
    def test_spectrum_past_the_mode_cap_refused(self, tmp_path, capsys,
                                                monkeypatch, argv):
        # 110 546 876 and 450 158 159 modes: refused before allocating
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("invalid arguments: tol=")
        assert "Lambda=" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "violation-sweep" in capsys.readouterr().out


def test_option_sets_are_pinned():
    # a new option is a visible edit here, not a silent addition
    box = {"--s", "--lambda", "--tol", "--out"}
    expected = {
        "violation-sweep": box | {"--tau-step", "--threads"},
        "snapshot": box | {"--tau-list", "--zeta-step"},
        "asymptotic": {"--s-min", "--s-max", "--n-points", "--out"},
        "breakdown": {"--s", "--lambda"},
        "validate": set(),
    }
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    found = {name: {opt for action in parser._actions
                    for opt in action.option_strings} - {"-h", "--help"}
             for name, parser in sub.choices.items()}
    assert found == expected


def _breakdown_numbers(text):
    """Lambda and the window endpoints, as ``causalbox breakdown`` prints."""
    lines = text.splitlines()
    lam = next(ln for ln in lines if ln.startswith("expansion factor"))
    window = next(ln for ln in lines if ln.startswith("breakdown window"))
    lo, hi = window.split("[")[1].rstrip("]").split(",")
    return float(lam.split("=")[1]), float(lo), float(hi)


class TestBreakdownCommand:
    def test_total_breakdown_verdict(self, capsys):
        assert main(["breakdown", "--s", "0.1", "--lambda", "5"]) == 0
        text = capsys.readouterr().out
        assert "TOTAL BREAKDOWN" in text
        # the lower root of (2 s/pi) x^2 - x + 2 = 0, correctly rounded
        lam, lo, _ = _breakdown_numbers(text)
        assert lam == 5.0 and lo == 2.352245456102033
        assert "13.3557" in text
        assert "494.48" in text

    def test_lambda_just_outside_reads_outside(self, capsys):
        # the lower root at s = 0.05 is 2.146685416823059; to six digits
        # both it and this Lambda read 2.14669
        assert main(["breakdown", "--s", "0.05", "--lambda", "2.1466854"]) == 0
        text = capsys.readouterr().out
        lam, lo, _ = _breakdown_numbers(text)
        assert lam < lo
        assert text.splitlines()[-1] == "verdict           NO"

    def test_negative_verdict(self, capsys):
        assert main(["breakdown", "--s", "1", "--lambda", "5"]) == 0
        text = capsys.readouterr().out
        assert "verdict           NO" in text
        assert "none" in text

    def test_boundary_case(self, capsys):
        assert main(["breakdown", "--s", f"{PI/16:.17g}", "--lambda", "4"]) == 0
        text = capsys.readouterr().out
        assert "TOTAL BREAKDOWN" in text


class TestValidate:
    def test_fresh_run_passes(self, capsys):
        rc = main(["validate"])
        text = capsys.readouterr().out
        assert rc == 0, text
        assert "[FAIL]" not in text
        assert "adjudication" in text and "convention=reduced" in text

    def test_corrupted_table_fails_named_check(self, capsys, monkeypatch):
        broken = list(causalbox.special.REFERENCE_TABLE)
        x, si, cin = broken[4]
        broken[4] = (x, si + 1e-3, cin)
        monkeypatch.setattr(causalbox.special, "REFERENCE_TABLE",
                            tuple(broken))
        rc = main(["validate"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] special_function_table" in text

    def test_adjudication_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(causalbox.freespace, "free_violation_probability",
                            lambda tau, s: 0.5)
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # the FAIL line puts its detail in the same column as every other
        assert lines[-1].startswith("[FAIL] adjudication" + " " * 17
                                    + "convention=reduced")
        assert all(line[35] == " " != line[36] for line in lines)

    def test_verdict_other_than_the_stated_convention_fails(
            self, capsys, monkeypatch):
        # dynamics that follow the 2 pi s reading exactly: the rival's
        # residual is 0, below the stated reading's, which fails the line
        monkeypatch.setattr(
            causalbox.freespace, "free_violation_probability",
            lambda tau, s: causalbox.freespace.asymptotic_violation(
                2.0 * PI * s))
        assert main(["validate"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("[FAIL] adjudication")
        assert lines[-1].endswith("rival 0.0000")
        assert all(line.startswith("[PASS]") for line in lines[:-1])

    def test_linear_dispersion_fails_only_specular_exact(self, capsys,
                                                         monkeypatch):
        # phases exp(-2 pi i n tau/tau_rev): still unitary and periodic, and
        # at tau_rev/2 still the exact mirror, so only the quarter revival
        # tells the n^2 law from a rigid translation
        def linear(spectrum, s, tau):
            lam = spectrum.lambda_factor
            r = tau * PI / (4.0 * lam * lam * s)
            n = np.arange(1, spectrum.max_mode + 1, dtype=float)
            return np.exp(-2j * PI * ((n * r) % 1.0))

        monkeypatch.setattr(causalbox.boxmodes, "_phases", linear)
        monkeypatch.setattr(causalbox.lightcone, "_phases", linear)
        assert main(["validate"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("[PASS]")]
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] specular_exact")

    def test_ci_off_below_one_fails_the_identity(self, capsys, monkeypatch):
        # Ci off by 1e-6 below x = 0.9 only; above |x| = 1 Cin is built
        # from the same Ci, so only samples below one can see the error
        real = causalbox.special.sici

        def shifted(x):
            si, ci = real(x)
            return si, ci + np.where(np.abs(x) < 0.9, 1e-6, 0.0)

        monkeypatch.setattr(causalbox.special, "sici", shifted)
        assert main(["validate"]) == 1
        text = capsys.readouterr().out
        assert "[FAIL] si_ci_identity" in text


# Runs in a fresh isolated interpreter: after each import and each main()
# call, records the command, its exit code and the scipy modules loaded.
_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import causalbox
report = [["import causalbox", 0, scipy_modules()]]
from causalbox.cli import main
report.append(["import causalbox.cli", 0, scipy_modules()])
for argv in json.loads(sys.argv[2]):
    report.append([argv[0], main(argv), scipy_modules()])
print(json.dumps(report))
"""


def test_box_commands_never_load_scipy(tmp_path):
    src = Path(causalbox.__file__).resolve().parents[1]
    box = ["--s", "0.1", "--lambda", "2", "--tol", "1e-6"]
    snap = box + ["--tau-list", "0.37"]
    runs = [["breakdown", "--s", "0.1", "--lambda", "5"],
            ["violation-sweep", *box, "--tau-step", "0.5",
             "--out", str(tmp_path / "sweep.csv")],
            ["snapshot", *snap, "--zeta-step", "0.25",
             "--out", str(tmp_path / "lattice.csv")],
            ["snapshot", *snap, "--zeta-step", "0.7071067811865476",
             "--out", str(tmp_path / "dense.csv")],
            ["asymptotic", "--s-min", "0.5", "--s-max", "2",
             "--n-points", "3", "--out", str(tmp_path / "asym.csv")]]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _SCIPY_PROBE, str(src), json.dumps(runs)],
        capture_output=True, text=True, timeout=300, check=True)
    # breakdown prints its verdict first; the report is the last line
    *box_steps, (_, rc, loaded) = json.loads(proc.stdout.splitlines()[-1])
    assert [step[0] for step in box_steps] == [
        "import causalbox", "import causalbox.cli", "breakdown",
        "violation-sweep", "snapshot", "snapshot"]
    assert all(step[1:] == [0, []] for step in box_steps), box_steps
    # both profile routes ran: the folded sine transform and the dense sum
    lattices = [json.loads(_read(str(tmp_path / name) + ".manifest.json"))
                ["parameters"]["profile_lattice"]
                for name in ("lattice.csv", "dense.csv")]
    assert lattices == [8, None]
    assert rc == 0 and "scipy.special" in loaded
