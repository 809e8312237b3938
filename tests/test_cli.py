import json
import math

import numpy as np
import pytest

import causalbox.freespace
import causalbox.lightcone
import causalbox.special
from causalbox import (QuadratureResult, build_spectrum, initial_state,
                       mode_coefficient, profile_spectrum)
from causalbox.cli import main

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

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        # off-lattice grid: every profile takes the dense sum through BLAS
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["snapshot", "--s", "0.1", "--lambda", "5",
                "--zeta-step", "0.31415926"]
        assert main(argv + ["--out", str(a), "--threads", "1"]) == 0
        assert main(argv + ["--out", str(b), "--threads", "2"]) == 0
        manifest = json.loads(_read(str(b) + ".manifest.json"))
        assert manifest["parameters"]["profile_lattice"] is None
        assert _read(a) == _read(b)


class TestAsymptotic:
    def test_columns_and_convention_cache(self, tmp_path):
        out = tmp_path / "asym.csv"
        rc = main(["asymptotic", "--s-min", "0.5", "--s-max", "20",
                   "--n-points", "7", "--tau-large", "300",
                   "--out", str(out)])
        assert rc == 0
        header, rows = _rows(out)
        assert header == "s,p_quadrature,p_closed,p_series,convention"
        assert all(r[4] == "reduced" for r in rows)
        for r in rows:
            assert abs(float(r[1]) - float(r[2])) < 1e-8
        # smallest size agrees with the cubic law to better than a percent
        first = rows[0]
        assert float(first[1]) == pytest.approx(float(first[3]), rel=0.01)
        record = json.loads(_read(str(out) + ".convention.json"))
        assert record["convention"] == "reduced"
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["convention"] == "reduced"
        assert manifest["parameters"]["tau_large"] == 300.0
        _assert_stages_tile(manifest, {"adjudicate", "evaluate", "write"})

    def test_forced_convention_skips_adjudication(self, tmp_path):
        out = tmp_path / "forced.csv"
        rc = main(["asymptotic", "--s-min", "1", "--s-max", "10",
                   "--n-points", "3", "--convention", "reduced",
                   "--out", str(out)])
        assert rc == 0
        _, rows = _rows(out)
        assert rows[0][4] == "reduced"
        assert not (tmp_path / "forced.csv.convention.json").exists()
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        _assert_stages_tile(manifest, {"evaluate", "write"})

    @pytest.mark.parametrize("convention", ["reduced", "nonreduced"])
    def test_forced_convention_records_no_tau_large(self, tmp_path,
                                                    convention):
        # the value is never read under a forced convention
        out = tmp_path / "forced.csv"
        assert main(["asymptotic", "--s-min", "1", "--s-max", "10",
                     "--n-points", "3", "--convention", convention,
                     "--tau-large", "50", "--out", str(out)]) == 0
        manifest = json.loads(_read(str(out) + ".manifest.json"))
        assert manifest["parameters"]["tau_large"] is None
        assert manifest["parameters"]["requested_convention"] == convention

    def test_bad_range(self, tmp_path):
        rc = main(["asymptotic", "--s-min", "5", "--s-max", "1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1

    def test_infinite_tau_large_rejected(self, tmp_path, capsys):
        # used to integrate over [0, inf] and never return
        rc = main(["asymptotic", "--s-min", "0.3", "--s-max", "1",
                   "--tau-large", "inf", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid arguments:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()

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
                   "--convention", "reduced",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert not (tmp_path / "x.csv").exists()


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["validate", "--tau-large", "50"],
        ["asymptotic", "--s-min", "0.3", "--s-max", "inf", "--out", "x.csv"],
        ["asymptotic", "--convention", "reduced", "--tau-large", "nan",
         "--s-min", "0.3", "--s-max", "1", "--out", "x.csv"],
        ["violation-sweep", "--s", "abc", "--lambda", "5", "--out", "x.csv"],
        ["violation-sweep", "--s", "0.2", "--lambda", "5"],
        ["no-such-command", "--out", "x.csv"],
        ["breakdown", "--s", "0", "--lambda", "5"],
        ["breakdown", "--s", "0.1", "--lambda", "1"],
    ], ids=["tau-large-below-min", "s-max-inf", "tau-large-nan",
            "s-not-a-number", "missing-out", "unknown-command",
            "breakdown-s-zero", "breakdown-lambda-one"])
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


class TestBreakdownCommand:
    def test_total_breakdown_verdict(self, capsys):
        assert main(["breakdown", "--s", "0.1", "--lambda", "5"]) == 0
        text = capsys.readouterr().out
        assert "TOTAL BREAKDOWN" in text
        assert "2.35225" in text and "13.3557" in text
        assert "494.48" in text

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
        rc = main(["validate", "--tau-large", "300"])
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
        rc = main(["validate", "--tau-large", "300"])
        text = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] special_function_table" in text
