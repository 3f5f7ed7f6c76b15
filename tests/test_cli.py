"""CLI-level tests: subcommands, exit codes, metadata, determinism."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from nvrelax.cli import main
from nvrelax.core import BUILTIN_TAG, load_dataset, parse_dataset_text

PUBLISHED_PARAMS = {
    "model": "n-mode:2",
    "parameters": {
        "delta_1": 68.2, "a_1": 580.0, "b_1": 1510.0,
        "delta_2": 167.0, "a_2": 9000.0, "b_2": 4800.0,
        "a3_A": 0.013, "b3_A": 0.06, "a3_B": 0.010, "b3_B": 0.30,
    },
}


def run(*argv) -> int:
    return main(list(argv))


def data_rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


@pytest.fixture()
def published_params_file(tmp_path):
    path = tmp_path / "published.json"
    path.write_text(json.dumps(PUBLISHED_PARAMS))
    return str(path)


class TestExitCodes:
    def test_empty_dataset_is_input_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run("fit", "--data", str(empty)) == 1
        assert "empty dataset" in capsys.readouterr().err

    def test_unknown_model_is_input_error(self, capsys):
        assert run("fit", "--model", "bogus") == 1

    def test_single_model_compare_is_input_error(self, capsys):
        assert run("compare", "--models", "prior") == 1
        assert "two models" in capsys.readouterr().err

    def test_missing_subcommand_is_input_error(self, capsys):
        assert run() == 1

    def test_unknown_flag_is_input_error(self, capsys):
        assert run("fit", "--definitely-not-a-flag") == 1
        assert run("fit", "--threads", "2") == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err

    def test_repeated_model_compare_is_input_error(self, capsys):
        assert run("compare", "--models", "n-mode:2", "prior", "N_MODE:2") == 1
        assert "model n-mode:2 given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("spectral", "--sigma", "0"),
        ("spectral", "--sigma", "nan"),
        ("eval", "--temps", "nan"),
        ("compare", "--models", "n-mode:1", "prior", "--extrapolate", "nan"),
    ])
    def test_nonpositive_or_nonfinite_flag_is_input_error(
            self, argv, published_params_file, tmp_path, capsys):
        extra = {"spectral": ("-o", str(tmp_path / "s")),
                 "eval": ("--params", published_params_file),
                 "compare": ()}[argv[0]]
        assert run(*argv, *extra) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert argv[-2] in err

    def test_cold_only_data_uses_clamped_heuristic_guesses(self, tmp_path, capsys):
        # below 5 K the heuristic coefficient guesses overflow their bounds;
        # they are clamped, so the fit runs and ends in a diagnosed result
        data = tmp_path / "cold.csv"
        data.write_text(
            "nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s\n"
            "C1,A,2.5,0.0105,0.002,0.042,0.008\n"
            "C1,A,3.0,0.009781,0.002,0.03896,0.008\n"
            "C1,A,3.5,0.01254,0.002,0.04548,0.008\n"
            "C1,A,4.0,0.03681,0.002,0.09322,0.008\n"
            "C1,A,5.0,0.915,0.002,1.85,0.008\n")
        assert run("fit", "--model", "n-mode:1", "--data", str(data),
                   "-o", str(tmp_path / "one.json")) == 0
        assert run("fit", "--model", "prior", "--data", str(data),
                   "-o", str(tmp_path / "prior.json")) == 2
        assert "outside bounds" not in capsys.readouterr().err

    def test_successful_fit_exits_zero(self, tmp_path):
        assert run("fit", "--model", "prior", "--multistart", "2",
                   "-o", str(tmp_path / "r.json")) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nvrelax.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "nvrelax" in proc.stdout


class TestFitCommand:
    def test_two_mode_report(self, tmp_path):
        out = tmp_path / "fit2.json"
        assert run("fit", "--model", "n-mode:2", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        for key in ("version", "config", "seed", "dataset_checksum"):
            assert key in report
        assert report["seed"] == 1729
        params = {e["name"]: e["value"] for e in report["parameters"]}
        assert params["delta_1"] == pytest.approx(68.2, abs=3.4)
        assert report["fit"]["converged"]
        assert report["dataset"]["checksum"] == report["dataset_checksum"]

    def test_one_mode_chi2(self, tmp_path):
        out = tmp_path / "fit1.json"
        assert run("fit", "--model", "n-mode:1", "--multistart", "8",
                   "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert 3.4 <= report["fit"]["chi2_reduced"] <= 4.4

    def test_phonon_limited_flag(self, tmp_path):
        out = tmp_path / "fitp.json"
        assert run("fit", "--phonon-limited", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["dataset"]["t_min_k"] == 125.0
        names = {e["name"] for e in report["parameters"]}
        assert "a3_A" not in names

    def test_phonon_limited_conflicts_with_explicit_framing(self, capsys):
        assert run("fit", "--phonon-limited", "--t-min", "100") == 1


class TestEvalCommand:
    def test_published_params_at_room_temperature(self, published_params_file,
                                                  capsys):
        assert run("eval", "--params", published_params_file,
                   "--sample", "A", "--temps", "295") == 0
        rows = data_rows(capsys.readouterr().out)
        t, omega, gamma, ratio, t2sq, t2dq, t1 = map(float, rows[0])
        assert omega == pytest.approx(58.5, rel=0.02)
        assert t2sq == pytest.approx(6.6e-3, rel=0.02)
        assert ratio == pytest.approx(gamma / omega, rel=1e-12)
        assert t1 == pytest.approx(1.0 / (3.0 * omega), rel=1e-12)

    def test_zero_params_flag_infinite_coherence(self, tmp_path, capsys):
        zeroed = {
            "model": "n-mode:2",
            "parameters": {k: (v if k.startswith("delta") else 0.0)
                           for k, v in PUBLISHED_PARAMS["parameters"].items()},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(zeroed))
        assert run("eval", "--params", str(path), "--temps", "295") == 0
        fields = data_rows(capsys.readouterr().out)[0]
        assert float(fields[1]) == 0.0 and float(fields[2]) == 0.0
        assert math.isnan(float(fields[3]))
        assert all(math.isinf(float(v)) for v in fields[4:])

    def test_ratio_column_decreases_over_measured_range(
            self, published_params_file, capsys):
        assert run("eval", "--params", published_params_file, "--sample", "A",
                   "--t-min", "200", "--t-max", "474", "--n-temps", "15") == 0
        ratios = [float(r[3]) for r in data_rows(capsys.readouterr().out)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_fit_report_chains_into_eval(self, tmp_path, capsys):
        report_path = tmp_path / "fit.json"
        assert run("fit", "--model", "prior", "--multistart", "4",
                   "-o", str(report_path)) == 0
        assert run("eval", "--params", str(report_path),
                   "--sample", "B", "--temps", "300,400") == 0
        assert len(data_rows(capsys.readouterr().out)) == 2

    def test_unknown_sample_is_input_error(self, published_params_file, capsys):
        assert run("eval", "--params", published_params_file,
                   "--sample", "Z", "--temps", "295") == 1
        assert "unknown sample" in capsys.readouterr().err

    def test_params_file_without_keys_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"stuff": 1}))
        assert run("eval", "--params", str(path), "--temps", "295") == 1


class TestSpectralCommand:
    def test_anchor_fixture_gives_two_peak_spectra(self, tmp_path):
        prefix = tmp_path / "spec"
        assert run("spectral", "--sigma", "2.0", "-o", str(prefix)) == 0
        for suffix in (".sq.csv", ".dq.csv", ".rates.csv"):
            assert (tmp_path / ("spec" + suffix)).exists()
        rows = data_rows((tmp_path / "spec.dq.csv").read_text())
        energy = np.array([float(r[0]) for r in rows])
        amplitude = np.array([float(r[1]) for r in rows])
        assert abs(energy[np.argmax(amplitude)] - 62.4) < 0.5
        # secondary peak at the higher anchor mode
        window = (energy > 140) & (energy < 180)
        peak_idx = np.argmax(amplitude[window])
        assert abs(energy[window][peak_idx] - 160.7) < 0.5

    def test_narrow_sigma_is_near_discrete(self, tmp_path):
        prefix = tmp_path / "narrow"
        assert run("spectral", "--sigma", "0.01", "-o", str(prefix)) == 0
        rows = data_rows((tmp_path / "narrow.sq.csv").read_text())
        energy = np.array([float(r[0]) for r in rows])
        amplitude = np.array([float(r[1]) for r in rows])
        on_peak = amplitude[np.abs(energy - 62.4) < 0.05].max()
        off_peak = amplitude[np.abs(energy - 70.0) < 1.0].max()
        assert on_peak > 1e6 * max(off_peak, 1e-300)

    def test_rate_curve_increases_with_temperature(self, tmp_path):
        prefix = tmp_path / "curve"
        assert run("spectral", "--sigma", "2.0", "--t-min", "150",
                   "--t-max", "1000", "--n-temps", "12", "-o", str(prefix)) == 0
        rows = data_rows((tmp_path / "curve.rates.csv").read_text())
        omega = [float(r[1]) for r in rows]
        gamma = [float(r[2]) for r in rows]
        assert all(b > a for a, b in zip(omega, omega[1:]))
        assert all(b > a for a, b in zip(gamma, gamma[1:]))

    def test_refit_pins_dominant_mode_below_peak(self, tmp_path):
        prefix = tmp_path / "refit"
        assert run("spectral", "--sigma", "7.5", "--refit",
                   "-o", str(prefix)) == 0
        report = json.loads((tmp_path / "refit.refit.json").read_text())
        params = {e["name"]: e["value"] for e in report["parameters"]}
        # fitted activation of the dominant 62.4 meV mode sits 5-10% low
        bias = 1.0 - params["delta_1"] / 62.4
        assert 0.05 <= bias <= 0.10

    def test_missing_channel_is_input_error(self, tmp_path, capsys):
        coupling = tmp_path / "sq_only.csv"
        coupling.write_text(
            "energy_mev,amplitude_mhz,channel,order\n"
            "62.4,0.6,single_quantum,2\n")
        assert run("spectral", "--coupling", str(coupling),
                   "-o", str(tmp_path / "x")) == 1
        assert "double_quantum" in capsys.readouterr().err


class TestSimulateCommand:
    def test_noise_free_extraction_is_exact(self, tmp_path):
        prefix = tmp_path / "ideal"
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--noise-free", "-o", str(prefix)) == 0
        report = json.loads((tmp_path / "ideal.report.json").read_text())
        est = report["estimate"]
        assert abs(est["omega_s"] - 60.0) / 60.0 < 1e-9
        assert abs(est["gamma_s"] - 128.0) / 128.0 < 1e-9

    def test_shot_noise_extraction_within_reported_errors(self, tmp_path):
        prefix = tmp_path / "noisy"
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--shots", "100000", "-o", str(prefix)) == 0
        est = json.loads((tmp_path / "noisy.report.json").read_text())["estimate"]
        assert abs(est["omega_s"] - 60.0) < est["omega_err_s"]
        assert abs(est["gamma_s"] - 128.0) < est["gamma_err_s"]

    def test_same_seed_gives_identical_files(self, tmp_path):
        prefix = tmp_path / "rep"
        args = ("simulate", "--omega", "60", "--gamma", "128",
                "--shots", "500", "--seed", "7", "-o", str(prefix))
        assert run(*args) == 0
        first = {s: (tmp_path / ("rep" + s)).read_bytes()
                 for s in (".dataset.csv", ".curves.csv", ".report.json")}
        assert run(*args) == 0
        for suffix, content in first.items():
            assert (tmp_path / ("rep" + suffix)).read_bytes() == content

    def test_dataset_row_feeds_the_fitting_schema(self, tmp_path):
        prefix = tmp_path / "row"
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--shots", "20000", "--temperature", "310",
                   "-o", str(prefix)) == 0
        dataset = parse_dataset_text((tmp_path / "row.dataset.csv").read_text())
        assert len(dataset.rows) == 1
        assert dataset.rows[0].temperature == 310.0
        assert dataset.rows[0].nv_id == "SIM"

    def test_invalid_pairing_is_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--shots", "100", "--gamma-init", "0",
                   "-o", str(tmp_path / "bad")) == 1
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--shots", "100", "--omega-partner", "2",
                   "-o", str(tmp_path / "bad2")) == 1

    def test_negative_truth_rate_is_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "-5", "--gamma", "128",
                   "--shots", "100", "-o", str(tmp_path / "neg")) == 1


class TestCompareCommand:
    def test_ranking_and_extrapolation(self, tmp_path):
        out = tmp_path / "cmp.json"
        assert run("compare", "--models", "n-mode:2", "prior",
                   "--extrapolate", "700", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        labels = [row["model"] for row in report["ranking"]]
        assert labels[0] == "n-mode:2"
        chi2 = [row["chi2_reduced"] for row in report["ranking"]]
        assert chi2 == sorted(chi2)
        div = report["extrapolation"]["divergence_vs_best_pct"]["prior"]
        assert 30.0 <= div["A"]["omega_pct"] <= 70.0
        assert 10.0 <= div["A"]["gamma_pct"] <= 30.0

    def test_mode_count_ladder(self, tmp_path):
        out = tmp_path / "ladder.json"
        assert run("compare", "--models", "n-mode:1", "n-mode:2",
                   "--multistart", "8", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        by_label = {r["model"]: r["chi2_reduced"] for r in report["ranking"]}
        assert 3.4 <= by_label["n-mode:1"] <= 4.4
        assert 1.1 <= by_label["n-mode:2"] <= 1.5


class TestReproducibility:
    def test_identical_config_is_byte_identical(self, tmp_path):
        out = tmp_path / "same.json"
        args = ("fit", "--model", "prior", "--multistart", "4", "-o", str(out))
        assert run(*args) == 0
        first = out.read_bytes()
        assert run(*args) == 0
        assert out.read_bytes() == first

    def test_builtin_override_env(self, tmp_path, monkeypatch):
        copy = tmp_path / "copy.csv"
        copy.write_text(load_dataset(BUILTIN_TAG).to_csv_text())
        monkeypatch.setenv("NVRELAX_BUILTIN_DATA", str(copy))
        out = tmp_path / "ov.json"
        assert run("fit", "--model", "prior", "--multistart", "2",
                   "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert "override" in report["dataset"]["provenance"]
        assert str(copy) in report["dataset"]["provenance"]
