"""CLI-level tests: subcommands, exit codes, metadata, determinism."""
import dataclasses
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nvrelax
from nvrelax.cli import main
from nvrelax.core import parse_dataset_text
from nvrelax.fitting import FitProblem, ModelSpec, fit, residual_diagnostics

README = Path(__file__).resolve().parents[1] / "README.md"

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

    def test_unknown_flag_is_input_error(self, tmp_path, capsys):
        assert run("fit", "--definitely-not-a-flag") == 1
        assert run("fit", "--threads", "2") == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
        assert run("fit", "--multistart", "2") == 1
        assert "unrecognized arguments: --multistart" in capsys.readouterr().err
        # the phonon-limited preset: --constants none --t-min 125 is its one spelling
        assert run("fit", "--phonon-limited") == 1
        assert "unrecognized arguments: --phonon-limited" in capsys.readouterr().err
        # simulate reads one protocol, init 0 as (0, -1) and init +1 as (+1, -1),
        # and has one noise knob: a lower readout fidelity is a lower --shots
        for extra in (("--omega-partner=+1",), ("--gamma-init=-1",), ("--fidelity", "0.8")):
            assert run("simulate", "--omega", "60", "--gamma", "128", "--noise-free",
                       *extra, "-o", str(tmp_path / "m")) == 1
            assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_model_compare_is_input_error(self, capsys):
        assert run("compare", "--models", "n-mode:2", "prior", "N_MODE:2") == 1
        assert "model n-mode:2 given more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("spectral", "--sigma", "0"),
        ("spectral", "--sigma", "nan"),
        ("eval", "--temps", "nan"),
        ("compare", "--models", "n-mode:1", "prior", "--extrapolate", "nan"),
        ("eval", "--temps", "300,abc"),
        ("eval", "--n-temps", "0"),
        ("spectral", "--n-temps", "0"),
        ("eval", "--n-temps", "-1"),
        ("eval", "--n-temps", "9" * 400),
        # the emitted dataset row must read back: core accepts 1-2000 K
        ("simulate", "--temperature", "5000"),
        ("simulate", "--temperature", "0.5"),
        ("simulate", "--temperature", "abc"),
    ])
    def test_nonpositive_or_nonfinite_flag_is_input_error(
            self, argv, published_params_file, tmp_path, capsys):
        extra = {"spectral": ("-o", str(tmp_path / "s"), "--refit"),
                 "eval": ("--params", published_params_file),
                 "simulate": ("--omega", "60", "--gamma", "128", "--shots", "1000",
                              "-o", str(tmp_path / "s")),
                 "fit": (), "compare": ()}[argv[0]]
        assert run(*argv, *extra) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert argv[-2] in err
        assert not list(tmp_path.glob("s.*"))

    @pytest.mark.parametrize("argv, path", [
        (("eval", "--params", "missing.json"), "missing.json"),
        (("spectral", "--coupling", "nofile.csv", "-o", "spec"), "nofile.csv"),
        (("simulate", "--omega", "60", "--gamma", "128", "--noise-free",
          "-o", "nodir/sim"), "nodir/sim.dataset.csv"),
    ], ids=["params", "coupling", "output"])
    def test_unreadable_or_unwritable_path_is_named(self, argv, path, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{path}'\n")

    # sizes of 10^15 elements or more, which numpy refuses without allocating;
    # below sigma ~ 1.4e-305 the default grid's sample count is not even
    # finite, and below ~ 5e-323 its spacing sigma/10 rounds to 0
    @pytest.mark.parametrize("argv, message", [
        (("spectral", "--sigma", "1e-12", "-o", "t"), "broadening width sigma = 1e-12 meV"),
        (("spectral", "--sigma", "1e-300", "-o", "t"), "broadening width sigma = 1e-300 meV"),
        (("spectral", "--sigma", "1e-305", "-o", "t"), "broadening width sigma = 1e-305 meV"),
        (("spectral", "--sigma", "5e-324", "-o", "t"), "broadening width sigma = 5e-324 meV"),
        (("eval", "--n-temps", "1000000000000000"), "Unable to allocate"),
        (("simulate", "--omega", "60", "--gamma", "128", "--shots", "100",
          "--n-tau", "1000000000000000", "-o", "b"), "Unable to allocate"),
        (("simulate", "--omega", "60", "--gamma", "128",
          "--shots", "1" + "0" * 30, "-o", "a"), "shot count must be <= 2**63 - 1"),
    ], ids=["spectral-grid", "spectral-grid-size", "spectral-grid-overflow",
            "spectral-grid-zero-spacing", "eval-grid",
            "simulate-grid", "simulate-shots"])
    def test_oversized_request_is_input_error(self, argv, message, published_params_file,
                                              tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        extra = ("--params", published_params_file) if argv[0] == "eval" else ()
        assert run(*argv, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["published.json"]

    def test_missing_parameter_is_named(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text('{"model":"n-mode:1","parameters":{"delta_1":60,"a_1":1}}')
        assert run("eval", "--params", str(params), "--temps", "300") == 1
        assert capsys.readouterr().err == "error: missing parameter 'b_1'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "0"])
    @pytest.mark.parametrize("command", [("fit",), ("compare", "--models", "n-mode:1", "prior")],
                             ids=["fit", "compare"])
    def test_bad_t_min_names_the_flag(self, command, value, capsys):
        assert run(*command, "--t-min", value) == 1
        err = capsys.readouterr().err
        assert "--t-min" in err and "Traceback" not in err

    def test_cold_only_data_uses_clamped_heuristic_guesses(self, tmp_path, capsys):
        # below 5 K the profile's coefficients overflow their bounds; the
        # starts are clamped, so the fit runs and ends in a diagnosed result
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

    @pytest.mark.parametrize("document, field", [
        ('{"model":"n-mode:1","parameters":{"delta_1":NaN,"a_1":1,"b_1":2}}', "delta_1"),
        ('{"model":"prior","parameters":{"delta":60,"a1":1,"b1":2,"a2":Infinity,'
         '"b2":0}}', "a2"),
    ])
    def test_nonfinite_parameter_json_is_input_error(self, document, field, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(document)
        out = tmp_path / "eval.csv"
        assert run("eval", "--params", str(params), "--temps", "300", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document, field", [
        ('5', "'model'"),
        ('{"model":5,"parameters":{}}', "'model'"),
        ('{"model":"n-mode:1","parameters":"abc"}', "'parameters'"),
        ('{"model":"n-mode:1","parameters":[1]}', "'parameters'"),
        ('{"model":"n-mode:1","parameters":[{"value":1}]}', "'parameters'"),
        ('{"model":"n-mode:1","parameters":{"delta_1":[1],"a_1":1,"b_1":2}}', "'delta_1'"),
        ('{"model":"n-mode:1","parameters":{"delta_1":"x","a_1":1,"b_1":2}}', "'delta_1'"),
        ('{"model":"n-mode:1","parameters":{"delta_1":60,"a_1":true,"b_1":2}}', "'a_1'"),
    ])
    def test_misshapen_parameter_json_is_input_error(self, document, field, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(document)
        assert run("eval", "--params", str(params), "--temps", "300") == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, content", [
        (("eval", "--params", "in.dat", "--temps", "300", "-o", "out"), b"[" * 100000),
        (("eval", "--params", "in.dat", "--temps", "300", "-o", "out"), b"{"),
        (("eval", "--params", "in.dat", "--temps", "300", "-o", "out"), b"\xff\xfe"),
        (("fit", "--data", "in.dat", "-o", "out"), b"\xff\xfe"),
        (("spectral", "--coupling", "in.dat", "-o", "out"), b"\xff\xfe"),
        (("fit", "--data", "in.dat", "-o", "out"), b"{"),
        (("spectral", "--coupling", "in.dat", "-o", "out"), b"{"),
    ], ids=["params-nested", "params-truncated", "params-utf16", "data-utf16",
            "coupling-utf16", "data-bad-header", "coupling-bad-header"])
    def test_undecodable_input_file_is_named(self, argv, content, tmp_path,
                                             monkeypatch, capsys):
        # too deep to decode is not a numerical failure, and a decode error
        # names the file, not only the codec
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.dat").write_bytes(content)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert "'in.dat'" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.dat"]

    def test_cold_only_data_below_orbach_underflow_fits_without_warnings(self, tmp_path,
                                                                          capsys):
        # at 1.0-1.4 K the profile's columns n(n+1) are exactly 0 over most
        # of the mode-energy grid; no start may come from dividing by them.
        # The best fits hold the Orbach coefficients on their upper bound,
        # where they move no residual: rank deficient, not a silent answer
        data = tmp_path / "colder.csv"
        data.write_text(
            "nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s\n"
            "C1,A,1.0,0.0105,0.002,0.042,0.008\n"
            "C1,A,1.1,0.009781,0.002,0.03896,0.008\n"
            "C1,A,1.2,0.01254,0.002,0.04548,0.008\n"
            "C1,A,1.3,0.03681,0.002,0.09322,0.008\n"
            "C1,A,1.4,0.0915,0.002,0.185,0.008\n")
        for model in ("n-mode:1", "n-mode:2", "prior"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run("fit", "--model", model, "--data", str(data),
                           "-o", str(tmp_path / "fit.json"))
            err = capsys.readouterr().err
            assert code == 2, (model, err)
            assert "Traceback" not in err and "Warning" not in err
            assert "rank-deficient fit" in err

    def test_overflowing_fit_is_a_numerical_failure_without_warnings(self, tmp_path, capsys):
        # rates of 1e-300 to 1e-260 1/s at 1-2 K with 1% errors: a start whose
        # coefficients are raised to their 1e-6 lower bound overflows chi2 or
        # its gradient. No such start may count as converged
        rates = np.geomspace(1e-300, 1e-260, 12).tolist()
        data = tmp_path / "tiny.csv"
        data.write_text("nv_id,sample,temperature_k,omega_s,omega_err_s,gamma_s,gamma_err_s\n"
                        + "".join(f"T{i},A,{1 + i / 11!r},{r!r},{r / 100!r},{2 * r!r},{r / 50!r}\n"
                                  for i, r in enumerate(rates)))
        for model in ("n-mode:1", "n-mode:2", "n-mode:3", "prior"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run("fit", "--constants", "none", "--model", model, "--data", str(data),
                           "-o", str(tmp_path / "fit.json"))
            err = capsys.readouterr().err
            assert code == 2, (model, err)
            assert err.startswith("numerical failure: ") and "Traceback" not in err
        assert "overflow at every start" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.csv"]

    def test_successful_fit_exits_zero(self, tmp_path):
        assert run("fit", "--model", "prior", "-o", str(tmp_path / "r.json")) == 0

    @pytest.mark.parametrize("argv, message", [
        (("fit", "--model", "n-mode:2"), "fit did not converge"),
        (("compare", "--models", "n-mode:1", "prior"), "at least one fit did not converge"),
    ], ids=["fit", "compare"])
    def test_capped_fit_writes_its_report_and_exits_two(self, argv, message, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.setattr("nvrelax.fitting._MAX_EVALUATIONS", 2)
        out = tmp_path / "r.json"
        assert run(*argv, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        report = json.loads(out.read_text())
        fits = report["ranking"] if "ranking" in report else [report["fit"]]
        assert not all(f["converged"] for f in fits)

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nvrelax.cli", "--version"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "nvrelax" in proc.stdout


def test_runs_without_scipy(tmp_path):
    # every subcommand exits 0 with scipy unimportable and loads no scipy
    # module, and the two-mode energies land in criterion 1's windows
    # (published value +- 2 sigma)
    src = Path(nvrelax.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = """
import json, sys
sys.modules["scipy"] = None
from nvrelax.cli import main
for argv in ("fit -o f.json",
             "compare --models n-mode:1 n-mode:2 n-mode:3 prior -o c.json",
             "eval --params f.json -o e.csv",
             "spectral --sigma 7.5 --refit -o s",
             "simulate --omega 60 --gamma 128 --shots 100000 -o m"):
    assert main(argv.split()) == 0, argv
assert all(row["converged"] for row in json.load(open("c.json"))["ranking"])
values = {p["name"]: p["value"] for p in json.load(open("f.json"))["parameters"]}
assert abs(values["delta_1"] - 68.2) <= 3.4, values
assert abs(values["delta_2"] - 167.0) <= 24.0, values
assert "numpy.ma" not in sys.modules
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy']"     # only the blocked entry


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
        assert run("fit", "--model", "n-mode:1", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert 3.4 <= report["fit"]["chi2_reduced"] <= 4.4

    def test_residuals_hold_the_diagnostics(self, tmp_path, two_mode_fit):
        # the report's residuals give back residual_diagnostics bit for bit:
        # its mean, its variance and its outliers beyond 2.5 sigma
        out = tmp_path / "fit2.json"
        assert run("fit", "--model", "n-mode:2", "-o", str(out)) == 0
        residuals = json.loads(out.read_text())["residuals"]
        values = np.array([e["value"] for e in residuals])
        diag = residual_diagnostics(two_mode_fit)
        assert (float(np.mean(values)), float(np.var(values))) == (diag.mean, diag.variance)
        outliers = [tuple(e.values()) for e in residuals
                    if abs(e["value"]) > diag.outlier_threshold]
        assert outliers == [dataclasses.astuple(o) for o in diag.outliers]
        assert (round(diag.mean, 3), round(diag.variance, 3), len(outliers)) == (-0.087, 1.302, 3)

    def test_phonon_limited_fit(self, tmp_path):
        out = tmp_path / "fitp.json"
        assert run("fit", "--constants", "none", "--t-min", "125", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert report["dataset"]["t_min_k"] == 125.0
        names = {e["name"] for e in report["parameters"]}
        assert "a3_A" not in names


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
        assert run("fit", "--model", "prior", "-o", str(report_path)) == 0
        assert run("eval", "--params", str(report_path),
                   "--sample", "B", "--temps", "300,400") == 0
        assert len(data_rows(capsys.readouterr().out)) == 2

    def test_reversed_temperature_range_is_input_error(self, published_params_file, capsys):
        assert run("eval", "--params", published_params_file,
                   "--t-min", "300", "--t-max", "200") == 1
        assert "t-max must exceed t-min" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sigma", ["0.3", "7.5"])
    def test_grid_text_formatted_once_per_run(self, tmp_path, monkeypatch, sigma):
        # each channel holds its own copy of the grid; the second channel's
        # CSV reuses the text formatted for the first
        from nvrelax import spectral
        calls = []
        formatter = spectral._decimal_places
        monkeypatch.setattr(spectral, "_decimal_places",
                            lambda grid: calls.append(len(grid)) or formatter(grid))
        assert run("spectral", "--sigma", sigma, "-o", str(tmp_path / "once")) == 0
        assert calls == [len(spectral.default_grid(float(sigma)))]
        sq, dq = (data_rows((tmp_path / f"once.{c}.csv").read_text()) for c in ("sq", "dq"))
        assert [r[0] for r in sq] == [r[0] for r in dq]

    def test_overflowing_refit_is_a_numerical_failure_without_warnings(self, tmp_path,
                                                                         capsys):
        # rates near 1e-298 1/s at 1-2 K: three of the six starts overflow
        # chi2 and fail, the best of the others is rank deficient: no file
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("spectral", "--sigma", "1", "--t-min", "1", "--t-max", "2", "--refit",
                       "-o", str(tmp_path / "cold"))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numerical failure: ") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("argv, message", [
        # three temperatures give six residuals for six free parameters
        pytest.param(["--sigma", "7.5", "--n-temps", "3"], "underdetermined",
                     id="underdetermined"),
        # n(n+1) underflows to 0 at 0.3 K, and so would the rate's 1% error
        pytest.param(["--t-min", "0.3"], "rate at temperature 0.3 K is too small to weight",
                     id="zero-rate"),
    ])
    def test_failed_refit_writes_nothing(self, tmp_path, capsys, argv, message):
        assert run("spectral", *argv, "--refit", "-o", str(tmp_path / "d")) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_broad_anchor_peaks_get_no_spacing_advice(self, tmp_path, capsys):
        # at sigma = 15 meV the anchor Gaussians reach e = 0, where n(n+1)
        # grows as 1/e^2: a finer grid makes the error estimate larger
        assert run("spectral", "--sigma", "15", "-o", str(tmp_path / "broad")) == 2
        err = capsys.readouterr().err
        assert "grows towards e = 0" in err and "refining the energy grid will not help" in err
        assert "spacing <=" not in err

    def test_wide_sigma_names_its_margin(self, tmp_path, capsys):
        # spectral has no grid flag, so the message names what sets the
        # grid's end: the highest anchor mode and 5 sigma
        assert run("spectral", "--sigma", "20", "-o", str(tmp_path / "wide")) == 1
        assert capsys.readouterr().err == (
            "error: grid must cover [0, 260.7] meV, got [0, 250]: the highest center "
            "160.7 meV plus a 5 sigma margin of 100 meV at sigma = 20 meV\n")
        assert list(tmp_path.iterdir()) == []

    def test_missing_channel_is_input_error(self, tmp_path, capsys):
        coupling = tmp_path / "sq_only.csv"
        coupling.write_text(
            "energy_mev,amplitude_mhz,channel,order\n"
            "62.4,0.6,single_quantum,2\n")
        assert run("spectral", "--coupling", str(coupling),
                   "-o", str(tmp_path / "x")) == 1
        assert "double_quantum" in capsys.readouterr().err


    @pytest.mark.parametrize("row, message", [
        ("40.0,1.0,single_quantum,1", "'40.0,1.0,single_quantum,1' is an order-1 coupling"),
        ("50.0,1.0,dephasing,2", "unknown channel 'dephasing'"),
    ], ids=["order-1", "dephasing"])
    def test_a_row_it_cannot_integrate_is_refused_naming_its_line(self, row, message,
                                                                  tmp_path, capsys):
        # spectral integrates the order-2 rows alone; a row it would drop is
        # an input error, not a checksum over rows that never entered a rate
        coupling = tmp_path / "table.csv"
        coupling.write_text("energy_mev,amplitude_mhz,channel,order\n"
                            "62.4,2.0,double_quantum,2\n62.4,0.6,single_quantum,2\n"
                            f"# a comment line is counted\n{row}\n")
        assert run("spectral", "--coupling", str(coupling), "-o", str(tmp_path / "P")) == 1
        err = capsys.readouterr().err
        assert f"'{coupling}': line 5: {message}" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


class TestSimulateCommand:
    def test_noise_free_extraction_is_exact(self, tmp_path):
        prefix = tmp_path / "ideal"
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--noise-free", "-o", str(prefix)) == 0
        report = json.loads((tmp_path / "ideal.report.json").read_text())
        assert report["protocol"]["gamma_branch"]["init"] == "+1"
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

    def test_negative_gamma_estimate_emits_no_dataset_row(self, tmp_path):
        # gamma = 1 1/s sits far below its shot-noise error at 1000 shots
        prefix = tmp_path / "neg"
        assert run("simulate", "--omega", "60", "--gamma", "1", "--shots", "1000",
                   "--seed", "6", "-o", str(prefix)) == 0
        text = (tmp_path / "neg.dataset.csv").read_text()
        assert "# note: negative rate estimate, no dataset row emitted\n" in text
        assert all(line.startswith("#") for line in text.splitlines())
        report = json.loads((tmp_path / "neg.report.json").read_text())
        assert report["estimate"]["gamma_negative"] is True

    def test_zero_rate_is_named_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "0", "--gamma", "5", "--shots", "10",
                   "-o", str(tmp_path / "z")) == 1
        err = capsys.readouterr().err
        assert "expected decay rate 3 Omega is zero" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_negative_seed_is_named_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "60", "--gamma", "128", "--noise-free",
                   "--seed", "-1", "-o", str(tmp_path / "neg")) == 1
        err = capsys.readouterr().err
        assert "seed must be a nonnegative integer, got -1" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_negative_truth_rate_is_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "-5", "--gamma", "128",
                   "--shots", "100", "-o", str(tmp_path / "neg")) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_bad_tau_max_scale_names_the_flag(self, tmp_path, capsys, value):
        assert run("simulate", "--omega", "60", "--gamma", "128", "--shots", "100",
                   "--tau-max-scale", value, "-o", str(tmp_path / "bad")) == 1
        err = capsys.readouterr().err
        assert "--tau-max-scale" in err and "Traceback" not in err

    def test_largest_shot_count_runs(self, tmp_path):
        # the binomial draw takes a C long, so 2**63 - 1 is the largest count
        assert run("simulate", "--omega", "60", "--gamma", "128",
                   "--shots", str(2**63 - 1), "-o", str(tmp_path / "big")) == 0
        report = json.loads((tmp_path / "big.report.json").read_text())
        assert report["protocol"]["shots"] == 2**63 - 1

    def test_overflowing_decay_rate_is_input_error(self, tmp_path, capsys):
        assert run("simulate", "--omega", "1e308", "--gamma", "1e308",
                   "--shots", "100", "-o", str(tmp_path / "huge")) == 1
        assert "expected decay rate 3 Omega must be finite" in capsys.readouterr().err

    def test_capped_exponential_fit_exits_two_and_writes_nothing(self, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.setattr("nvrelax.dynamics._MAX_ITERATIONS", 1)
        assert run("simulate", "--omega", "60", "--gamma", "128", "--shots", "100000",
                   "-o", str(tmp_path / "m")) == 2
        assert "did not converge in 1 iterations" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_decay_beyond_overflow_is_numerical_failure(self, tmp_path, capsys):
        # (Omega + 2 gamma) tau overflows on the 3-Omega branch's long grid
        assert run("simulate", "--omega", "1e-200", "--gamma", "1e200",
                   "--shots", "100", "-o", str(tmp_path / "far")) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestCompareCommand:
    def test_ranking_and_extrapolation(self, tmp_path, builtin_dataset):
        out = tmp_path / "cmp.json"
        assert run("compare", "--models", "n-mode:2", "prior",
                   "--extrapolate", "700", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        ranking = report["ranking"]
        labels = [row["model"] for row in ranking]
        assert labels[0] == "n-mode:2"
        chi2 = [row["chi2_reduced"] for row in ranking]
        assert chi2 == sorted(chi2)
        for row in ranking:
            result = fit(FitProblem(dataset=builtin_dataset, model=ModelSpec.parse(row["model"])))
            assert row["n_params"] == len(result.param_names)
            assert (row["dof"], row["chi2"], row["chi2_reduced"], row["converged"]) == (
                result.dof, result.chi2, result.chi2_reduced, result.converged)
            assert row["delta_chi2_reduced"] == row["chi2_reduced"] - ranking[0]["chi2_reduced"]
        assert list(report["extrapolation"]["divergence_vs_best_pct"]) == labels[1:]
        div = report["extrapolation"]["divergence_vs_best_pct"]["prior"]
        assert 30.0 <= div["A"]["omega_pct"] <= 70.0
        assert 10.0 <= div["A"]["gamma_pct"] <= 30.0

    def test_mode_count_ladder(self, tmp_path, one_mode_fit, two_mode_fit, three_mode_fit,
                               prior_fit):
        # the ranking rows are the fits: chi2, dof and chi2_reduced bit for bit
        out = tmp_path / "ladder.json"
        assert run("compare", "--models", "n-mode:1", "n-mode:2", "n-mode:3", "prior",
                   "-o", str(out)) == 0
        rows = {r["model"]: (r["chi2"], r["dof"], r["chi2_reduced"])
                for r in json.loads(out.read_text())["ranking"]}
        assert rows == {r.label: (r.chi2, r.dof, r.chi2_reduced)
                        for r in (one_mode_fit, two_mode_fit, three_mode_fit, prior_fit)}
        assert 3.4 <= rows["n-mode:1"][2] <= 4.4
        assert 1.1 <= rows["n-mode:2"][2] <= 1.5


class TestFloatRangeTemperatures:
    """Any positive finite temperature is accepted: where a rate overflows the
    run is an input error naming the temperature; where delta / k_B T
    overflows, n = 0 and only the floors are left."""

    @pytest.mark.parametrize("argv, named", [
        (["compare", "--models", "n-mode:1", "prior", "--extrapolate", "1e100"], [1e100]),
        (["compare", "--models", "n-mode:1", "n-mode:2", "--extrapolate", "1e200"], [1e200]),
        (["eval", "--temps", "1e200"], [1e200]),
        # the first temperature of the default grid where n(n+1) overflows
        (["spectral", "--t-max", "1e308"], np.geomspace(100.0, 1e308, 40).tolist()),
        # the rates stay finite to 1e150 K, the refit's Jacobian to ~1e105 K
        (["spectral", "--t-max", "1e150", "--refit"],
         [t for t in np.geomspace(100.0, 1e150, 40).tolist() if t > 1e105]),
    ])
    def test_overflow_names_the_temperature(self, argv, named, published_params_file,
                                            tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        if argv[0] == "eval":
            argv = [*argv, "--params", published_params_file]
        assert run(*argv, "-o", str(out / "x")) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        found = re.search(r"not finite at temperature (\S+) K", err)
        assert found, err
        assert float(found[1]) in named
        assert list(out.iterdir()) == []

    def test_subnormal_temperature_leaves_the_floors(self, published_params_file, tmp_path,
                                                     one_mode_fit, prior_fit):
        out = tmp_path / "eval.csv"
        assert run("eval", "--params", published_params_file, "--sample", "A",
                   "--temps", "1e-320", "-o", str(out)) == 0
        floors = PUBLISHED_PARAMS["parameters"]
        assert data_rows(out.read_text())[0][:3] == [
            "1e-320", repr(floors["a3_A"]), repr(floors["b3_A"])]

        assert run("spectral", "--t-min", "1e-320", "--t-max", "1",
                   "-o", str(tmp_path / "s")) == 0
        assert data_rows((tmp_path / "s.rates.csv").read_text())[0] == ["1e-320", "0.0", "0.0"]

        out = tmp_path / "cmp.json"
        assert run("compare", "--models", "n-mode:1", "prior",
                   "--extrapolate", "1e-320", "-o", str(out)) == 0
        report = json.loads(out.read_text(), parse_constant=pytest.fail)   # no NaN or Infinity
        for result in (one_mode_fit, prior_fit):
            assert report["extrapolation"]["predictions"][result.label] == {
                s: {"omega_s": result.params[f"a3_{s}"], "gamma_s": result.params[f"b3_{s}"]}
                for s in "AB"}

    def test_zero_best_prediction_has_no_divergence(self, tmp_path, capsys):
        # without floors n(n+1) underflows to 0 at 1 K for both laws
        out = tmp_path / "cmp.json"
        assert run("compare", "--models", "n-mode:1", "n-mode:2", "--constants", "none",
                   "--extrapolate", "1", "-o", str(out)) == 1
        err = capsys.readouterr().err
        assert "zero rate at temperature 1.0 K" in err and "Traceback" not in err
        assert not out.exists()


class TestReproducibility:
    def test_identical_config_is_byte_identical(self, tmp_path):
        out = tmp_path / "same.json"
        args = ("fit", "--model", "prior", "-o", str(out))
        assert run(*args) == 0
        first = out.read_bytes()
        assert run(*args) == 0
        assert out.read_bytes() == first

    def test_fit_report_does_not_depend_on_the_seed(self, tmp_path):
        # the fit draws nothing at random; the seed is only recorded
        out = tmp_path / "fit.json"
        reports = []
        for seed in (1, 2):
            assert run("fit", "--seed", str(seed), "-o", str(out)) == 0
            report = json.loads(out.read_text())
            assert report.pop("seed") == seed
            assert f"--seed={seed}" in report.pop("config")
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("framing", [(), ("--constants", "none", "--t-min", "125")])
    def test_fit_config_agrees_with_the_run(self, tmp_path, framing):
        out = tmp_path / "fit.json"
        assert run("fit", "--model", "n-mode:1", *framing, "-o", str(out)) == 0
        report = json.loads(out.read_text())
        options = dict(item.split("=", 1) for item in report["config"].split()[1:])
        assert options["--constants"] == report["dataset"]["constants"]
        if "--t-min" in options:
            assert float(options["--t-min"]) == report["dataset"]["t_min_k"] == 125.0
        else:
            assert report["dataset"]["t_min_k"] is None

    def test_simulate_config_agrees_with_the_run(self, tmp_path):
        prefix = tmp_path / "m"
        assert run("simulate", "--omega", "60", "--gamma", "128", "--noise-free",
                   "-o", str(prefix)) == 0
        report = json.loads(Path(f"{prefix}.report.json").read_text())
        assert "partner" not in report["config"] and "init" not in report["config"]
        protocol = report["protocol"]
        assert list(protocol) == ["shots", "n_tau", "tau_max_scale",
                                  "omega_branch", "gamma_branch"]
        assert protocol["omega_branch"] == {"init": "0", "pair": ["0", "-1"]}
        assert protocol["gamma_branch"] == {"init": "+1", "pair": ["+1", "-1"]}

    def test_stamp_format(self, published_params_file, tmp_path, capsys):
        # byte-identical outputs rest on this exact rendering of the run
        assert run("eval", "--params", published_params_file, "--temps", "300",
                   "--sample", "A") == 0
        checksum = hashlib.sha256(
            Path(published_params_file).read_text().encode("utf-8")).hexdigest()
        assert capsys.readouterr().out.splitlines()[:4] == [
            "# version: nvrelax 0.1.0",
            f"# config: eval --n-temps=20 --params={published_params_file} --sample=A "
            "--seed=1729 --t-max=474.0 --t-min=200.0 --temps=300",
            "# seed: 1729",
            f"# dataset_checksum: {checksum}",
        ]

        out = tmp_path / "compare.json"
        assert run("compare", "--models", "n-mode:1", "prior", "-o", str(out)) == 0
        report = json.loads(out.read_text())
        assert list(report)[:4] == ["version", "config", "seed", "dataset_checksum"]
        assert report["config"] == (
            "compare --constants=per_sample --data=paper-table-s4 --models=n-mode:1,prior "
            f"--output={out} --seed=1729")

        assert run("fit", "--model", "n-mode:1", "-o", str(out)) == 0
        assert json.loads(out.read_text())["config"] == (
            "fit --constants=per_sample --data=paper-table-s4 --model=n-mode:1 "
            f"--output={out} --seed=1729")
        prefix = tmp_path / "spec"
        assert run("spectral", "--sigma", "7.5", "--refit", "--n-temps", "8",
                   "-o", str(prefix)) == 0
        assert " --refit=true " in json.loads(Path(f"{prefix}.refit.json").read_text())["config"]


class TestReadme:
    def test_cli_examples_run(self, tmp_path, monkeypatch):
        text = README.read_text(encoding="utf-8")
        block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
        monkeypatch.chdir(tmp_path)
        assert sum(argv[0] == "nvrelax" for argv in commands) == 6
        for argv in commands:
            if argv[:2] == ["mkdir", "-p"]:
                for name in argv[2:]:
                    Path(name).mkdir(parents=True, exist_ok=True)
            else:
                assert argv[0] == "nvrelax", argv
                assert main(argv[1:]) == 0, argv
