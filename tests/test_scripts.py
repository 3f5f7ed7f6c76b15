"""Smoke runs of the research scripts in scripts/, in-process with small inputs."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, argv, header", [
    ("protocol_calibration.py", ["--n-seeds", "3"], "|pull|<=1"),
    ("raman_bias_experiment.py", ["--sigmas", "7.5"], "delta_1"),
], ids=["protocol_calibration", "raman_bias_experiment"])
def test_script_main_prints_its_table(script, argv, header, monkeypatch, capsys):
    path = SCRIPTS / script
    main = runpy.run_path(str(path))["main"]
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    assert main() is None
    assert header in capsys.readouterr().out


def test_protocol_calibration_has_no_fidelity_flag(monkeypatch, capsys):
    # shots is the one noise knob: a lower readout fidelity is a lower --shots
    path = SCRIPTS / "protocol_calibration.py"
    main = runpy.run_path(str(path))["main"]
    monkeypatch.setattr(sys, "argv", [str(path), "--n-seeds", "3", "--fidelity", "0.8"])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --fidelity 0.8" in captured.err
    assert captured.out == ""
