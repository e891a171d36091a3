"""Smoke tests: every shipped example runs end to end.

Examples are executed in-process with small command-line arguments so
the whole set stays fast; each must exit cleanly and print its
signature output.
"""

import os
import runpy
import sys

import pytest

from repro import levelzero, nvml, rocm

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


@pytest.fixture(autouse=True)
def clean(monkeypatch, capsys):
    yield
    nvml.detach_devices()
    rocm.detach_devices()
    levelzero.detach_devices()


def _run_example(monkeypatch, capsys, name, argv=()):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    monkeypatch.setattr(sys, "argv", [path, *argv])
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = _run_example(monkeypatch, capsys, "quickstart")
    assert "ManDyn" in out
    assert "GPU energy saved" in out


def test_subsonic_turbulence(monkeypatch, capsys):
    out = _run_example(
        monkeypatch, capsys, "subsonic_turbulence", ["8", "3"]
    )
    assert "Mach" in out
    assert "GPU energy share per SPH-EXA function" in out


def test_evrard_collapse(monkeypatch, capsys):
    out = _run_example(monkeypatch, capsys, "evrard_collapse", ["800", "5"])
    assert "collapse is underway" in out
    assert "Gravity" in out


def test_sedov_blast(monkeypatch, capsys):
    out = _run_example(monkeypatch, capsys, "sedov_blast", ["8", "4"])
    assert "R_analytic" in out
    out = _run_example(
        monkeypatch, capsys, "sedov_blast", ["8", "4", "--ranks", "2"]
    )
    assert "R_analytic" in out


def test_energy_report(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # the example writes a JSON artifact
    out = _run_example(monkeypatch, capsys, "energy_report")
    assert "sacct output" in out
    assert "pm_counters" in out
    assert (tmp_path / "energy_report.json").exists()


def test_trace_run(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # the example writes trace_run.json
    out = _run_example(monkeypatch, capsys, "trace_run", ["2", "2"])
    assert "Chrome trace written to trace_run.json" in out
    assert "trace vs EnergyReport reconciliation" in out
    assert (tmp_path / "trace_run.json").exists()


def test_examples_directory_complete():
    shipped = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert {
        "quickstart.py",
        "subsonic_turbulence.py",
        "evrard_collapse.py",
        "sedov_blast.py",
        "energy_report.py",
        "tune_frequencies.py",
        "autodyn_two_run.py",
        "trace_run.py",
        "fault_injection.py",
        "campaign_run.py",
    } <= shipped


def test_fault_injection(monkeypatch, capsys):
    out = _run_example(
        monkeypatch, capsys, "fault_injection", ["2", "4", "20240"]
    )
    assert "degraded ranks: [0]" in out
    assert "faults injected" in out
    assert "telemetry faults track" in out


def test_campaign_run(monkeypatch, capsys, tmp_path):
    cdir = str(tmp_path / "fig7")
    out = _run_example(monkeypatch, capsys, "campaign_run", [cdir, "1"])
    assert "7 units: 0 cached (skipped), 7 executed" in out
    assert "EDP ranking (best first): mandyn" in out
    # Second invocation resumes: every unit cached.
    out = _run_example(monkeypatch, capsys, "campaign_run", [cdir, "1"])
    assert "7 cached (skipped), 0 executed" in out
