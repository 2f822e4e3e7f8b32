import hashlib
import json
import os
import subprocess
import sys

import pytest

import leggett_lab
from leggett_lab import cli
from leggett_lab.coherent_algebra import _log_even_series


def test_reproduce_fig5_exits_zero_and_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LEGGETT_LAB_SEED", raising=False)
    argv = ["reproduce", "fig5", "--alpha", "0.4:1.2:0.4", "--starts", "8"]
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        assert cli.run(argv + ["--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 12
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == [
        "fig5_minus_opt.csv",
        "fig5_minus_unopt.csv",
        "fig5_plus_opt.csv",
        "fig5_plus_unopt.csv",
    ]
    for data in runs[0].values():
        assert len(data.decode().splitlines()) == 4  # header and three alpha rows
    assert runs[0] == runs[1]


def test_reproduce_fig5_csv_is_pinned(tmp_path, capsys):
    # SHA-256 prefixes of the CSV files written before the lockstep engine
    pinned = {
        "fig5_minus_opt.csv": "9e004282a2b5a475",
        "fig5_minus_unopt.csv": "f4bea040299b9905",
        "fig5_plus_opt.csv": "c9a271bf321974f5",
        "fig5_plus_unopt.csv": "7d13f41c4d6cedda",
    }
    argv = ["reproduce", "fig5", "--alpha", "0.4:1.2:0.4", "--starts", "8", "--seed", "0", "--output", str(tmp_path)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


def test_reproduce_fig5_default_starts_csv_is_pinned(tmp_path, capsys):
    # five amplitudes at the default 32 starts: optimized L and chsh_B included
    pinned = {
        "fig5_minus_opt.csv": "8a9cd5b5548c1859",
        "fig5_minus_unopt.csv": "b544aca28a77ee6f",
        "fig5_plus_opt.csv": "21cc6a178d95f5e8",
        "fig5_plus_unopt.csv": "460c2853f32a8e70",
    }
    argv = ["reproduce", "fig5", "--alpha", "0.4:2:0.4", "--seed", "0", "--output", str(tmp_path)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


def test_reproduce_fig6_csv_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LEGGETT_LAB_SEED", raising=False)
    pinned = {
        "fig6_alphascan.csv": "441d72c8a624a09a",
        "fig6_phiscan_alpha1.csv": "0e50404475df602d",
        "fig6_phiscan_alpha2.csv": "56227302f39be6ae",
        "fig6_phiscan_alpha3.csv": "4d77f11d90a0de5d",
    }
    argv = ["reproduce", "fig6", "--alpha", "1:3:1", "--phi", "0.2:0.6:0.2", "--starts", "16"]
    assert cli.run(argv + ["--output", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


def test_reproduce_fig4_csv_is_pinned(tmp_path, capsys, monkeypatch):
    # SHA-256 prefixes of the default fig4 CSV files (closed-form bound, one-point facade)
    monkeypatch.delenv("LEGGETT_LAB_SEED", raising=False)
    pinned = {"fig4_alpha5.csv": "cd4af5b1eb86baaf", "fig4_alpha50.csv": "2e915355b00e61c6"}
    assert cli.run(["reproduce", "fig4", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


@pytest.mark.parametrize(
    "layout, phi, digest",
    [("3p6", "0.2:1.0:0.4", "1b9cb1f6aaabc0c6"), ("3p7", "0.25:1.25:0.5", "c7294c93b82ba647")],
)
def test_singlet_scan_phi_csv_is_pinned(layout, phi, digest, tmp_path, capsys, monkeypatch):
    # the singlet bound is the exact pes_fmin
    monkeypatch.delenv("LEGGETT_LAB_SEED", raising=False)
    out = tmp_path / "scan.csv"
    argv = ["scan-phi", "--state", "pes", "--layout", layout, "--phi", phi, "--starts", "8", "--seed", "0"]
    assert cli.run(argv + ["--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_optimized_threshold_is_pinned(capsys):
    argv = ["threshold", "--layout", "3p6", "--state", "ecs-", "--optimize", "--seed", "1"]
    assert cli.run(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "threshold"
    assert summary["alpha_star"] == 1.820166015625
    assert summary["bracket"] == [1.819856770833333, 1.8204752604166665]
    assert summary["evaluations"] == 27


def test_optimized_threshold_threeplus7_is_pinned(capsys):
    argv = ["threshold", "--layout", "3p7", "--state", "ecs-", "--optimize", "--seed", "1"]
    assert cli.run(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] == "threshold"
    assert summary["alpha_star"] == 2.656982421875
    assert summary["bracket"] == [2.6566731770833334, 2.6572916666666666]
    assert summary["evaluations"] == 27


def test_fig4_sums_the_series_once_per_amplitude(tmp_path, capsys):
    _log_even_series.cache_clear()
    assert cli.run(["reproduce", "fig4", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _log_even_series.cache_info().misses == 2  # alpha 5 and 50


def _module_run(module, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(leggett_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("LEGGETT_LAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("module", ["leggett_lab", "leggett_lab.cli"])
def test_python_m_runs_the_cli(module):
    res = _module_run(module, "bound", "--layout", "3p6", "--state", "ecs-", "--alpha", "2", "--phi", "0.5")
    assert res.returncode == 0, res.stderr
    summary = json.loads(res.stdout)
    assert summary["command"] == "bound"
    assert summary["f_min_corrected"] > 0.0
    res = _module_run(module, "bound", "--no-such-flag")
    assert res.returncode == 2
    assert "unrecognized arguments" in res.stderr
