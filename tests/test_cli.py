import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import leggett_lab
from leggett_lab import cli, correlations, inequality, optimize
from leggett_lab.coherent_algebra import _log_even_series


def test_reproduce_fig5_exits_zero_and_is_byte_identical(tmp_path, capsys):
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
    # SHA-256 prefixes; the unoptimized files as written before the lockstep engine,
    # the optimized ones as written by the closed-form rigid optimum
    pinned = {
        "fig5_minus_opt.csv": "83bfb755875d81ce",
        "fig5_minus_unopt.csv": "f4bea040299b9905",
        "fig5_plus_opt.csv": "5f590c1b18ac2301",
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
        "fig5_minus_opt.csv": "17db2381f0f7a301",
        "fig5_minus_unopt.csv": "b544aca28a77ee6f",
        "fig5_plus_opt.csv": "210e937ca82ab1d6",
        "fig5_plus_unopt.csv": "460c2853f32a8e70",
    }
    argv = ["reproduce", "fig5", "--alpha", "0.4:2:0.4", "--seed", "0", "--output", str(tmp_path)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


def test_reproduce_fig6_csv_is_pinned(tmp_path, capsys):
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


def test_reproduce_fig4_csv_is_pinned(tmp_path, capsys):
    # SHA-256 prefixes of the default fig4 CSV files (closed-form bound, one-point facade);
    # alpha 50 as written once the series sums log((2n)!) without scipy
    pinned = {"fig4_alpha5.csv": "cd4af5b1eb86baaf", "fig4_alpha50.csv": "e3799c381ed3e4fc"}
    assert cli.run(["reproduce", "fig4", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in tmp_path.iterdir()}
    assert got == pinned


@pytest.mark.parametrize(
    "layout, phi, digest",
    [("3p6", "0.2:1.0:0.4", "1b9cb1f6aaabc0c6"), ("3p7", "0.25:1.25:0.5", "c7294c93b82ba647")],
)
def test_singlet_scan_phi_csv_is_pinned(layout, phi, digest, tmp_path, capsys):
    # the singlet bound is the exact pes_fmin
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


def _python(*args, **env_vars):
    """A fresh interpreter with leggett_lab importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leggett_lab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env_vars)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)


def _module_run(module, *args, **env_vars):
    return _python("-m", module, *args, **env_vars)


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


# -- coefficient-family search trajectories ------------------------------------------
# SHA-256 prefixes of what the on/off and parity searches print or write; any change
# to a start, step, seed or bound dispatch of those searches moves them.


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()[:16]


@pytest.mark.parametrize(
    "family, alpha, phi, seed, digest",
    [
        ("on_off", "5", "0.25", 0, "b7cac78b482c1deb"),
        ("on_off", "5", "0.25", 1, "d69d2d139fdd9682"),
        ("on_off", "5", "0.25", 2, "31dea2a7c9d10d9e"),
        ("on_off", "5", "0.5", 0, "d6daf8f90f8b56d2"),
        ("on_off", "5", "0.5", 1, "a4aaba62a77f959c"),
        ("parity", "3", "0.75", 0, "6cd7bca15435687e"),
        ("parity", "3", "0.75", 1, "b1df2765e639b6ed"),
        ("parity", "3", "0.75", 2, "a8c41ada2d6043a3"),
        ("parity", "5", "0.75", 0, "cbf758ae408b7802"),
        ("parity", "5", "0.75", 1, "95d589e3e23494ea"),
    ],
)
def test_coefficient_bound_json_is_pinned(family, alpha, phi, seed, digest):
    argv = ["bound", "--layout", "3p7", "--state", "ecs-", "--family", family, "--alpha", alpha, "--phi", phi]
    rc, out, err = _run(argv + ["--seed", str(seed)])
    assert (rc, err) == (0, "")
    assert _digest(out) == digest


def test_parity_chsh_json_is_pinned():
    argv = ["chsh", "--state", "ecs-", "--family", "parity", "--alpha", "3", "--optimize", "--starts", "8"]
    for seed, digest in ((0, "44aa531b9074e145"), (1, "e0458bd7ee2ccf9f")):
        rc, out, err = _run(argv + ["--seed", str(seed)])
        assert (rc, err) == (0, "")
        assert _digest(out) == digest


def test_on_off_optimized_scan_phi_csv_is_pinned(tmp_path):
    out = tmp_path / "scan.csv"
    argv = ["scan-phi", "--layout", "3p7", "--state", "ecs-", "--family", "on_off", "--alpha", "5",
            "--phi", "0.25:0.75:0.25", "--optimize", "--starts", "16", "--seed", "0", "--output", str(out)]
    rc, _, err = _run(argv)
    assert (rc, err) == (0, "")
    assert _digest(out.read_bytes()) == "23844b3905bf5c91"


def test_independent_rotation_threshold_json_is_pinned():
    argv = ["threshold", "--layout", "3p7", "--state", "ecs-", "--tolerance", "0.01", "--optimize",
            "--independent-rotations", "--starts", "16", "--seed", "0"]
    rc, out, err = _run(argv)
    assert (rc, err) == (0, "")
    assert _digest(out) == "b2041686371f7454"


def test_fig3_fault_command_stops_on_the_named_spread(tmp_path):
    out = tmp_path / "fig3"
    rc, stdout, err = _run(["reproduce", "fig3", "--alpha", "5", "--phi", "0.25", "--seed", "0", "--output", str(out)])
    assert (rc, stdout) == (1, "")
    assert err == "error: top-decile spread 9.713e-04 after 32 starts\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("family", ["on_off", "parity"])
def test_analytic_scan_of_a_searched_family_runs_no_bound_search(family, tmp_path, monkeypatch):
    # the verdict reads the analytic bound; f_min_corrected is left empty
    # rather than searched, so no spread check can stop the scan
    def no_search(*args, **kwargs):
        raise AssertionError("numeric_fmin called")

    monkeypatch.setattr(optimize, "numeric_fmin", no_search)
    out = tmp_path / "scan.csv"
    argv = ["scan-alpha", "--layout", "3p7", "--state", "ecs-", "--family", family, "--phi", "0.25",
            "--alpha", "1:3:1", "--bound", "analytic", "--starts", "8", "--output", str(out)]
    assert _run(argv)[0::2] == (0, "")
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["alpha"] for r in rows] == ["1", "2", "3"]
    assert [r["f_min_corrected"] for r in rows] == ["", "", ""]
    assert all(r["f_min_analytic"] for r in rows)


@pytest.mark.parametrize("state, digest", [("ecs-", "6d3ed5370bb56b75"), ("pes", "f3b845d8a9a19165")])
def test_closed_form_analytic_scan_keeps_f_min_corrected(state, digest, tmp_path):
    # SHA-256 prefixes as written before the searched families stopped filling
    # the column; the singlet and pseudo-spin still fill it from their closed form
    out = tmp_path / "scan.csv"
    argv = ["scan-alpha", "--layout", "3p7", "--state", state, "--phi", "0.25", "--alpha", "1:3:1",
            "--bound", "analytic", "--output", str(out)]
    assert _run(argv)[0::2] == (0, "")
    assert _digest(out.read_bytes()) == digest


def test_pseudospin_sweeps_do_not_search(tmp_path, monkeypatch):
    # the pseudo-spin rigid optimum, bound and CHSH are closed forms
    def no_search(*args, **kwargs):
        raise AssertionError("Nelder-Mead search on a tensor model")

    monkeypatch.setattr(optimize, "_nelder_mead", no_search)
    for argv in (
        ["reproduce", "fig5", "--alpha", "0.8:2.4:0.8", "--output", str(tmp_path)],
        ["threshold", "--layout", "3p7", "--state", "ecs-", "--optimize"],
        ["threshold", "--layout", "3p6", "--state", "ecs-", "--optimize"],
    ):
        rc, _, err = _run(argv + ["--seed", "0"])
        assert (rc, err) == (0, "")


def test_fixed_setting_sweeps_never_call_the_scalar_correlation(tmp_path, monkeypatch):
    # fig4, the four unoptimized thresholds and the optimized ones evaluate L on arrays
    def scalar(*args, **kwargs):
        raise AssertionError("scalar correlation facade reached")

    monkeypatch.setattr(correlations.CorrelationModel, "correlation", scalar)
    thresholds = [
        ["threshold", "--layout", layout, "--state", state, *optimize]
        for optimize in ([], ["--optimize"])
        for layout in ("3p7", "3p6")
        for state in ("ecs-", "ecs+")
    ]
    for argv in [["reproduce", "fig4", "--output", str(tmp_path)]] + thresholds:
        rc, _, err = _run(argv + ["--seed", "0"])
        assert (rc, err) == (0, ""), argv


# -- precedence: the flag, then the built-in default -------------------------------------

# key -> (a command that reads it, flag, from the flag, built-in default); for fmt
# and bound the flag names the built-in default
_FLAG_KEYS = {
    "state": ("chsh", ["--state", "ecs-"], "ecs-", "pes"),
    "family": ("chsh", ["--family", "on_off"], "on_off", "pseudo_spin"),
    "layout": ("bound", ["--layout", "original"], "original", "threeplus6"),
    "alpha": ("chsh", ["--alpha", "3"], "3", ""),
    "phi": ("bound", ["--phi", "0.5"], "0.5", ""),
    "bound": ("threshold", ["--bound", "corrected"], "corrected", "corrected"),
    "optimize": ("chsh", ["--optimize"], True, False),
    "shared": ("threshold", ["--independent-rotations"], False, True),
    "starts": ("chsh", ["--starts", "4"], 4, 32),
    "tolerance": ("threshold", ["--tolerance", "0.1"], 0.1, 1e-3),
    "output": ("chsh", ["--output", "b.json"], "b.json", ""),
    "fmt": ("scan-phi", ["--format", "csv"], "csv", "csv"),
    "svg": ("scan-alpha", ["--svg"], True, False),
}


@pytest.mark.parametrize("key", sorted(_FLAG_KEYS))
def test_flag_sits_over_the_built_in_default(key):
    command, flag, from_flag, default = _FLAG_KEYS[key]
    assert getattr(cli.parse_args([command] + flag), key) == from_flag
    assert getattr(cli.parse_args([command]), key) == default


@pytest.mark.parametrize(
    "flags, values",
    [
        ([], (False, True, False)),
        (["--optimize", "--svg"], (True, True, True)),
        (["--independent-rotations"], (False, False, False)),
    ],
)
def test_store_true_flags_set_their_values(flags, values):
    cfg = cli.parse_args(["scan-phi"] + flags)
    assert (cfg.optimize, cfg.shared, cfg.svg) == values


def test_starts_and_seed_reach_the_search(monkeypatch):
    searches = []
    search = cli.optimize_chsh

    def spy(model, config):
        searches.append(config)
        return search(model, config)

    monkeypatch.setattr(cli, "optimize_chsh", spy)
    argv = ["chsh", "--state", "ecs-", "--family", "parity", "--alpha", "3", "--optimize"]
    assert _run(argv + ["--starts", "8", "--seed", "3"])[0] == 0
    assert _run(argv)[0] == 0
    assert [(c.starts, c.seed) for c in searches] == [(8, 3), (32, 0)]


def test_seed_precedence():
    assert cli.parse_args(["bound"]).seed == 0
    assert cli.parse_args(["bound", "--seed", "3"]).seed == 3


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--colour", "red"], "error: unrecognized arguments: --colour red\n"),
        (["--figure", "fig4"], "error: unrecognized arguments: --figure fig4\n"),
        (["--state", "ecs"], "error: argument --state: invalid choice: 'ecs' (choose from "),
        (["--starts"], "error: argument --starts: expected one argument\n"),
        (["--optimize=ture"], "error: argument --optimize: ignored explicit argument 'ture'\n"),
        (["--optimize=2"], "error: argument --optimize: ignored explicit argument '2'\n"),
        (["--optimize="], "error: argument --optimize: ignored explicit argument ''\n"),
    ],
)
def test_bad_flag_exits_2(flags, message):
    # argparse's quoting of the choices varies across Python versions
    rc, out, err = _run(["chsh"] + flags)
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ") and message in err


def test_flags_leave_later_calls_on_the_built_in_defaults():
    assert cli.parse_args(["scan-phi", "--optimize", "--independent-rotations", "--svg"]).optimize
    cfg = cli.parse_args(["scan-phi", "--seed", "0"])
    assert cfg == cli.RunConfig("scan-phi")


# -- each command takes only the flags it reads ----------------------------------------

# (command, unread flag, its value if it takes one): every flag of another command
# that this one would ignore
_UNREAD = [
    ("scan-phi", "--tolerance", "0.1"),
    ("scan-alpha", "--tolerance", "0.1"),
    ("threshold", "--alpha", "2"),
    ("threshold", "--format", "json"),
    ("threshold", "--svg", None),
    ("chsh", "--layout", "3p7"),
    ("chsh", "--phi", "0.5"),
    ("chsh", "--bound", "analytic"),
    ("chsh", "--independent-rotations", None),
    ("chsh", "--tolerance", "0.1"),
    ("chsh", "--format", "json"),
    ("chsh", "--svg", None),
    ("bound", "--bound", "analytic"),
    ("bound", "--optimize", None),
    ("bound", "--independent-rotations", None),
    ("bound", "--tolerance", "0.1"),
    ("bound", "--format", "json"),
    ("bound", "--svg", None),
    ("reproduce", "--state", "ecs+"),
    ("reproduce", "--family", "parity"),
    ("reproduce", "--layout", "3p6"),
    ("reproduce", "--bound", "analytic"),
    ("reproduce", "--optimize", None),
    ("reproduce", "--tolerance", "0.1"),
    ("reproduce", "--format", "json"),
]

# a value for each flag that takes one, other than its built-in default
_VALUES = {"--state": "ecs-", "--family": "parity", "--layout": "3p7", "--alpha": "2", "--phi": "0.3",
           "--bound": "analytic", "--starts": "4", "--seed": "5", "--tolerance": "0.01", "--output": "x",
           "--format": "json"}


def test_unread_pairs_are_the_flags_missing_from_the_table():
    every = set().union(*cli.FLAGS.values())
    missing = {(command, flag) for command, flags in cli.FLAGS.items() for flag in every - set(flags)}
    assert len(_UNREAD) == len(missing) == 25
    assert {(command, flag) for command, flag, _ in _UNREAD} == missing
    assert sum(len(flags) for flags in cli.FLAGS.values()) == 59


@pytest.mark.parametrize("command, flag, value", _UNREAD)
def test_unread_flag_exits_2(command, flag, value, tmp_path):
    argv = [command] + (["fig3", "--alpha", "5", "--phi", "0.25"] if command == "reproduce" else [])
    argv += ["--seed", "0", "--output", str(tmp_path / "out"), flag] + ([value] if value else [])
    rc, out, err = _run(argv)
    assert (rc, out) == (2, "")
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("figure", ["fig4", "fig6"])
def test_unoptimized_figure_rejects_independent_rotations(figure, tmp_path):
    argv = ["reproduce", figure, "--output", str(tmp_path / "out"), "--independent-rotations"]
    rc, out, err = _run(argv)
    assert (rc, out) == (2, "")
    assert f"argument --independent-rotations: reproduce {figure} never optimizes" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(cli.FLAGS))
def test_config_flag_exits_2(command, tmp_path):
    # argv is the only input: every key a config file could set is a flag
    conf = tmp_path / "run.conf"
    conf.write_text("seed = 5\n")
    argv = [command] + (["fig4"] if command == "reproduce" else [])
    rc, out, err = _run(argv + ["--output", str(tmp_path / "out"), "--config", str(conf)])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ") and "unrecognized arguments: --config" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(cli.FLAGS))
def test_parse_args_takes_every_flag_of_the_table(command):
    argv = [command] + (["fig5"] if command == "reproduce" else [])
    for flag in cli.FLAGS[command]:
        argv += [flag] + ([_VALUES[flag]] if flag in _VALUES else [])
    cfg = cli.parse_args(argv)
    default = cli.RunConfig(command)
    dests = {"--independent-rotations": "shared", "--format": "fmt"}
    expected = {dests.get(flag, flag[2:]) for flag in cli.FLAGS[command]}
    if command == "reproduce":
        expected.add("figure")
    assert {f for f in vars(default) if getattr(cfg, f) != getattr(default, f)} == expected


def test_module_docstring_lists_the_table():
    listed, command = {}, None
    for line in cli.__doc__.splitlines():
        if line[:1].isalpha() and line.split()[0] in cli.FLAGS:
            command = line.split()[0]
            listed[command] = []
        elif command and line.startswith(" " * 12 + "--"):
            listed[command] += line.split()
        else:
            command = None
    assert listed == {command: list(flags) for command, flags in cli.FLAGS.items()}


# -- CLI contract ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["bound", "--no-such-flag"], 2),
        (["bound", "--phi", "4"], 2),
        (["scan-phi", "--format", "svg"], 2),
        (["reproduce", "fig9"], 2),
        (["scan-phi", "--state", "ecs-", "--phi", "0.2"], 2),
        (["chsh", "--state", "ecs-", "--alpha", "inf"], 2),
        (["chsh", "--state", "ecs-", "--alpha", "nan"], 2),
        (["chsh", "--state", "ecs-", "--family", "parity", "--alpha", "3", "--optimize", "--starts", "0"], 2),
        (["bound", "--layout", "3p7", "--state", "ecs-", "--family", "on_off", "--starts", "-4"], 2),
        (["scan-phi", "--state", "pes", "--phi", "0.2", "--starts", "x"], 2),
    ],
)
def test_exit_codes(argv, code):
    rc, out, err = _run(argv)
    assert (rc, out) == (code, "")
    assert err.startswith("usage: ") or err.startswith("error: ")


@pytest.mark.parametrize(
    "command, text",
    [
        (["reproduce", "fig4", "--phi"], "0.5:0.1:0.1"),
        (["scan-phi", "--phi"], "0.5:0.1:0.1"),
        (["scan-alpha", "--alpha"], "2:1:0.5"),
        (["scan-alpha", "--alpha"], "0:1:inf"),  # one nan point without the finiteness check
        (["scan-alpha", "--alpha"], "nan"),  # a single value once wrote "alpha": NaN, which is not JSON
        (["scan-phi", "--phi"], "inf"),
    ],
)
def test_range_without_finite_points_exits_2(command, text, tmp_path):
    out = tmp_path / "out"
    rc, stdout, err = _run(command + [text, "--output", str(out)])
    assert (rc, stdout) == (2, "")
    assert err.startswith("error: range ") and repr(text) in err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf", "1e-16", "1e-300"])
def test_threshold_tolerance_that_bisection_cannot_reach_exits_2(tolerance):
    # in a subprocess with a timeout: each of these values once kept the bisection looping
    res = _module_run("leggett_lab", "threshold", "--layout", "3p6", "--state", "ecs-", "--tolerance", tolerance)
    assert res.returncode == 2 and res.stdout == ""
    assert f"argument --tolerance: must be a finite number of at least 3.552713678800501e-15, got {tolerance!r}" in (
        res.stderr
    )


def test_threshold_alpha_rejects_a_tolerance_it_cannot_reach():
    assert optimize.THRESHOLD_MIN_TOLERANCE == 2.0 * math.ulp(10.0)
    for tolerance in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tolerance must be finite and at least 3.552713678800501e-15"):
            optimize.threshold_alpha(optimize.ScanTask("threeplus6", "pseudo_spin"), tolerance=tolerance)
    # below the floor the bisection once looped forever, so these run in a
    # subprocess with a timeout; the floor itself is reached
    call = ("from leggett_lab import optimize; task = optimize.ScanTask('threeplus6', 'pseudo_spin'); "
            "print(optimize.threshold_alpha(task, tolerance={!r}).bracket)")
    for tolerance in (1e-16, 1e-300):
        res = _python("-c", call.format(tolerance))
        assert res.returncode == 1 and res.stdout == ""
        assert f"ValueError: tolerance must be finite and at least 3.552713678800501e-15, got {tolerance!r}" in res.stderr
    res = _python("-c", call.format(optimize.THRESHOLD_MIN_TOLERANCE))
    assert res.returncode == 0, res.stderr
    lo, hi = ast.literal_eval(res.stdout)
    assert 0.0 < hi - lo <= optimize.THRESHOLD_MIN_TOLERANCE


@pytest.mark.parametrize("alpha", ["1e200", "1e10"])
@pytest.mark.parametrize("command", [["chsh"], ["scan-phi", "--phi", "0.3"], ["bound", "--layout", "3p7"]])
def test_amplitude_above_the_cap_exits_2(command, alpha):
    for family in ("pseudo_spin", "on_off"):
        rc, out, err = _run(command + ["--state", "ecs-", "--family", family, "--alpha", alpha, "--seed", "0"])
        assert (rc, out) == (2, "")
        assert err == f"error: alpha must be positive and at most 100, got {float(alpha)!r}\n"


def test_scan_phi_on_an_ecs_state_names_the_missing_alpha():
    assert _run(["scan-phi", "--state", "ecs+", "--phi", "0.2"]) == (
        2, "", "error: scan-phi with --state ecs+ needs --alpha\n"
    )


@pytest.mark.parametrize("text", ["-1", "1.5"])
@pytest.mark.parametrize("command", sorted(command for command, flags in cli.FLAGS.items() if "--seed" in flags))
def test_seed_below_0_or_not_whole_exits_2(command, text):
    # checked by the parser: numpy's generators reject a negative seed only
    # inside a search, and the closed-form commands draw nothing
    argv = [command] + (["fig4"] if command == "reproduce" else [])
    message = f"must be a whole number of at least 0, got {text!r}\n"
    rc, out, err = _run(argv + ["--seed", text])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ") and err.endswith(f"error: argument --seed: {message}")


@pytest.mark.parametrize("argv", [
    ["scan-phi", "--state", "pes", "--alpha", "2", "--phi", "0.1:1:0.3"],
    ["scan-alpha", "--alpha", "1:2:1"],
])
def test_scan_of_the_original_layout_needs_the_analytic_bound(argv, tmp_path):
    out = tmp_path / "scan.csv"
    argv = argv + ["--output", str(out)]
    message = "error: argument --layout: original has no state-corrected bound; give --bound analytic\n"
    for given in (["--layout", "original"], ["--layout", "original", "--bound", "corrected"]):
        rc, stdout, err = _run(argv + given)
        assert (rc, stdout) == (2, "")
        assert err.startswith("usage: ") and err.endswith(message)
        assert not out.exists()
    assert _run(argv + ["--layout", "original", "--bound", "analytic"])[0] == 0
    assert out.exists()


_LAYOUT_COMMANDS = sorted(command for command, flags in cli.FLAGS.items() if "--layout" in flags)
# a cheap closed-form call of each command that takes --layout
_LAYOUT_CALLS = {
    "bound": ["--state", "pes", "--phi", "0.5"],
    "scan-alpha": ["--state", "pes", "--phi", "0.3", "--alpha", "1:3:1", "--bound", "analytic"],
    "scan-phi": ["--state", "pes", "--phi", "0.1:0.5:0.2", "--bound", "analytic"],
    "threshold": ["--state", "pes", "--tolerance", "0.1"],
}


def _offered_layouts():
    """(command, layout) for every --layout choice that a command's subparser offers."""
    commands = cli._shared_parser()[1]
    for command in _LAYOUT_COMMANDS:
        (action,) = [a for a in commands[command]._actions if a.dest == "layout"]
        yield from ((command, layout) for layout in action.choices)


@pytest.mark.parametrize("command, layout", list(_offered_layouts()))
def test_every_offered_layout_is_answered(command, layout, tmp_path):
    out = tmp_path / "out"
    rc, stdout, err = _run([command, "--layout", layout, "--output", str(out)] + _LAYOUT_CALLS[command])
    assert (rc, err) == (0, "")
    summary = json.loads(stdout)
    assert summary["outputs"] == [str(out)]
    if command == "bound":
        assert summary["f_min_analytic"] is not None
        corrected = cli.LAYOUT_ALIASES[layout] in inequality.STATE_CORRECTED_LAYOUTS
        assert (summary["f_min_corrected"] is not None) == corrected


@pytest.mark.parametrize("command", _LAYOUT_COMMANDS)
def test_the_chsh_settings_are_no_layout(command):
    rc, out, err = _run([command, "--layout", "chsh"] + _LAYOUT_CALLS[command])
    assert (rc, out) == (2, "")
    assert err.startswith("usage: ") and "argument --layout: invalid choice: 'chsh'" in err


def test_threshold_of_the_original_layout_exits_2_at_parse_time(tmp_path):
    out = tmp_path / "threshold.json"
    argv = ["threshold", "--state", "pes", "--output", str(out)]
    rc, stdout, err = _run(argv + ["--layout", "original"])
    assert (rc, stdout) == (2, "")
    assert err.startswith("usage: ") and "argument --layout: invalid choice: 'original'" in err
    assert not out.exists()


# -- one parser per process ----------------------------------------------------------


def test_parser_is_built_once(monkeypatch):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    cli._shared_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert _run(["bound", "--seed", "0"])[0] == 0
    assert calls
    calls.clear()
    for _ in range(2):
        assert _run(["bound", "--seed", "0"])[0] == 0
    assert calls == []


def test_usage_error_leaves_the_parser_intact():
    argv = ["bound", "--layout", "3p7", "--phi", "0.3", "--seed", "0"]
    alone = _module_run("leggett_lab", *argv)
    assert alone.returncode == 0, alone.stderr
    assert _run(["bound", "--no-such-flag"])[0] == 2
    assert _run(argv) == (0, alone.stdout, "")


# every command, all four measurement families, on small grids; fig3 stops on
# its numeric_fmin spread check, the rest exit 0.  scipy is only the tests'
# oracle (the Sobol draw, the Fock displacement), so blocking it changes nothing
_SCIPY_FREE_COMMANDS = [
    ["reproduce", "fig4", "--alpha", "5:50:45", "--phi", "0.1:0.3:0.1", "--output", "fig4"],
    ["reproduce", "fig5", "--alpha", "0.8:1.6:0.8", "--starts", "8", "--output", "fig5"],
    ["reproduce", "fig6", "--alpha", "1", "--phi", "0.2:0.4:0.2", "--starts", "8", "--output", "fig6"],
    ["reproduce", "fig3", "--alpha", "5", "--phi", "0.25", "--output", "fig3"],
    ["threshold", "--layout", "3p7", "--state", "ecs-"],
    ["threshold", "--layout", "3p6", "--state", "ecs+"],
    ["threshold", "--layout", "3p7", "--state", "ecs-", "--optimize"],
    ["threshold", "--layout", "3p6", "--state", "ecs-", "--optimize"],
    ["scan-phi", "--state", "pes", "--phi", "0.2:0.6:0.2", "--output", "scan_phi.csv"],
    ["scan-phi", "--state", "pes", "--phi", "0.2:0.6:0.2", "--format", "json", "--svg", "--output", "scan_phi.json"],
    ["scan-alpha", "--optimize", "--alpha", "0.5:2:0.5", "--output", "scan_alpha.csv"],
    ["scan-alpha", "--family", "on_off", "--phi", "1.0", "--alpha", "3:5:2", "--starts", "8",
     "--output", "scan_alpha_on_off.csv"],
    ["bound", "--state", "pes", "--layout", "3p7", "--phi", "0.3"],
    ["bound", "--state", "ecs-", "--alpha", "2", "--phi", "0.5"],
    # parity at alpha 3, where the tests compare the elements with the Fock oracle
    ["bound", "--layout", "3p7", "--state", "ecs-", "--family", "parity", "--alpha", "3", "--phi", "0.75"],
    ["chsh", "--state", "pes"],
    ["chsh", "--state", "ecs+", "--alpha", "2"],
    ["chsh", "--state", "ecs+", "--alpha", "2", "--optimize"],
    ["chsh", "--state", "ecs+", "--family", "on_off", "--alpha", "1", "--optimize", "--starts", "8"],
    ["--help"],
]

_RUN_ALL = """
import contextlib, importlib.abc, io, json, os, sys

class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

out_dir, block, commands = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
if block:
    sys.meta_path.insert(0, BlockScipy())
os.chdir(out_dir)
from leggett_lab import cli

runs = []
for argv in commands:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # --help
            rc = exc.code
    runs.append([rc, out.getvalue(), err.getvalue()])
files = {}
for root, _, names in os.walk("."):
    for name in names:
        with open(os.path.join(root, name), "rb") as fh:
            files[os.path.join(root, name)] = fh.read().hex()
print(json.dumps({"runs": runs, "files": files, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


@pytest.fixture(scope="module")
def scipy_blocked_and_free_runs(tmp_path_factory):
    """Every command of _SCIPY_FREE_COMMANDS in one interpreter with scipy
    blocked and in one with it importable: (blocked, free)."""
    results = []
    for block in ("1", "0"):
        out = tmp_path_factory.mktemp(f"scipy-block-{block}")
        res = _python("-c", _RUN_ALL, str(out), block, json.dumps(_SCIPY_FREE_COMMANDS))
        assert res.returncode == 0, res.stderr
        results.append(json.loads(res.stdout))
    return results


def test_every_command_runs_without_scipy(scipy_blocked_and_free_runs):
    blocked, free = scipy_blocked_and_free_runs
    fig3 = next(i for i, argv in enumerate(_SCIPY_FREE_COMMANDS) if argv[:2] == ["reproduce", "fig3"])
    assert [rc for rc, _, _ in blocked["runs"]] == [1 if i == fig3 else 0 for i in range(len(_SCIPY_FREE_COMMANDS))]
    assert blocked["runs"][fig3][2] == "error: top-decile spread 9.713e-04 after 32 starts\n"
    assert blocked["runs"][-1][1].startswith("usage: leggett-lab")
    # fig4 at two amplitudes, fig5, fig6, three CSV scans, and one JSON scan with its SVG
    assert len(blocked["files"]) == 2 + 4 + 2 + 3 + 2
    assert blocked == free  # same exit codes, stdout, stderr and files


def test_no_command_loads_scipy(scipy_blocked_and_free_runs):
    # the on/off and parity commands too: the Sobol starts are numpy code and
    # the operator elements a closed form
    _, free = scipy_blocked_and_free_runs
    assert free["scipy"] == []


def test_python_m_help_exits_zero():
    res = _module_run("leggett_lab", "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage: leggett-lab")


_TINY_FIGURES = [
    ["reproduce", "fig4", "--alpha", "5", "--phi", "0.1:0.3:0.1"],
    ["reproduce", "fig5", "--alpha", "0.8:1.6:0.8", "--starts", "8"],
    ["reproduce", "fig6", "--alpha", "1", "--phi", "0.2:0.4:0.2", "--starts", "8"],
]


def test_figures_do_not_depend_on_the_hash_seed(tmp_path):
    written = []
    for hash_seed in ("1", "2"):
        files = {}
        for k, argv in enumerate(_TINY_FIGURES):
            out = tmp_path / hash_seed / str(k)
            res = _module_run("leggett_lab", *argv, "--seed", "0", "--output", str(out), PYTHONHASHSEED=hash_seed)
            assert res.returncode == 0, res.stderr
            files.update({f"{k}/{p.name}": p.read_bytes() for p in out.iterdir()})
        written.append(files)
    assert len(written[0]) == 1 + 4 + 2
    assert written[0] == written[1]


# -- grid size -------------------------------------------------------------------------


def test_parse_range_rejects_a_grid_above_the_limit():
    limit = cli.MAX_RANGE_POINTS
    assert len(cli.parse_range(f"0:{limit - 1}:1")) == limit
    assert len(cli.parse_range(f"0:{limit - 0.6}:1")) == limit
    for text in (f"0:{limit}:1", f"0:{limit - 0.4}:1", "0:1:1e-9", "-1e308:1e308:1"):
        with pytest.raises(ValueError, match=f"more than {limit} points"):
            cli.parse_range(text)


def test_scan_phi_over_a_huge_range_exits_2(tmp_path):
    out = tmp_path / "scan.csv"
    rc, stdout, err = _run(["scan-phi", "--phi", "0:1:1e-9", "--output", str(out)])
    assert (rc, stdout) == (2, "")
    assert err == "error: range '0:1:1e-9' has more than 10000 points\n"
    assert not out.exists()
