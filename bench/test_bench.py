"""Toy-size tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = compare.load_benchmark()


def _bench_run(workload, trace, cwd=ROOT, seconds="0.1"):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", seconds, "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == ["setup_s", "points_per_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == tracing.per_layer_units()
    every = names + [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(every) == len(set(every))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in every)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert max(m["bound"] for m in BENCH["end_to_end"]) == BENCH["end_to_end"][0]["bound"]


def test_workload_seed_reaches_every_command_but_the_fault_one():
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 7, "w"):
            seed = op.argv[list(op.argv).index("--seed") + 1]
            assert seed == (str(workloads.FAULT_SEED) if op.fault else "7"), op.label
    assert sum(op.fault for op in workloads.build("coefficient_search", 7, "w")) == 1


def test_checks_do_not_import_the_program():
    code = "import sys; sys.path.insert(0, 'bench'); import checks; print('leggett_lab' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_reference_series_at_large_alpha():
    # explicit summation reaches the peak term that mpmath's nsum stops short of
    assert 0.9998 < checks.kappa_ref(50.0) < 1.0
    assert checks.kappa_ref(5.0) == pytest.approx(0.98984056233565, abs=1e-12)
    mx, _, mz = checks.bloch_ref(0.5)
    assert mz == pytest.approx(-math.exp(-0.5)) and 0.0 < mx < 1.0
    assert checks.chsh_ref(50.0, -1) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-3)


def test_threshold_check_rejects_a_shifted_root():
    phi = workloads.THRESHOLD_PHI["3p6"][1]
    root = checks.threshold_root("threeplus6", -1, phi)
    good = {"verdict": "threshold", "alpha_star": root, "bracket": [root - 4e-4, root + 4e-4]}
    assert checks.check_threshold(good, "threeplus6", -1, phi, 1e-3, False) == []
    bad = dict(good, alpha_star=root + 0.01, bracket=[root + 0.0096, root + 0.0104])
    assert checks.check_threshold(bad, "threeplus6", -1, phi, 1e-3, False)
    assert checks.check_threshold(bad, "threeplus6", -1, phi, 1e-3, True)
    assert checks.check_threshold(dict(good, alpha_star=root - 0.5, bracket=[root - 0.5004, root - 0.4996]),
                                  "threeplus6", -1, phi, 1e-3, True) == []


def test_chsh_and_bound_checks_reject_wrong_values():
    settings = [[0.3, 0.1], [1.2, -0.4], [2.0, 0.7], [0.9, 2.2]]
    E = lambda a, b: checks.coefficient_correlation("parity", 3.0, -1, a, b)  # noqa: E731
    B = E(settings[0], settings[2]) + E(settings[0], settings[3]) + E(settings[1], settings[2]) - E(settings[1], settings[3])
    summary = {"B": B, "violated": B > 2.0, "settings": settings}
    assert checks.check_chsh(summary, "parity", 3.0, -1) == []
    assert checks.check_chsh(dict(summary, B=B + 1e-6), "parity", 3.0, -1)
    rng = np.random.default_rng(0)
    bound = {"f_min_corrected": 5.0, "f_direct": 5.0, "f_triangle": 0.0, "f_min_analytic": math.sin(0.125)}
    problems = checks.check_bound(bound, "on_off", 3.0, "threeplus7", 0.25, rng)
    assert any("above sampled objective" in p for p in problems)


def test_fig4_check_passes_program_output_and_catches_a_changed_cell(tmp_path):
    from leggett_lab import cli

    out = str(tmp_path / "fig4")
    with redirect_stdout(io.StringIO()) as buf:
        assert cli.run(["reproduce", "fig4", "--output", out]) == 0
    rows = json.loads(buf.getvalue())["rows"]
    problems, answers = checks.check_fig4(out, rows, np.random.default_rng(1))
    assert problems == [] and answers == 100
    path = os.path.join(out, "fig4_alpha5.csv")
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    table[7][3] = repr(float(table[7][3]) + 1e-6)  # the L column
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)
    problems, _ = checks.check_fig4(out, rows, np.random.default_rng(1))
    assert any("row 6 L" in p for p in problems)


def test_tracer_wraps_every_name_and_restores_them():
    from leggett_lab import cli, correlations, inequality, optimize

    original = optimize.numeric_fmin
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert inequality._numeric_fmin_impl is optimize.numeric_fmin is not original
        assert cli.numeric_fmin is optimize.numeric_fmin
        assert cli.scan is optimize.scan
        assert correlations.CorrelationModel.correlation.__wrapped_original__
        with redirect_stdout(io.StringIO()):
            rc = cli.run(["threshold", "--layout", "3p6", "--state", "ecs-", "--tolerance", "0.1"])
        assert rc == 0
    finally:
        tracer.uninstall()
    assert optimize.numeric_fmin is original and inequality._numeric_fmin_impl is original
    m = tracer.layer_metrics(rounds=1)
    assert m["optimize.threshold_alpha.calls"] == 1
    assert m["optimize.numeric_fmin.calls"] == m["optimize.threshold_alpha.margin_evals"] > 0
    assert m["inequality.leggett_bound.calls"] == m["optimize.numeric_fmin.calls"]
    assert all(m[f"{n}.self_s"] >= 0.0 for n in tracing.SPANS)
    total = tracer.end[0] - tracer.start[0]
    assert sum(m[f"{n}.self_s"] for n in tracing.SPANS) == pytest.approx(total)


def test_run_prints_every_metric_by_name():
    for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        proc = _bench_run("closed_form", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] % 5 == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench_run("closed_form", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_sets_flags_a_slower_second_set_and_a_changed_failure_share():
    def runs(points, failed=0):
        return [{"correct": True, "attempted": 11, "failed": failed,
                 "metrics": {"setup_s": {"value": 1.0 + 0.01 * k}, "points_per_s": {"value": points + 0.001 * k},
                             "peak_rss_mb": {"value": 100.0}}} for k in range(10)]

    spec = BENCH["end_to_end"]
    assert compare.compare_sets(spec, runs(1.0), runs(1.0))[1] == []
    assert any("points_per_s" in r for r in compare.compare_sets(spec, runs(1.0), runs(0.5))[1])
    assert any("failed shares" in r for r in compare.compare_sets(spec, runs(1.0, 2), runs(1.0, 3))[1])
