"""Benchmark of the leggett-lab figure sweeps.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs the workload's commands (see ``workloads.py``) one at a time through
``leggett_lab.cli.run`` in this process: one warm-up round, then whole
rounds until ``--seconds`` have passed.  Every output, the warm-up round's
too, is checked against ``checks.py``.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (median
time, over fresh processes started evenly between the rounds, from process
start until leggett_lab is imported and the first argv parsed),
``points_per_s`` (median over the timed rounds of answers per second of
command wall time) and ``peak_rss_mb``.  With ``--trace 1`` the run, after
its warm-up round, alternates untraced rounds with rounds that have spans
around every layer (``tracing.py``), and reports per-round calls, self time
and counters per layer, plus the tracing overhead between the two.
Run from the root of the repository; it exits 2 when ``src/leggett_lab`` is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
FAULT_MESSAGE = "top-decile spread"  # ConvergenceError of numeric_fmin

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_probe(first_argv) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    leggett_lab and parsed the workload's first argv."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), *first_argv],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return t1 - t0


def median_rate(rounds) -> float:
    """Median over rounds of answers per second of command wall time."""
    return statistics.median(answers / spent for spent, answers in rounds)


class Runner:
    """Runs and checks rounds of one workload, accumulating counts."""

    def __init__(self, workload: str, seed: int, work: str):
        from leggett_lab import cli  # after main() has put src/ on sys.path
        import checks

        self.cli, self.checks = cli, checks
        self.workload, self.seed = workload, seed
        self.ops = workloads.build(workload, seed, work)
        self.attempted = self.failed = 0
        self.rounds: list[tuple[float, int]] = []  # (command seconds, answers) per round
        self.problems: list[str] = []
        self.fault_flips: set[str] = set()  # commands whose fault stop differs from Op.fault
        self._first_output: dict[int, tuple] = {}

    def warm_up(self) -> None:
        """One checked round whose time is left out of the timed rounds: it
        pays first-use costs such as the Fock certification of
        ``operator_elements``."""
        self.round()
        self.rounds.clear()

    def round(self) -> None:
        """Run and check every command once."""
        spent, answered = 0.0, 0
        for k, op in enumerate(self.ops):
            if op.out:
                shutil.rmtree(op.out, ignore_errors=True)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.run(list(op.argv))
            spent += time.perf_counter() - t0
            self.attempted += 1
            fault = rc == 1 and FAULT_MESSAGE in err.getvalue()
            if fault != op.fault:
                self.fault_flips.add(f"{op.label}: {'stopped' if fault else 'not stopped'} on the named fault")
            if rc != 0:
                self.failed += 1
                if not fault:
                    self.problems.append(f"{op.label}: exit {rc}: {err.getvalue().strip()}")
                continue
            problems, answers = self._check(k, op, out.getvalue())
            if problems:
                self.failed += 1
                self.problems += [f"{op.label}: {p}" for p in problems]
            else:
                answered += answers
        self.rounds.append((spent, answered))

    def _check(self, k: int, op, stdout: str):
        import numpy as np

        c = self.checks
        summary = json.loads(stdout)
        rng = np.random.default_rng([self.seed, k])  # same hidden pairs every round
        p = op.params
        if op.kind == "fig4":
            problems, answers = c.check_fig4(op.out, summary["rows"], rng)
        elif op.kind == "fig5":
            problems, answers = c.check_fig5(op.out, summary["rows"], p["n_alpha"], rng)
        elif op.kind == "fig3":
            problems, answers = c.check_fig3(os.path.join(op.out, "fig3_alpha5.csv"), p["alpha"], p["phi"])
        elif op.kind == "threshold":
            problems = c.check_threshold(summary, p["layout"], p["sign"], p["phi"], p["tolerance"], p["optimized"])
            answers = 1
        elif op.kind == "chsh":
            problems, answers = c.check_chsh(summary, p["family"], p["alpha"], p["sign"]), 1
        else:
            problems = c.check_bound(summary, p["family"], p["alpha"], "threeplus7", p["phi"], rng)
            answers = 1
        written = [stdout]
        for path in summary["outputs"]:
            with open(path, "rb") as fh:
                written.append(fh.read())
        if self._first_output.setdefault(k, tuple(written)) != tuple(written):
            problems.append("output differs from the first run of the same command")
        return problems, answers

    def run_for(self, seconds: float, before_round=None) -> int:
        """Whole rounds until their wall time, checks included, reaches
        `seconds`; `before_round(elapsed)` runs ahead of each, untimed."""
        rounds, elapsed = 0, 0.0
        while rounds == 0 or elapsed < seconds:
            if before_round is not None:
                before_round(elapsed)
            t0 = time.perf_counter()
            self.round()
            elapsed += time.perf_counter() - t0
            rounds += 1
        return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "leggett_lab")):
        print(f"error: {SRC}/leggett_lab not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        if args.trace:
            metrics, units = traced_metrics(runner, args)
        else:
            metrics, units = end_to_end_metrics(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for flip in sorted(runner.fault_flips):
        print(f"unexpected: {flip}", file=sys.stderr)
    correct = not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end_metrics(runner: Runner, args):
    """Untraced rounds, with the set-up probes spread evenly between them."""
    first_argv = runner.ops[0].argv
    probes = []

    def probe_when_due(elapsed):
        while len(probes) < SETUP_PROBES and len(probes) <= SETUP_PROBES * elapsed / args.seconds:
            probes.append(setup_probe(first_argv))

    runner.warm_up()
    rounds = runner.run_for(args.seconds, probe_when_due)
    probe_when_due(args.seconds)
    metrics = {
        "setup_s": statistics.median(probes),
        "points_per_s": median_rate(runner.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"warm-up + {rounds} rounds, {sum(t for t, _ in runner.rounds):.3f} s in commands", file=sys.stderr)
    return metrics, {"setup_s": "s", "points_per_s": "1/s", "peak_rss_mb": "MB"}


def traced_metrics(runner: Runner, args):
    """After the warm-up round, pairs of one untraced and one traced round
    until the pairs have taken ``--seconds``.  The overhead is the median
    over pairs, so that a drift of the host's speed falls on both halves."""
    import tracing

    runner.warm_up()
    tracer = tracing.Tracer()
    pairs, elapsed = [], 0.0
    while not pairs or elapsed < args.seconds:
        t0 = time.perf_counter()
        runner.round()
        tracer.install()
        try:
            runner.round()
        finally:
            tracer.uninstall()
        elapsed += time.perf_counter() - t0
        pairs.append((median_rate(runner.rounds[-2:-1]), median_rate(runner.rounds[-1:])))
    metrics = tracer.layer_metrics(len(pairs))
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(u / t for u, t in pairs) - 1.0)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    print(f"warm-up + {len(pairs)} pairs of untraced and traced rounds, {len(tracer.start)} spans", file=sys.stderr)
    return metrics, tracing.per_layer_units()


if __name__ == "__main__":
    sys.exit(main())
