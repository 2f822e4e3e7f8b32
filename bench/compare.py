"""Run two sets of benchmark runs of the same code and say whether they agree.

    python3 bench/compare.py [--out PATH]

Each set runs ``BENCHMARK.json``'s command once per seed on every workload
(set 1 on seeds 1..10, set 2 on seeds 101..110), untraced, for its
``run_seconds``.  For every end-to-end metric it reports each set's median
and the spread (distance between the first and third quartile, as a share
of the median).  The sets agree when every spread is within the metric's
bound, no second median is worse than the first by more than the bound,
every run is correct, and every run fails the same share of operations:
each command either stops on the named fault in every run or passes in
every run, so a share that differs means a command flipped.  Results go to
``bench/out/compare.json``; the exit code is 0 when the sets agree and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SET_SEEDS = (1, 101)
RUNS = 10  # runs per set and workload


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare_sets(metrics_spec, first: list[dict], second: list[dict]) -> tuple[list[dict], list[str]]:
    """Rows of per-metric statistics, and the reasons the sets disagree."""
    rows, reasons = [], []
    for spec in metrics_spec:
        name, bound = spec["name"], spec["bound"]
        a = [r["metrics"][name]["value"] for r in first]
        b = [r["metrics"][name]["value"] for r in second]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
        row = {"metric": name, "median_1": ma, "median_2": mb, "spread_1": spread(a), "spread_2": spread(b),
               "worse_2": worse, "bound": bound}
        rows.append(row)
        for k in (1, 2):
            if row[f"spread_{k}"] > bound:
                reasons.append(f"{name}: spread of set {k} {row[f'spread_{k}']:.4f} > bound {bound}")
        if worse > bound:
            reasons.append(f"{name}: second median worse by {worse:.4f} > bound {bound}")
    shares = []
    for runs in (first, second):
        shares.append({Fraction(r["failed"], r["attempted"]) for r in runs})
    if len(shares[0] | shares[1]) != 1:
        reasons.append(f"failed shares differ: {sorted(map(str, shares[0] | shares[1]))}")
    if not all(r["correct"] for r in first + second):
        reasons.append("a run reported incorrect output")
    return rows, reasons


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description="two sets of benchmark runs, compared against the bounds")
    p.add_argument("--out", default=os.path.join(HERE, "out", "compare.json"))
    args = p.parse_args(argv)

    report, agree = {}, True
    for workload in names:
        sets = []
        for base in SET_SEEDS:
            runs = []
            for seed in range(base, base + RUNS):
                runs.append(run_once(bench, workload, seed))
                m = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
                print(f"{workload} seed {seed}: {m} failed {runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
            sets.append(runs)
        rows, reasons = compare_sets(bench["end_to_end"], *sets)
        agree = agree and not reasons
        report[workload] = {"rows": rows, "reasons": reasons, "runs": sets}
        for row in rows:
            print(f"  {row['metric']:>14}: median {row['median_1']:.6g} / {row['median_2']:.6g}, "
                  f"spread {row['spread_1']:.4f} / {row['spread_2']:.4f}, "
                  f"second worse by {row['worse_2']:+.4f}, bound {row['bound']}")
        print(f"  {workload}: {'agree' if not reasons else 'DISAGREE: ' + '; '.join(reasons)}", flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print("sets agree within bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
