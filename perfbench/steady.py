#!/usr/bin/env python3
"""Steadiness self-check: two sets of runs of every workload, compared.

    python3 perfbench/steady.py

Run from the root of a checkout.  Each set runs every workload in
BENCHMARK.json once per seed 1..10 (the same seeds in both sets), for
BENCHMARK.json's run_seconds, through perfbench/run.py with --trace 0.  For
every end-to-end metric it prints both sets' medians and quartiles, each
set's spread (interquartile range over median), how much the second median
is worse than the first, and the metric's bound from BENCHMARK.json.  It
exits 1 if a run fails or is incorrect, if the failed share of operations
differs between the sets, if a spread exceeds its bound, or if a second
median is worse by more than the bound.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)  # the same in both sets


def run_set(workload, seconds):
    values, attempted, failed = {}, 0, 0
    for seed in SEEDS:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit(f"steady.py: {workload} seed {seed} exited with {out.returncode}")
        result = json.loads(out.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"steady.py: {workload} seed {seed} is incorrect")
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, failed / attempted


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        first, failed1 = run_set(workload, seconds)
        second, failed2 = run_set(workload, seconds)
        print(f"\n{workload}: {len(SEEDS)} runs per set, {seconds} s each; "
              f"failed share {failed1:.6g} / {failed2:.6g}")
        print(f"{'metric':22} {'median 1':>12} {'q1..q3 (set 1)':>25} {'median 2':>12} "
              f"{'q1..q3 (set 2)':>25} {'spread 1':>9} {'spread 2':>9} {'worse':>7} {'bound':>6}")
        ok &= failed1 == failed2
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            q1, q2 = (statistics.quantiles(s[name], n=4) for s in (first, second))
            m1, m2 = statistics.median(first[name]), statistics.median(second[name])
            spreads = [(q[2] - q[0]) / m for q, m in ((q1, m1), (q2, m2))]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            verdict = "ok" if max(spreads) <= bound and worse <= bound else "FAIL"
            ok &= verdict == "ok"
            print(f"{name:22} {m1:12.6g} {q1[0]:12.6g}..{q1[2]:<12.6g} {m2:12.6g} "
                  f"{q2[0]:12.6g}..{q2[2]:<12.6g} {spreads[0]:9.4f} {spreads[1]:9.4f} "
                  f"{worse:7.4f} {bound:6.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
