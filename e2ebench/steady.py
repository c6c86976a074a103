#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

Runs every workload of BENCHMARK.json for its run_seconds in two
interleaved sets (A, B, A, B, ...) through the benchmark's own command:
set A with seeds 1..5, set B with seeds 6..10, so that every run has its
own seed. For each workload
and end-to-end metric it prints each set's median and quartiles, and the
spread of all ten runs together, and exits non-zero, naming the metric and
the workload, when
  * the two sets' medians differ by more than the metric's bound, or
  * a set's quartile spread, (q3 - q1) / median, exceeds the bound
    (setup_s is exempt from this one), or
  * the share of failed operations differs between the sets.

Usage (from the repository root):
  python3 e2ebench/steady.py
"""

import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
RUNS = 5  # runs per set and workload


def run_once(spec, workload, seed, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit(f"FAIL: {workload} seed {seed} exited {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(out.stdout)
        sys.exit(f"FAIL: {workload} seed {seed}: outputs incorrect")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    # results[workload][set] -> list of result objects
    results = {w: ([], []) for w in workloads}
    start = time.time()
    for i in range(RUNS):
        for which in (0, 1):
            for w in workloads:
                r = run_once(spec, w, i + 1 + which * RUNS, seconds)
                results[w][which].append(r)
                print(f"# run {i + 1} set {'AB'[which]} {w}: "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in sorted(r["metrics"].items())),
                      flush=True)

    failures = []
    print(f"\n{'workload':<14} {'metric':<12} {'set':<3} {'q1':>11} "
          f"{'median':>11} {'q3':>11} {'spread':>8} {'bound':>6}")
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        if shares[0] != shares[1]:
            failures.append(f"{w}: failed share {shares[0]} vs {shares[1]}")
        for metric in sorted(sets[0][0]["metrics"]):
            bound = bounds[metric]
            medians = []
            for which, s in enumerate(sets):
                q1, med, q3, spread = summary(
                    [r["metrics"][metric]["value"] for r in s])
                medians.append(med)
                print(f"{w:<14} {metric:<12} {'AB'[which]:<3} {q1:>11.6g} "
                      f"{med:>11.6g} {q3:>11.6g} {spread:>8.4f} {bound:>6}")
                if metric != "setup_s" and spread > bound:
                    failures.append(f"{w} {metric}: set {'AB'[which]} "
                                    f"spread {spread:.4f} > bound {bound}")
            q1, med, q3, spread = summary(
                [r["metrics"][metric]["value"] for s in sets for r in s])
            print(f"{w:<14} {metric:<12} {'all':<3} {q1:>11.6g} "
                  f"{med:>11.6g} {q3:>11.6g} {spread:>8.4f} {bound:>6}")
            shift = abs(medians[1] - medians[0]) / medians[0]
            if shift > bound:
                failures.append(f"{w} {metric}: medians differ by "
                                f"{shift:.4f} > bound {bound}")
    print(f"\n{RUNS} runs per set, {seconds} s each, "
          f"{time.time() - start:.0f} s in all")
    for f in failures:
        print("FAIL:", f)
    if failures:
        sys.exit(1)
    print("OK: the two sets agree within every bound")


if __name__ == "__main__":
    main()
