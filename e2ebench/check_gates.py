#!/usr/bin/env python3
"""Shows that every output check of the benchmark can fail.

For each workload, runs the benchmark once as is (it must pass) and once
per check with `--break <check>`, which feeds that check a wrong expected
value; each of those runs must report correct=false, name the check, and
exit non-zero.

Usage (from the repository root):
  python3 e2ebench/check_gates.py
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

CHECKS = {
    "serve_hot": ["reference_answer", "plan_independence"],
    "adhoc_rw": ["reference_answer", "rows_affected", "final_contents"],
    "paper_figures": ["fig1_crossover", "sd_monotone", "hist_one_plan",
                      "t80_below_hist", "n50_seqscan", "exp1_true_sel",
                      "repeat_identical"],
}
# paper_figures needs two regenerations to compare them.
SECONDS = {"serve_hot": 2, "adhoc_rw": 2, "paper_figures": 6}


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = run.build(os.path.abspath(os.path.join(target, "e2ebench")))
    problems = []
    for workload, checks in CHECKS.items():
        for check in [None] + checks:
            command = [binary, "--workload", workload, "--seed", "1",
                       "--seconds", str(SECONDS[workload]), "--trace", "0"]
            if check:
                command += ["--break", check]
            out = subprocess.run(command, capture_output=True, text=True,
                                 timeout=170)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            named = f"CHECK FAILED: {check}" in out.stdout
            if check is None:
                ok = out.returncode == 0 and result["correct"]
            else:
                ok = out.returncode != 0 and not result["correct"] and named
            label = f"{workload} --break {check}" if check else workload
            print(f"{'ok ' if ok else 'BAD'} {label}", flush=True)
            if not ok:
                problems.append(label)
    if problems:
        sys.exit("FAIL: " + ", ".join(problems))
    print("OK: every check passes as is and fails on a wrong expected value")


if __name__ == "__main__":
    main()
