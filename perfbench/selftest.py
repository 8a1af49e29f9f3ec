#!/usr/bin/env python3
"""Self-test of the perfbench benchmark, run from the root of a checkout.

    python3 perfbench/selftest.py

For each workload:
  * two traced runs at seed 0 must print the same verdicts and the same
    deterministic counters;
  * an untraced run at seed 1 must fail no cell (verdict_error_rate 0).
Each run is as short as the program allows (--seconds 0). Exits 1 on the
first mismatch.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["singlekey-verify", "mega-encode", "table4-cns"]
COUNTERS = ["attack.iterations", "attack.fresh_queries", "cnf.fact_vars",
            "cnf.fact_clauses", "cnf.miter_vars", "sat.conflicts",
            "sat.propagations", "attack.verify_calls"]
SEED = 0
OTHER_SEED = 1


def run(workload, seed, trace):
    """(verdicts line, result object) of one shortest run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"selftest: {' '.join(cmd)} printed nothing "
                 f"(exit {proc.returncode})")
    verdicts = next((l for l in lines if l.startswith("verdicts:")), "")
    return verdicts, json.loads(lines[-1])


def main():
    problems = []
    for workload in WORKLOADS:
        first_verdicts, first = run(workload, SEED, 1)
        second_verdicts, second = run(workload, SEED, 1)
        if first_verdicts != second_verdicts:
            problems.append(f"{workload}: verdicts differ between two traced "
                            f"runs at seed {SEED}")
        for name in COUNTERS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} is {a} then {b} at "
                                f"seed {SEED}")
        _, other = run(workload, OTHER_SEED, 0)
        for result, seed in ((first, SEED), (second, SEED),
                             (other, OTHER_SEED)):
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} of "
                                f"{result['attempted']} cells failed at "
                                f"seed {seed}")
        print(f"{workload}: {'FAIL' if problems else 'ok'}", flush=True)
        if problems:
            break
    for problem in problems:
        print("selftest:", problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
