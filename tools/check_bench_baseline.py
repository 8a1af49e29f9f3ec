#!/usr/bin/env python3
"""Diff a fresh bench_micro_perf JSON against the checked-in baseline.

Usage: check_bench_baseline.py <baseline.json> <fresh.json>

Hard failures (exit 1):
  - a baseline benchmark missing from the fresh run
  - any drift in the deterministic trajectory counters (conflicts, restarts,
    learnts_deleted, minimized_lits, vars_eliminated, clauses_subsumed,
    vivified_lits, sim_gates, sim_lane_words, cnf_vars, cnf_clauses,
    bbo_batches) — the solver is seeded and single-threaded in these
    benchmarks, so these must match bit-for-bit across machines

Warnings only (exit 0):
  - real_time regression beyond 15% (throughput depends on the machine)

BM_SolverPortfolioRace is excluded: a race winner depends on scheduling.
"""

import json
import sys

TRAJECTORY_COUNTERS = [
    "conflicts",
    "restarts",
    "learnts_deleted",
    "minimized_lits",
    "vars_eliminated",
    "clauses_subsumed",
    "vivified_lits",
    # Sim-axis determinism: circuit size and lane width of the
    # BM_CompiledSimIsa rows are fixed properties of the benchmark, so any
    # drift means the harness changed shape, not the machine.
    "sim_gates",
    "sim_lane_words",
    # Formula size: the BM_VerifyStaticKey rows' miter (with the key folded
    # in) and the BM_EncodeFactConstraint rows' fact clauses are
    # deterministic functions of the circuit.
    "cnf_vars",
    "cnf_clauses",
    # Search length: the BM_BboScreen row's candidate batches until its
    # exhaustive screen proves CNS.
    "bbo_batches",
]
EXCLUDED_PREFIXES = ("BM_SolverPortfolioRace",)
TIME_REGRESSION_FACTOR = 1.15
REL_TOL = 1e-9


def load_benchmarks(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") != "iteration":
            continue
        if name.startswith(EXCLUDED_PREFIXES):
            continue
        out[name] = b
    return out


def drifted(a, b):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) > REL_TOL * scale


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load_benchmarks(sys.argv[1])
    fresh = load_benchmarks(sys.argv[2])

    failures = []
    warnings = []
    for name, base in sorted(baseline.items()):
        cur = fresh.get(name)
        if cur is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        for counter in TRAJECTORY_COUNTERS:
            if counter not in base:
                continue
            if counter not in cur:
                failures.append(f"{name}: counter {counter} missing")
                continue
            if drifted(base[counter], cur[counter]):
                failures.append(
                    f"{name}: {counter} drifted "
                    f"(baseline {base[counter]:.6g}, fresh {cur[counter]:.6g})"
                )
        bt, ct = base.get("real_time"), cur.get("real_time")
        if bt is not None and ct is not None and ct > bt * TIME_REGRESSION_FACTOR:
            warnings.append(
                f"{name}: real_time {ct:.0f}ns vs baseline {bt:.0f}ns "
                f"(> {TIME_REGRESSION_FACTOR:.2f}x; warning only)"
            )

    for w in warnings:
        print(f"WARNING: {w}", file=sys.stderr)
    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        return 1
    print(
        f"baseline diff OK: {len(baseline)} benchmarks, "
        f"{len(warnings)} throughput warning(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
