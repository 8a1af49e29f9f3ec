#!/usr/bin/env python3
"""Diff a fresh bench JSON against its checked-in baseline.

Usage: check_bench_baseline.py <baseline.json> <fresh.json>

The format is read from the baseline: Google Benchmark output
(bench_micro_perf, a "benchmarks" list) or a table harness's records
(BENCH_<harness>.json from bench::Runner, a "records" list).

bench_micro_perf — hard failures (exit 1):
  - a baseline benchmark missing from the fresh run
  - any drift in the deterministic trajectory counters (conflicts, restarts,
    learnts_deleted, minimized_lits, sim_gates, sim_lane_words, cnf_vars,
    cnf_clauses, bbo_batches, netlist_nodes, fanin_refs) — the solver is
    single-threaded in these benchmarks, so these must match bit-for-bit
    across machines
  Warnings only (exit 0):
  - real_time regression beyond 15% (throughput depends on the machine)

Table harness records (run with CUTELOCK_BENCH_STABLE=1, so every verdict
and count is independent of the machine and of CUTELOCK_JOBS) — hard
failures (exit 1):
  - a "schema" version that differs between the two files (records of
    different schemas are not compared)
  - a baseline record missing from the fresh run, or a fresh record the
    baseline lacks; records match by (suite, circuit, attack), and records
    sharing that triple match in file order
  - any drift in a record's outcome, iterations or fresh_queries
  seconds and the header's threads are ignored.
"""

import json
import sys

TRAJECTORY_COUNTERS = [
    "conflicts",
    "restarts",
    "learnts_deleted",
    "minimized_lits",
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
    # Set-up shape: the BM_CellSetup row's locked netlist size (signals and
    # fanin references), fixed by the circuit, the lock options and seed.
    "netlist_nodes",
    "fanin_refs",
]
TIME_REGRESSION_FACTOR = 1.15
REL_TOL = 1e-9

RECORD_FIELDS = ["outcome", "iterations", "fresh_queries"]


def load_benchmarks(data):
    out = {}
    for b in data.get("benchmarks", []):
        name = b.get("name", "")
        if b.get("run_type") != "iteration":
            continue
        out[name] = b
    return out


def drifted(a, b):
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) > REL_TOL * scale


def check_benchmarks(base_doc, fresh_doc):
    """Returns (failures, warnings, summary) for bench_micro_perf output."""
    baseline = load_benchmarks(base_doc)
    fresh = load_benchmarks(fresh_doc)
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
    summary = (f"{len(baseline)} benchmarks, "
               f"{len(warnings)} throughput warning(s)")
    return failures, warnings, summary


def keyed_records(doc):
    """Records keyed by (suite, circuit, attack, n): the n-th record with
    that triple, in file order."""
    out = {}
    seen = {}
    for r in doc.get("records", []):
        triple = (r.get("suite"), r.get("circuit"), r.get("attack"))
        n = seen.get(triple, 0)
        seen[triple] = n + 1
        out[triple + (n,)] = r
    return out


def record_name(key):
    suite, circuit, attack, n = key
    name = f"{suite}/{circuit}/{attack}"
    return name if n == 0 else f"{name}#{n + 1}"


def check_records(base_doc, fresh_doc):
    """Returns (failures, warnings, summary) for table harness records."""
    base_schema, fresh_schema = base_doc.get("schema"), fresh_doc.get("schema")
    if base_schema != fresh_schema:
        return [f"schema {fresh_schema!r} differs from the baseline's "
                f"{base_schema!r}"], [], "schema mismatch"
    failures = []
    baseline = keyed_records(base_doc)
    fresh = keyed_records(fresh_doc)
    for key, base in baseline.items():
        cur = fresh.get(key)
        if cur is None:
            failures.append(f"{record_name(key)}: missing from fresh run")
            continue
        for field in RECORD_FIELDS:
            if base.get(field) != cur.get(field):
                failures.append(
                    f"{record_name(key)}: {field} drifted "
                    f"(baseline {base.get(field)!r}, fresh {cur.get(field)!r})"
                )
    for key in fresh:
        if key not in baseline:
            failures.append(f"{record_name(key)}: not in the baseline")
    return failures, [], f"{len(baseline)} records"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        base_doc = json.load(f)
    with open(sys.argv[2]) as f:
        fresh_doc = json.load(f)
    check = check_records if "records" in base_doc else check_benchmarks
    failures, warnings, summary = check(base_doc, fresh_doc)

    for w in warnings:
        print(f"WARNING: {w}", file=sys.stderr)
    if failures:
        for f_ in failures:
            print(f"FAIL: {f_}", file=sys.stderr)
        return 1
    print(f"baseline diff OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
