// Parallel bench orchestration.
//
// Every table/ablation/fig harness registers independent
// (suite x circuit x config x attack) jobs on a Runner. Jobs are executed on
// a util::ThreadPool sized by CUTELOCK_JOBS (default hardware_concurrency);
// each job builds its own circuit/lock/oracle/solver so nothing is shared
// between workers, and results are collected in registration order, so the
// rendered table is identical to a serial run. After run(), the Runner emits
// a machine-readable BENCH_<harness>.json baseline: one record per job, the
// job's identity plus attack::to_json of its AttackResult (or the outcome,
// seconds and iterations of a non-attack job). docs/benchmarks.md has the
// schema.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/result.hpp"
#include "util/json.hpp"

namespace cl::bench {

/// Identity of one job, mirrored into the JSON baseline.
struct JobMeta {
  std::string suite;    // "ISCAS'89" | "ITC'99" | "synthezza" | "-"
  std::string circuit;  // circuit / FSM name, or a free-form config label
  std::string attack;   // "BBO" | "INT" | "KC2" | "RANE" | "DANA" | ...
  int k = -1;           // lock period; -1 when not applicable
  int ki = -1;          // key bits per slot; -1 when not applicable
};

/// What a non-attack job (an area, an NMI, PASS/FAIL) reports back for its
/// JSON record. `seconds < 0` means "use the wall time the Runner measured
/// around the job".
struct JobOutcome {
  std::string outcome;
  double seconds = -1.0;
  std::uint64_t iterations = 0;
};

class Runner {
 public:
  /// `harness` names the JSON baseline: BENCH_<harness>.json. Under
  /// CUTELOCK_OBS_BANK=1 this switches the process's observation bank on.
  explicit Runner(std::string harness);

  /// Register a job. Jobs must be self-contained: they run concurrently and
  /// may only write state no other job touches (typically a slot owned by
  /// the registering row). Returns the job id (== registration index).
  std::size_t add(JobMeta meta, std::function<JobOutcome()> fn);

  /// Register an attack job: run it, store its result into *slot (owned by
  /// the caller, stable until run() returns), and write the full attack
  /// record from it.
  std::size_t add_attack(JobMeta meta, attack::AttackResult* slot,
                         std::function<attack::AttackResult()> fn);

  /// Execute every registered job (thread pool when threads() > 1, inline
  /// otherwise), then write the JSON baseline. Rethrows the first exception
  /// a job raised. Call once.
  void run();

  std::size_t jobs() const { return jobs_.size(); }
  std::size_t threads() const { return threads_; }

  /// Override the CUTELOCK_JOBS-derived worker count (tests).
  void set_threads(std::size_t n);

  /// Outcome label, seconds and iterations of a finished job, in
  /// registration order.
  const JobOutcome& outcome(std::size_t id) const;

  /// The serialized baseline document: one record per line.
  std::string json() const;

  /// Where run() writes the baseline: $CUTELOCK_BENCH_JSON_DIR/BENCH_<harness>.json
  /// (directory defaults to the working directory). Empty when disabled via
  /// CUTELOCK_BENCH_JSON=0.
  std::string json_path() const;

 private:
  struct Job {
    JobMeta meta;
    std::function<JobOutcome()> fn;
    const attack::AttackResult* result = nullptr;  // add_attack's slot
    JobOutcome out;
    util::Json record;  // the JSON record, written by execute()
  };

  void execute(Job& job);
  void write_json() const;

  std::string harness_;
  std::vector<Job> jobs_;
  std::size_t threads_;
  std::size_t effective_threads_ = 1;  // workers run() actually used
  bool ran_ = false;
};

}  // namespace cl::bench
