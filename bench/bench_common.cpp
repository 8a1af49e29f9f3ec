#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "util/env.hpp"
#include "util/timer.hpp"

namespace cl::bench {

double attack_seconds(double fallback) {
  return util::env_double_or("CUTELOCK_ATTACK_SECONDS", fallback);
}

bool small_run() { return util::env_flag("CUTELOCK_BENCH_SMALL"); }

bool stable_cells() { return util::env_flag("CUTELOCK_BENCH_STABLE"); }

std::size_t jobs_from_env() { return util::jobs_from_env(); }

bool json_enabled() {
  const char* env = std::getenv("CUTELOCK_BENCH_JSON");
  return !(env != nullptr && env[0] == '0' && env[1] == '\0');
}

std::string json_dir() {
  if (const char* env = std::getenv("CUTELOCK_BENCH_JSON_DIR")) {
    if (env[0] != '\0') return env;
  }
  return ".";
}

attack::AttackBudget table_budget(double seconds) {
  attack::AttackBudget b;
  b.time_limit_s = seconds;
  b.max_iterations = 500;
  b.max_depth = 24;
  b.conflict_budget = 4'000'000;
  if (stable_cells()) {
    // Byte-identical output requires outcomes that do not depend on the
    // clock: replace wall deadlines (attack and candidate-key verification)
    // with the deterministic budgets above (iterations, depth, conflicts).
    b.time_limit_s = 1e9;
    b.verify_time_limit_s = 1e9;
  }
  return b;
}

std::string attack_cell(const attack::AttackResult& r) {
  if (stable_cells()) return attack::outcome_label(r.outcome);
  return std::string(attack::outcome_label(r.outcome)) + " " +
         util::format_duration(r.seconds);
}

std::string time_cell(double seconds) {
  if (stable_cells()) return "-";
  return util::format_duration(seconds);
}

std::vector<benchgen::CircuitSpec> selected_circuits(
    const std::vector<benchgen::CircuitSpec>& suite) {
  constexpr std::size_t kSmallGateCutoff = 1200;
  std::vector<benchgen::CircuitSpec> out;
  for (const benchgen::CircuitSpec& spec : suite) {
    if (small_run() && spec.gates > kSmallGateCutoff) continue;
    out.push_back(spec);
  }
  return out;
}

std::vector<benchgen::FsmSpec> selected_fsms(
    const std::vector<benchgen::FsmSpec>& suite) {
  std::vector<benchgen::FsmSpec> out;
  for (const benchgen::FsmSpec& spec : suite) {
    if (small_run() && std::strcmp(spec.tier, "small") != 0) continue;
    out.push_back(spec);
  }
  return out;
}

}  // namespace cl::bench
