// Ablation — the adaptive periodic-key attacker.
//
// The paper's evaluation (and every published tool) models a static key;
// Tables III/IV show those attacks dead-end. This ablation quantifies the
// defense margin against an attacker who *knows the construction* and
// models key(t) = K[t mod p], sweeping hypothesized periods: the search
// space grows from 2^ki to 2^(ki*k), and cost rises steeply with k.
//
// Two Runner jobs per k (static BMC, adaptive periodic), each rebuilding
// s27, lock and oracle.
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "attack/registry.hpp"
#include "bench_common.hpp"
#include "benchgen/s27.hpp"
#include "core/cute_lock_str.hpp"
#include "runner.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

/// The static attack, then the adaptive one, by attack-registry mode name.
const char* const k_modes[] = {"bmc", "periodic"};

struct Row {
  std::size_t k;
  attack::ModeResult results[std::size(k_modes)];
};

/// The period the adaptive attack recovered, "-" when none.
std::string period_found(const attack::ModeResult& adaptive) {
  for (const auto& [name, value] : adaptive.facts) {
    if (name == "period") return value.dump();
  }
  return "-";
}

lock::LockResult lock_s27(const netlist::Netlist& s27, std::size_t k) {
  core::StrOptions options;
  options.num_keys = k;
  options.key_bits = 2;
  options.locked_ffs = 2;
  options.seed = 0xab3c + k;
  return core::cute_lock_str(s27, options);
}

}  // namespace

int main() {
  using namespace cl;
  std::printf("ABLATION: adaptive periodic-key attacker vs Cute-Lock-Str "
              "(s27)\n\n");
  const double seconds = bench::attack_seconds(20.0);

  std::vector<Row> rows;
  for (const std::size_t k : {2u, 4u, 8u}) rows.push_back(Row{k, {}});

  bench::Runner runner("ablation_periodic_attack");
  for (Row& row : rows) {
    const std::size_t k = row.k;
    attack::ModeOptions options;
    options.budget = bench::table_budget(seconds);
    options.max_period = k;
    for (std::size_t i = 0; i < std::size(k_modes); ++i) {
      const attack::AttackMode& mode = attack::find_attack_mode(k_modes[i]);
      attack::ModeResult* slot = &row.results[i];
      runner.add_attack({"ISCAS'89", "s27", mode.label, static_cast<int>(k), 2},
                        &slot->result, [slot, k, &mode, options]() {
                          const auto s27 = benchgen::make_s27();
                          const auto locked = lock_s27(s27, k);
                          attack::ModeResult run = attack::run_attack_mode(
                              mode, locked.locked, s27, options);
                          slot->facts = std::move(run.facts);
                          return run.result;
                        });
    }
  }
  runner.run();

  util::Table table({"k", "ki", "static BMC", "periodic attack", "period found",
                     "oracle queries"});
  for (const Row& row : rows) {
    const attack::ModeResult& adaptive = row.results[1];
    table.add_row({std::to_string(row.k), "2",
                   bench::attack_cell(row.results[0].result),
                   bench::attack_cell(adaptive.result), period_found(adaptive),
                   std::to_string(adaptive.result.iterations)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("reading: static-key attacks dead-end (the paper's tables); an\n"
              "attacker modelling the time base can recover the schedule, at a\n"
              "cost that grows with the period — the margin k buys.\n");
  return 0;
}
