// Table III — Cute-Lock-Beh security against logic attacks.
//
// Every Synthezza-suite FSM is locked with Cute-Lock-Beh using the paper's
// per-circuit (k, ki), synthesized to a gate-level netlist, and attacked
// with the oracle-guided suite (BBO / INT / KC2 — the NEOS modes). The
// expected shape: no attack recovers a working key (CNS / x..x / N/A only).
//
// One Runner job per (FSM x attack); every job synthesizes its own lock and
// oracle (deterministic), so results are independent of CUTELOCK_JOBS.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "attack/registry.hpp"
#include "bench_common.hpp"
#include "benchgen/fsm_suite.hpp"
#include "core/cute_lock_beh.hpp"
#include "fsm/synth.hpp"
#include "runner.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

/// The table's columns, by attack-registry mode name.
const char* const k_modes[] = {"bbo", "bmc", "kc2"};

struct Row {
  benchgen::FsmSpec spec;
  attack::AttackResult results[std::size(k_modes)];
};

struct LockedPair {
  netlist::Netlist locked;
  netlist::Netlist original;
};

LockedPair synthesize_pair(const benchgen::FsmSpec& spec) {
  const fsm::Stg stg = benchgen::make_fsm(spec);
  core::BehOptions options;
  options.num_keys = spec.lock_keys;
  options.key_bits = spec.lock_bits;
  options.seed = 0xbe4 + spec.states;
  const core::BehLock lock(stg, options);
  return LockedPair{
      lock.synthesize(fsm::SynthStyle::DirectTransitions, spec.name + "_l")
          .locked,
      fsm::synthesize(stg, fsm::SynthStyle::DirectTransitions, spec.name)};
}

}  // namespace

int main() {
  using namespace cl;
  const double seconds = bench::attack_seconds(2.0);
  std::printf("TABLE III: Cute-Lock-Beh vs oracle-guided attacks "
              "(per-attack budget %.1fs)\n\n", seconds);

  std::vector<Row> rows;
  for (const benchgen::FsmSpec& spec :
       bench::selected_fsms(benchgen::synthezza_specs())) {
    rows.push_back(Row{spec, {}});
  }

  bench::Runner runner("table3_beh_logic_attacks");
  // BBO screens at one thread (the ModeOptions default): the Runner already
  // saturates cores across table cells.
  attack::ModeOptions options;
  options.budget = bench::table_budget(seconds);
  for (Row& row : rows) {
    const benchgen::FsmSpec spec = row.spec;
    for (std::size_t i = 0; i < std::size(k_modes); ++i) {
      const attack::AttackMode& mode = attack::find_attack_mode(k_modes[i]);
      runner.add_attack(
          {"synthezza", spec.name, mode.label, static_cast<int>(spec.lock_keys),
           static_cast<int>(spec.lock_bits)},
          &row.results[i], [spec, &mode, options]() {
            const LockedPair pair = synthesize_pair(spec);
            return attack::run_attack_mode(mode, pair.locked, pair.original,
                                           options)
                .result;
          });
    }
  }
  runner.run();

  util::Table table({"tier", "circuit", "k", "ki", "BBO", "INT", "KC2"});
  std::size_t attacks_run = 0, defenses_held = 0;
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.spec.tier, row.spec.name,
                                      std::to_string(row.spec.lock_keys),
                                      std::to_string(row.spec.lock_bits)};
    for (const attack::AttackResult& r : row.results) {
      ++attacks_run;
      if (attack::defense_held(r.outcome)) ++defenses_held;
      cells.push_back(bench::attack_cell(r));
    }
    table.add_row(cells);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("defense held in %zu / %zu attack runs "
              "(paper: all; Equal would mean a recovered key)\n",
              defenses_held, attacks_run);
  return defenses_held == attacks_run ? 0 : 1;
}
