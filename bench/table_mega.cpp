// Mega-suite attack table — lock/attack outcomes at compiled-simulator
// scale (first step toward the ROADMAP mega-table item).
//
// With simulation (PR 3) and SAT (PR 4) off the critical path, the attacks
// themselves are the bottleneck on the synthetic mega circuits. This
// harness locks syn64k/syn256k with Cute-Lock-Str at small key counts and
// runs the engine-based oracle-guided suite (INT / KC2 / periodic) against
// each instance. Unroll depth and iteration budgets are deliberately tiny —
// one miter frame of syn256k is already ~half a million SAT variables — so
// the table records how far each attack gets, plus the oracle-query split
// when the ObservationBank is on.
//
// The static-key attacks (INT, KC2) are the paper's claim: they must end
// N/A or CNS, never Equal, and the exit status gates on them alone. The
// periodic column is the adaptive attacker that models the time base; it
// may recover the schedule (as bench_ablation_periodic_attack shows on
// s27), so its recoveries are printed as leakage, not gated.
//
// Small profile (CI smoke): one row — syn64k at k=2 — with the INT attack
// only. The full run adds syn256k, k=4, and the KC2/periodic columns.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/periodic_attack.hpp"
#include "attack/seq_attack.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "runner.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

struct Row {
  benchgen::CircuitSpec spec;
  std::size_t k = 0;
  bool full = false;  // KC2/periodic columns run only in the full profile
  attack::AttackResult bmc, kc2, periodic;
};

lock::LockResult lock_circuit(const benchgen::SyntheticCircuit& circuit,
                              const benchgen::CircuitSpec& spec,
                              std::size_t k) {
  core::StrOptions options;
  options.num_keys = k;
  options.key_bits = 4;
  options.locked_ffs =
      std::min<std::size_t>(4, circuit.netlist.dffs().size());
  options.seed = 0x3e6a + spec.gates + k;
  return core::cute_lock_str(circuit.netlist, options);
}

/// Deterministic budget sized for million-variable miters: a couple of
/// shallow frames, a handful of DIS rounds. Wall deadlines still come from
/// CUTELOCK_ATTACK_SECONDS outside stable mode.
attack::AttackBudget mega_budget(double seconds) {
  attack::AttackBudget b = bench::table_budget(seconds);
  b.max_iterations = 6;
  b.max_depth = 4;
  b.conflict_budget = 200'000;
  return b;
}

}  // namespace

int main() {
  using namespace cl;
  const double seconds = bench::attack_seconds(30.0);
  std::printf("TABLE MEGA: Cute-Lock-Str on the mega suite vs oracle-guided "
              "attacks (per-attack budget %.1fs)\n\n", seconds);

  std::vector<Row> rows;
  const bool small = bench::small_run();
  for (const benchgen::CircuitSpec& spec : benchgen::mega_specs()) {
    if (spec.name == "syn1m") continue;  // sim-only until attacks scale further
    if (small && spec.name != "syn64k") continue;
    for (const std::size_t k : {2u, 4u}) {
      if (small && k != 2) continue;
      rows.push_back(Row{spec, k, !small, {}, {}, {}});
    }
  }

  bench::Runner runner("table_mega");
  for (Row& row : rows) {
    const benchgen::CircuitSpec spec = row.spec;
    const std::size_t k = row.k;
    const attack::AttackBudget budget = mega_budget(seconds);
    const auto meta = [&](const char* attack_name) {
      return bench::JobMeta{"mega", spec.name, attack_name,
                            static_cast<int>(k), 4};
    };
    runner.add_attack(meta("INT"), &row.bmc, [spec, k, budget]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec, k);
      attack::SequentialOracle oracle(circuit.netlist);
      return attack::bmc_attack(locked.locked, oracle, budget);
    });
    if (!row.full) continue;
    runner.add_attack(meta("KC2"), &row.kc2, [spec, k, budget]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec, k);
      attack::SequentialOracle oracle(circuit.netlist);
      return attack::kc2_attack(locked.locked, oracle, budget);
    });
    runner.add_attack(meta("periodic"), &row.periodic, [spec, k, budget]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec, k);
      attack::SequentialOracle oracle(circuit.netlist);
      attack::PeriodicAttackOptions o;
      o.budget = budget;
      o.max_period = k;
      return attack::periodic_key_attack(locked.locked, oracle, o).result;
    });
  }
  runner.run();

  util::Table table({"suite", "circuit", "k", "ki", "INT", "KC2", "periodic"});
  std::size_t attacks_run = 0, defenses_held = 0;
  std::size_t periodic_run = 0, schedules_recovered = 0;
  for (const Row& row : rows) {
    attacks_run += row.full ? 2 : 1;
    if (attack::defense_held(row.bmc.outcome)) ++defenses_held;
    if (row.full && attack::defense_held(row.kc2.outcome)) ++defenses_held;
    if (row.full) {
      ++periodic_run;
      if (!attack::defense_held(row.periodic.outcome)) ++schedules_recovered;
    }
    table.add_row({"mega", row.spec.name, std::to_string(row.k), "4",
                   bench::attack_cell(row.bmc),
                   row.full ? bench::attack_cell(row.kc2) : "-",
                   row.full ? bench::attack_cell(row.periodic) : "-"});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("defense held in %zu / %zu attack runs "
              "(Equal would mean a recovered key)\n",
              defenses_held, attacks_run);
  if (periodic_run > 0) {
    std::printf("leakage: the periodic attacker recovered the key schedule "
                "in %zu / %zu runs (adaptive, not gated)\n",
                schedules_recovered, periodic_run);
  }
  return defenses_held == attacks_run ? 0 : 1;
}
