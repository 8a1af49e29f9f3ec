// Table IV — Cute-Lock-Str security against logic attacks.
//
// Every ISCAS'89 / ITC'99 circuit is locked with Cute-Lock-Str using the
// paper's per-circuit (k, ki) and attacked with BBO / INT / KC2 / RANE.
// Expected shape: no attack recovers a working key.
//
// Each (circuit x attack) pair is one independent Runner job: the job builds
// its own circuit, lock and oracle (all deterministic), so the table is
// byte-identical however many workers CUTELOCK_JOBS grants.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "attack/registry.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "runner.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

/// The table's columns, by attack-registry mode name.
const char* const k_modes[] = {"bbo", "bmc", "kc2", "rane"};

struct Row {
  const char* suite;
  benchgen::CircuitSpec spec;
  attack::AttackResult results[std::size(k_modes)];
};

lock::LockResult lock_circuit(const benchgen::SyntheticCircuit& circuit,
                              const benchgen::CircuitSpec& spec) {
  core::StrOptions options;
  options.num_keys = spec.lock_keys;
  options.key_bits = spec.lock_bits;
  options.locked_ffs =
      std::min<std::size_t>(4, circuit.netlist.dffs().size());
  options.seed = 0x57a + spec.gates;
  return core::cute_lock_str(circuit.netlist, options);
}

}  // namespace

int main() {
  using namespace cl;
  const double seconds = bench::attack_seconds(2.0);
  std::printf("TABLE IV: Cute-Lock-Str vs oracle-guided attacks "
              "(per-attack budget %.1fs)\n\n", seconds);

  std::vector<Row> rows;
  const auto collect = [&](const char* suite,
                           const std::vector<benchgen::CircuitSpec>& specs) {
    for (const benchgen::CircuitSpec& spec : bench::selected_circuits(specs)) {
      if (spec.name == "s27") continue;  // validation circuit (Table II)
      rows.push_back(Row{suite, spec, {}});
    }
  };
  collect("ISCAS'89", benchgen::iscas89_specs());
  collect("ITC'99", benchgen::itc99_specs());

  bench::Runner runner("table4_str_logic_attacks");
  // BBO screens at one thread (the ModeOptions default): the Runner already
  // saturates cores across table cells.
  attack::ModeOptions options;
  options.budget = bench::table_budget(seconds);
  for (Row& row : rows) {
    const benchgen::CircuitSpec spec = row.spec;
    for (std::size_t i = 0; i < std::size(k_modes); ++i) {
      const attack::AttackMode& mode = attack::find_attack_mode(k_modes[i]);
      runner.add_attack(
          {row.suite, spec.name, mode.label, static_cast<int>(spec.lock_keys),
           static_cast<int>(spec.lock_bits)},
          &row.results[i], [spec, &mode, options]() {
            const auto circuit = benchgen::make_circuit(spec);
            const auto locked = lock_circuit(circuit, spec);
            return attack::run_attack_mode(mode, locked.locked,
                                           circuit.netlist, options)
                .result;
          });
    }
  }
  runner.run();

  util::Table table({"suite", "circuit", "k", "ki", "BBO", "INT", "KC2", "RANE"});
  std::size_t attacks_run = 0, defenses_held = 0;
  for (const Row& row : rows) {
    std::vector<std::string> cells = {row.suite, row.spec.name,
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
