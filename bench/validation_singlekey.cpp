// §IV-A sanity — single-key reductions ARE broken.
//
// "Locking benchmarks with the same key values (i.e., reduced to a
// single-key solution) leads to SAT attacks ... to find the correct key as
// expected." This harness validates both directions at once: the attack
// implementations genuinely work (they recover keys from reduced locks) and
// the multi-key schedule is what provides the security (same circuits, same
// parameters, keys varied per slot -> attacks fail).
//
// One Runner job per (circuit x mode x attack), each with its own circuit,
// lock and oracle.
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
const char* const k_modes[] = {"bmc", "kc2", "bbo"};

struct Row {
  const char* name;
  bool reduced;
  attack::AttackResult results[std::size(k_modes)];
};

lock::LockResult lock_circuit(const benchgen::SyntheticCircuit& circuit,
                              bool reduced) {
  core::StrOptions options;
  options.num_keys = 4;
  options.key_bits = 3;
  options.locked_ffs =
      std::min<std::size_t>(2, circuit.netlist.dffs().size());
  options.seed = 0x5111 + (reduced ? 1 : 0);
  options.single_key_reduction = reduced;
  return core::cute_lock_str(circuit.netlist, options);
}

}  // namespace

int main() {
  using namespace cl;
  const double seconds = bench::attack_seconds(10.0);
  std::printf("VALIDATION: single-key reduction vs multi-key Cute-Lock-Str\n\n");

  std::vector<Row> rows;
  for (const char* name : {"s27", "s298", "b01", "b03", "b06"}) {
    for (const bool reduced : {true, false}) {
      rows.push_back(Row{name, reduced, {}});
    }
  }

  bench::Runner runner("validation_singlekey");
  // BBO screens at one thread (the ModeOptions default): the Runner already
  // saturates cores across table cells.
  attack::ModeOptions options;
  options.budget = bench::table_budget(seconds);
  for (Row& row : rows) {
    const char* name = row.name;
    const bool reduced = row.reduced;
    for (std::size_t i = 0; i < std::size(k_modes); ++i) {
      const attack::AttackMode& mode = attack::find_attack_mode(k_modes[i]);
      runner.add_attack(
          {reduced ? "single-key" : "multi-key", name, mode.label, 4, 3},
          &row.results[i], [name, reduced, &mode, options]() {
            const auto circuit = benchgen::make_circuit(name);
            const auto locked = lock_circuit(circuit, reduced);
            return attack::run_attack_mode(mode, locked.locked,
                                           circuit.netlist, options)
                .result;
          });
    }
  }
  runner.run();

  util::Table table({"circuit", "mode", "BMC", "KC2", "BBO"});
  std::size_t reduced_broken = 0, reduced_total = 0;
  std::size_t multi_held = 0, multi_total = 0;
  for (const Row& row : rows) {
    std::vector<std::string> cells = {
        row.name, row.reduced ? "single-key (reduced)" : "multi-key"};
    for (const attack::AttackResult& r : row.results) {
      if (row.reduced) {
        ++reduced_total;
        if (r.outcome == attack::Outcome::Equal) ++reduced_broken;
      } else {
        ++multi_total;
        if (attack::defense_held(r.outcome)) ++multi_held;
      }
      cells.push_back(bench::attack_cell(r));
    }
    table.add_row(cells);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("single-key reductions broken: %zu / %zu (expected: all)\n",
              reduced_broken, reduced_total);
  std::printf("multi-key defenses held:      %zu / %zu (expected: all)\n",
              multi_held, multi_total);
  return (reduced_broken == reduced_total && multi_held == multi_total) ? 0 : 1;
}
