// Table V — Cute-Lock-Str security against removal attacks.
//
// Every ITC'99 circuit is locked with Cute-Lock-Str and handed to:
//  * DANA — register clustering scored by NMI against the generator's
//    ground-truth register groups. The original circuits score high (the
//    DANA paper reports 0.87-0.99, average 0.95); the locked ones must drop
//    sharply (the Cute-Lock paper reports 0.00-0.99, average 0.41).
//  * FALL — structural/functional key extraction. Expected: 0 candidates,
//    0 confirmed keys on every locked circuit.
//  * SCOPE — oracle-free synthesis-differential key inference. Expected:
//    0 bits decided (every Cute-Lock-Str bit reads as Complex and stays
//    Unknown — honest, rather than wrong).
//
// Four Runner jobs per circuit (DANA original / DANA locked / FALL / SCOPE),
// each rebuilding its own circuit and lock deterministically.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "attack/dana.hpp"
#include "attack/fall.hpp"
#include "attack/scope.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "runner.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace cl;

struct Row {
  benchgen::CircuitSpec spec;
  double nmi_orig = 0.0;
  double nmi_locked = 0.0;
  attack::FallResult fall;
  attack::ScopeResult scope;
};

lock::LockResult lock_circuit(const benchgen::SyntheticCircuit& circuit,
                              const benchgen::CircuitSpec& spec) {
  core::StrOptions options;
  options.num_keys = spec.lock_keys;
  options.key_bits = spec.lock_bits;
  // More locked FFs = more dataflow blending (paper §III-C); scale with
  // the circuit.
  options.locked_ffs =
      std::clamp<std::size_t>(circuit.netlist.dffs().size() / 8, 2, 12);
  options.seed = 0xdada + spec.gates;
  return core::cute_lock_str(circuit.netlist, options);
}

}  // namespace

int main() {
  using namespace cl;
  std::printf("TABLE V: Cute-Lock-Str vs removal attacks (DANA, FALL)\n\n");
  const double fall_seconds = bench::attack_seconds(5.0);

  std::vector<Row> rows;
  for (const benchgen::CircuitSpec& spec :
       bench::selected_circuits(benchgen::itc99_specs())) {
    rows.push_back(Row{spec, 0.0, 0.0, {}, {}});
  }

  bench::Runner runner("table5_removal_attacks");
  for (Row& row : rows) {
    const benchgen::CircuitSpec spec = row.spec;
    const auto meta = [&](const char* attack_name) {
      return bench::JobMeta{"ITC'99", spec.name, attack_name,
                            static_cast<int>(spec.lock_keys),
                            static_cast<int>(spec.lock_bits)};
    };
    runner.add(meta("DANA-original"), [&row, spec]() {
      const auto circuit = benchgen::make_circuit(spec);
      const attack::DanaResult dana = attack::dana_attack(circuit.netlist);
      row.nmi_orig = attack::nmi_score(circuit.netlist, dana, circuit.groups);
      char nmi[16];
      std::snprintf(nmi, sizeof nmi, "%.2f", row.nmi_orig);
      return bench::JobOutcome{nmi, -1.0, 0};
    });
    runner.add(meta("DANA-locked"), [&row, spec]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec);
      const attack::DanaResult dana = attack::dana_attack(locked.locked);
      row.nmi_locked = attack::nmi_score(locked.locked, dana, circuit.groups);
      char nmi[16];
      std::snprintf(nmi, sizeof nmi, "%.2f", row.nmi_locked);
      return bench::JobOutcome{nmi, -1.0, 0};
    });
    runner.add_attack(meta("FALL"), &row.fall.result,
                      [&row, spec, fall_seconds]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec);
      attack::SequentialOracle oracle(circuit.netlist);
      attack::FallOptions fall_options;
      fall_options.budget = bench::table_budget(fall_seconds);
      row.fall = attack::fall_attack(locked.locked, oracle, fall_options);
      return row.fall.result;
    });
    runner.add_attack(meta("SCOPE"), &row.scope.result,
                      [&row, spec, fall_seconds]() {
      const auto circuit = benchgen::make_circuit(spec);
      const auto locked = lock_circuit(circuit, spec);
      // Oracle-free: SCOPE only sees the locked netlist.
      attack::ScopeOptions scope_options;
      scope_options.budget = bench::table_budget(fall_seconds);
      row.scope = attack::scope_attack(locked.locked, nullptr, scope_options);
      return row.scope.result;
    });
  }
  runner.run();

  util::Table table({"circuit", "NMI orig", "NMI locked", "FALL cand",
                     "FALL keys", "FALL time", "SCOPE dec", "SCOPE time"});
  double nmi_orig_sum = 0, nmi_locked_sum = 0;
  std::size_t fall_keys_total = 0, scope_decided_total = 0;
  for (const Row& row : rows) {
    char orig_s[16], locked_s[16];
    std::snprintf(orig_s, sizeof orig_s, "%.2f", row.nmi_orig);
    std::snprintf(locked_s, sizeof locked_s, "%.2f", row.nmi_locked);
    table.add_row({row.spec.name, orig_s, locked_s,
                   std::to_string(row.fall.candidates),
                   std::to_string(row.fall.confirmed),
                   bench::time_cell(row.fall.result.seconds),
                   std::to_string(row.scope.decided) + "/" +
                       std::to_string(row.scope.report.key_bits),
                   bench::time_cell(row.scope.result.seconds)});
    nmi_orig_sum += row.nmi_orig;
    nmi_locked_sum += row.nmi_locked;
    fall_keys_total += row.fall.confirmed;
    scope_decided_total += row.scope.decided;
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("DANA NMI average: %.2f original -> %.2f locked "
              "(paper: 0.95 -> 0.41)\n",
              nmi_orig_sum / static_cast<double>(rows.size()),
              nmi_locked_sum / static_cast<double>(rows.size()));
  std::printf("FALL confirmed keys: %zu (paper: 0)\n", fall_keys_total);
  std::printf("SCOPE decided bits: %zu (expected: 0 — every bit Unknown)\n",
              scope_decided_total);
  const bool shape_holds = nmi_locked_sum < nmi_orig_sum &&
                           fall_keys_total == 0 && scope_decided_total == 0;
  return shape_holds ? 0 : 1;
}
