// Ablation — time-base period (k) vs overhead and attack behaviour.
//
// Sweeps the number of keys k on one circuit: overhead grows with the MUX
// tree height (log2(k)+1 layers, k layer-1 slots) while the oracle-guided
// attack outcome stays at CNS for every k >= 2.
//
// One Runner job per k; every job rebuilds circuit, lock and oracle.
#include <cstdio>
#include <vector>

#include "attack/registry.hpp"
#include "bench_common.hpp"
#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "runner.hpp"
#include "tech/overhead.hpp"
#include "util/table.hpp"

namespace {

using namespace cl;

struct Sweep {
  std::size_t k = 0;
  std::size_t counter_ffs = 0;
  double area_pct = 0.0;
  double cells_pct = 0.0;
  attack::AttackResult bmc;
};

lock::LockResult lock_circuit(const netlist::Netlist& nl, std::size_t k) {
  core::StrOptions options;
  options.num_keys = k;
  options.key_bits = 4;
  options.locked_ffs = 2;
  options.seed = 0xab2b;
  return core::cute_lock_str(nl, options);
}

}  // namespace

int main() {
  using namespace cl;
  std::printf("ABLATION: key count k vs overhead and BMC outcome (b10)\n\n");
  const double seconds = bench::attack_seconds(2.0);

  std::vector<Sweep> sweeps;
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    Sweep sweep;
    sweep.k = k;
    sweeps.push_back(std::move(sweep));
  }

  bench::Runner runner("ablation_key_count");
  const attack::AttackMode& bmc = attack::find_attack_mode("bmc");
  attack::ModeOptions options;
  options.budget = bench::table_budget(seconds);
  for (Sweep& sweep : sweeps) {
    const std::size_t k = sweep.k;
    runner.add({"ITC'99", "b10", "overhead", static_cast<int>(k), 4},
               [&sweep, k]() {
                 const auto circuit = benchgen::make_circuit("b10");
                 const tech::OverheadReport base =
                     tech::analyze_overhead(circuit.netlist);
                 const auto locked = lock_circuit(circuit.netlist, k);
                 const tech::OverheadReport r =
                     tech::analyze_overhead(locked.locked);
                 sweep.counter_ffs = locked.locked.dffs().size() -
                                     circuit.netlist.dffs().size();
                 sweep.area_pct = r.area_overhead_pct(base);
                 sweep.cells_pct = r.cells_overhead_pct(base);
                 char area[16];
                 std::snprintf(area, sizeof area, "%.1f", sweep.area_pct);
                 return bench::JobOutcome{area, -1.0, 0};
               });
    runner.add_attack({"ITC'99", "b10", bmc.label, static_cast<int>(k), 4},
                      &sweep.bmc, [k, &bmc, options]() {
                        const auto circuit = benchgen::make_circuit("b10");
                        const auto locked = lock_circuit(circuit.netlist, k);
                        return attack::run_attack_mode(bmc, locked.locked,
                                                       circuit.netlist, options)
                            .result;
                      });
  }
  runner.run();

  util::Table table({"k", "counter FFs", "area ovh %", "cells ovh %", "BMC"});
  double prev_area = -1;
  bool area_grows = true;
  bool all_held = true;
  for (const Sweep& sweep : sweeps) {
    all_held = all_held && attack::defense_held(sweep.bmc.outcome);
    char area[16], cells[16];
    std::snprintf(area, sizeof area, "%.1f", sweep.area_pct);
    std::snprintf(cells, sizeof cells, "%.1f", sweep.cells_pct);
    table.add_row({std::to_string(sweep.k), std::to_string(sweep.counter_ffs),
                   area, cells, bench::attack_cell(sweep.bmc)});
    if (prev_area >= 0 && sweep.area_pct < prev_area) area_grows = false;
    prev_area = sweep.area_pct;
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("area overhead grows with k: %s; defense held for all k: %s\n",
              area_grows ? "yes" : "no", all_held ? "yes" : "no");
  return all_held ? 0 : 1;
}
