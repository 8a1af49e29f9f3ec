#include "tech/overhead.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "netlist/optimize.hpp"
#include "sim/compiled.hpp"
#include "util/rng.hpp"

namespace cl::tech {

using netlist::Netlist;
using netlist::SignalId;

namespace {
double pct(double value, double base) {
  if (base <= 0.0) return 0.0;
  return 100.0 * (value - base) / base;
}
}  // namespace

double OverheadReport::power_overhead_pct(const OverheadReport& base) const {
  return pct(power_w, base.power_w);
}
double OverheadReport::area_overhead_pct(const OverheadReport& base) const {
  return pct(area_um2, base.area_um2);
}
double OverheadReport::cells_overhead_pct(const OverheadReport& base) const {
  return pct(static_cast<double>(cells), static_cast<double>(base.cells));
}
double OverheadReport::ios_overhead_pct(const OverheadReport& base) const {
  return pct(static_cast<double>(ios), static_cast<double>(base.ios));
}

OverheadReport analyze_overhead(const Netlist& nl,
                                const OverheadOptions& options) {
  const CellLibrary& lib = CellLibrary::nangate45_like();
  // Optimize first, as a synthesis tool would (constant propagation,
  // strashing, dead-logic sweep), then map.
  const MappedDesign mapped = map_to_cells(netlist::optimize(nl));

  OverheadReport report;
  report.cells = mapped.total_cells();
  report.area_um2 = mapped.total_area(lib);
  report.ios = nl.inputs().size() + nl.key_inputs().size() +
               nl.outputs().size() + 1;  // +1 clock

  // Switching activity: random inputs & keys, 64 lanes, toggles counted on
  // the mapped design so tree-decomposition internal nodes are included.
  // From the second cycle on, a signal toggles once per lane whose word
  // differs from its word at the previous cycle's evaluation. Toggles are
  // counted per slot, in buffer order.
  const Netlist& m = mapped.netlist;
  sim::WideSim simulator(m);
  std::vector<std::uint64_t> previous(m.size(), 0);
  std::vector<std::uint64_t> toggles(m.size(), 0);
  util::Rng rng(options.seed);
  for (std::size_t c = 0; c < options.activity_cycles; ++c) {
    for (SignalId i : m.inputs()) simulator.set_word(i, 0, rng.next_u64());
    for (SignalId k : m.key_inputs()) simulator.set_word(k, 0, rng.next_u64());
    simulator.eval();
    const std::span<const std::uint64_t> words = simulator.words();
    if (c > 0) {
      for (std::size_t s = 0; s < words.size(); ++s) {
        toggles[s] +=
            static_cast<std::uint64_t>(std::popcount(words[s] ^ previous[s]));
      }
    }
    std::copy(words.begin(), words.end(), previous.begin());
    simulator.step();
  }

  const double lanes = 64.0 * static_cast<double>(options.activity_cycles - 1);
  double dynamic_w = 0.0;
  for (SignalId s = 0; s < m.size(); ++s) {
    const netlist::GateType t = m.type(s);
    if (t == netlist::GateType::Input || t == netlist::GateType::KeyInput) {
      continue;
    }
    const double toggles_per_cycle =
        static_cast<double>(toggles[simulator.compiled().slot(s)]) / lanes;
    const Cell& cell = lib.cell(cell_for_gate(t));
    // E[J/toggle] * toggles/cycle * cycles/s.
    dynamic_w += cell.switch_energy_fj * 1e-15 * toggles_per_cycle *
                 options.clock_hz;
  }
  const double leakage_w = mapped.total_leakage_nw(lib) * 1e-9;
  report.power_w = dynamic_w + leakage_w;
  return report;
}

}  // namespace cl::tech
