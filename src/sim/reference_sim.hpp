// The pre-compilation 64-lane evaluator: walks the Netlist node graph in
// topological order, one switch per gate per eval. Kept verbatim as (a) the
// independent oracle the randomized CompiledNetlist cross-check tests
// compare against and (b) the bench_micro_perf baseline the compiled
// engine's speedup is measured from. Production code paths use WideSim,
// which rides the compiled core.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace cl::sim {

class ReferenceSim {
 public:
  explicit ReferenceSim(const netlist::Netlist& nl);

  /// Reset all DFFs to their power-up values (X treated as 0) and clear
  /// input/key words.
  void reset();

  /// Assign the 64-lane word of a primary/key input.
  void set(netlist::SignalId s, std::uint64_t word);

  /// Current word of any signal (valid after eval()).
  std::uint64_t get(netlist::SignalId s) const { return values_[s]; }

  /// Propagate through the combinational core.
  void eval();

  /// Latch every DFF: Q <= D. Call after eval().
  void step();

 private:
  const netlist::Netlist& nl_;
  std::vector<netlist::SignalId> order_;
  std::vector<std::uint64_t> values_;
};

}  // namespace cl::sim
