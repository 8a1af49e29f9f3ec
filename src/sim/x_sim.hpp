// Three-valued (0/1/X) scalar simulator with pessimistic X propagation.
// Faithful to power-up-unknown flip-flops; used by the validation tables
// (Table II prints 'x' before the first clock edge) and by FALL's controlled
// X-analysis. Evaluation walks the CompiledNetlist's gates in levelize order
// with Kleene-logic kernels instead of the node graph; values are held per
// slot, and set()/get() map a SignalId through CompiledNetlist::slot().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace cl::sim {

enum class Trit : std::uint8_t { Zero = 0, One = 1, X = 2 };

/// Render '0' / '1' / 'x'.
char trit_char(Trit t);

/// Three-valued connectives (Kleene logic).
Trit trit_not(Trit a);
Trit trit_and(Trit a, Trit b);
Trit trit_or(Trit a, Trit b);
Trit trit_xor(Trit a, Trit b);
Trit trit_mux(Trit sel, Trit a, Trit b);

class XSim {
 public:
  explicit XSim(const netlist::Netlist& nl);
  /// Share a compilation with other evaluators of the same netlist.
  explicit XSim(std::shared_ptr<const CompiledNetlist> compiled);

  /// Reset DFFs to their power-up values (X init stays X); inputs become X.
  void reset();

  void set(netlist::SignalId s, Trit value);
  Trit get(netlist::SignalId s) const { return values_[compiled_->slot(s)]; }

  void eval();
  void step();

  /// Outputs in declaration order, as of the last eval(). Does NOT
  /// evaluate: callers own eval().
  std::vector<Trit> outputs() const;

 private:
  std::shared_ptr<const CompiledNetlist> compiled_;
  std::vector<Trit> values_;  // per slot
};

}  // namespace cl::sim
