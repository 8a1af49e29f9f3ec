// The attacker's oracle: a working chip bought off the market. It evaluates
// the *original* (unlocked) circuit on attacker-chosen input sequences from
// reset. The attacker never sees the key schedule or the internal state —
// only input/output behaviour — matching the paper's threat model.
//
// The reference circuit is compiled once (sim::CompiledNetlist), so repeated
// queries skip per-query levelization, and query_batch() evaluates many
// sequences in one wide-lane pass.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"
#include "sim/sequence.hpp"

namespace cl::attack {

class SequentialOracle {
 public:
  explicit SequentialOracle(const netlist::Netlist& original);

  /// Outputs for an input sequence applied from reset.
  std::vector<sim::BitVec> query(const std::vector<sim::BitVec>& inputs) const;

  /// Scan-mode combinational query (for circuits prepared with
  /// scan_expose()): single-cycle evaluation.
  sim::BitVec query_comb(const sim::BitVec& inputs) const;

  /// Batched query: `sequences.size()` independent input sequences (equal
  /// length) evaluated in one wide-lane pass. Element j of the result equals
  /// query(sequences[j]).
  std::vector<std::vector<sim::BitVec>> query_batch(
      const std::vector<std::vector<sim::BitVec>>& sequences) const;

  /// Oracle budget accounting in *patterns*: every input sequence applied
  /// from reset counts once, whether it arrived through query(),
  /// query_comb(), or a lane of query_batch(). Counting lanes (not call
  /// sites) keeps attack-budget comparisons honest as lane width grows.
  /// Atomic because the service's circuit cache shares one oracle across
  /// concurrent jobs (the compiled netlist itself is immutable after
  /// construction, so const queries are otherwise race-free).
  std::uint64_t num_queries() const {
    return patterns_.load(std::memory_order_relaxed);
  }
  std::size_t num_inputs() const { return original_.inputs().size(); }
  std::size_t num_outputs() const { return original_.outputs().size(); }
  const netlist::Netlist& reference() const { return original_; }
  /// The reference circuit as compiled once at construction.
  const sim::CompiledNetlist& compiled() const { return compiled_; }

 private:
  const netlist::Netlist& original_;
  sim::CompiledNetlist compiled_;
  mutable std::atomic<std::uint64_t> patterns_{0};
};

}  // namespace cl::attack
