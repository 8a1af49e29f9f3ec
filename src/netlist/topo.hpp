// Structural analyses over a Netlist: topological order and logic levels of
// the combinational core, fanout lists, and transitive fanin cones.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace cl::netlist {

/// Fanout adjacency in CSR form: for each signal, the nodes reading it (gate
/// fanins and DFF D-pins), in ascending reader id with one entry per fanin
/// occurrence (a gate reading s twice is listed twice). Primary-output
/// designations are not included. `fo[s]` views the readers of s.
struct Fanouts {
  // The readers of s are readers[offsets[s] .. offsets[s + 1]).
  std::vector<std::uint32_t> offsets;  // one per signal, plus one
  std::vector<SignalId> readers;

  std::span<const SignalId> operator[](SignalId s) const {
    return {readers.data() + offsets[s], readers.data() + offsets[s + 1]};
  }
};

/// Level-sorted topological view of the combinational core — the single
/// levelization point every evaluator (compiled simulator, CNF encoder,
/// structural analyses) builds on. `order` lists sources and DFF Qs first
/// (level 0), then combinational gates grouped by logic level in ascending
/// SignalId order within each level; `level_begin[l] .. level_begin[l+1]`
/// delimits level l inside `order` (level 0 = the sources).
struct Levelization {
  std::vector<SignalId> order;
  std::vector<int> level;  // per SignalId: 0 for sources, 1 + max fanin level
  std::vector<std::size_t> level_begin;   // size num_levels + 1
  std::size_t num_levels() const { return level_begin.size() - 1; }
};

/// Compute the levelization: an iterative depth-first search over fanins
/// levels every gate (no fanout table is built), and a counting sort by
/// level gives `order`. Throws std::logic_error on a combinational cycle.
Levelization levelize(const Netlist& nl);

/// Topological order of all nodes such that every combinational gate appears
/// after its fanins. Sources and DFFs (whose Q is a sequential source) come
/// first. Throws on combinational cycles. (Convenience view of levelize().)
std::vector<SignalId> topo_order(const Netlist& nl);

/// The netlist's fanout table (see Fanouts).
Fanouts fanouts(const Netlist& nl);

/// Transitive fanin cone of `roots`, stopping at (and including) sources and
/// DFF outputs. Returned as a membership flag vector indexed by SignalId.
std::vector<bool> comb_fanin_cone(const Netlist& nl,
                                  const std::vector<SignalId>& roots);

/// For every DFF d, the set of DFFs whose Q appears in the combinational
/// fanin cone of d's D pin — the register dependency graph used by DANA.
std::vector<std::vector<SignalId>> dff_dependencies(const Netlist& nl);

}  // namespace cl::netlist
