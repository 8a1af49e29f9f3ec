#include "netlist/topo.hpp"

#include <algorithm>
#include <stdexcept>

namespace cl::netlist {

Levelization levelize(const Netlist& nl) { return levelize(nl, fanouts(nl)); }

Levelization levelize(const Netlist& nl, const Fanouts& fo) {
  const std::size_t n = nl.size();
  const std::span<const GateType> types = nl.types();
  Levelization out;
  out.level.assign(n, 0);
  // Kahn's algorithm over combinational edges only; levels fall out of the
  // retirement order (a gate is 1 + max fanin level).
  std::vector<std::uint32_t> pending(n, 0);
  std::vector<SignalId> ready;
  std::size_t num_gates = 0;
  for (SignalId id = 0; id < n; ++id) {
    if (!is_comb_gate(types[id])) continue;
    ++num_gates;
    std::uint32_t deg = 0;
    for (SignalId f : nl.fanins(id)) {
      if (is_comb_gate(types[f])) ++deg;
    }
    pending[id] = deg;
    if (deg == 0) ready.push_back(id);
  }
  // Gates whose fanins are all sources/DFFs are immediately ready; release
  // the rest as their combinational fanins retire.
  std::size_t head = 0;
  int max_level = 0;
  while (head < ready.size()) {
    const SignalId id = ready[head++];
    int best = 0;
    for (SignalId f : nl.fanins(id)) {
      best = std::max(best, out.level[f]);
    }
    out.level[id] = best + 1;
    max_level = std::max(max_level, best + 1);
    for (SignalId reader : fo[id]) {
      if (!is_comb_gate(types[reader])) continue;
      if (--pending[reader] == 0) ready.push_back(reader);
    }
  }
  if (ready.size() != num_gates) {
    throw std::logic_error("levelize: combinational cycle detected");
  }
  // Counting sort into level groups: sources (level 0) first, then gates by
  // level, ascending SignalId within each level — a deterministic order the
  // sharded evaluator can chunk without synchronization inside a level.
  const std::size_t num_levels = static_cast<std::size_t>(max_level) + 1;
  std::vector<std::size_t> count(num_levels, 0);
  for (SignalId id = 0; id < n; ++id) {
    ++count[static_cast<std::size_t>(out.level[id])];
  }
  out.level_begin.assign(num_levels + 1, 0);
  for (std::size_t l = 0; l < num_levels; ++l) {
    out.level_begin[l + 1] = out.level_begin[l] + count[l];
  }
  out.order.assign(n, 0);
  std::vector<std::size_t> cursor(out.level_begin.begin(),
                                  out.level_begin.end() - 1);
  for (SignalId id = 0; id < n; ++id) {
    out.order[cursor[static_cast<std::size_t>(out.level[id])]++] = id;
  }
  return out;
}

std::vector<SignalId> topo_order(const Netlist& nl) {
  return levelize(nl).order;
}

Fanouts fanouts(const Netlist& nl) {
  const std::size_t n = nl.size();
  Fanouts fo;
  fo.offsets.assign(n + 1, 0);
  for (SignalId id = 0; id < n; ++id) {
    for (SignalId f : nl.fanins(id)) ++fo.offsets[f + 1];
  }
  for (std::size_t s = 0; s < n; ++s) fo.offsets[s + 1] += fo.offsets[s];
  // Readers are placed in ascending id order, so each list ascends.
  fo.readers.resize(nl.fanin_refs());
  std::vector<std::uint32_t> cursor(fo.offsets.begin(), fo.offsets.end() - 1);
  for (SignalId id = 0; id < n; ++id) {
    for (SignalId f : nl.fanins(id)) fo.readers[cursor[f]++] = id;
  }
  return fo;
}

std::vector<bool> comb_fanin_cone(const Netlist& nl,
                                  const std::vector<SignalId>& roots) {
  std::vector<bool> in_cone(nl.size(), false);
  std::vector<SignalId> stack = roots;
  while (!stack.empty()) {
    const SignalId id = stack.back();
    stack.pop_back();
    if (in_cone[id]) continue;
    in_cone[id] = true;
    if (is_comb_gate(nl.type(id))) {
      for (SignalId f : nl.fanins(id)) {
        if (!in_cone[f]) stack.push_back(f);
      }
    }
  }
  return in_cone;
}

std::vector<std::vector<SignalId>> dff_dependencies(const Netlist& nl) {
  std::vector<std::vector<SignalId>> deps;
  deps.reserve(nl.dffs().size());
  for (SignalId d : nl.dffs()) {
    const std::vector<bool> cone = comb_fanin_cone(nl, {nl.dff_input(d)});
    std::vector<SignalId> sources;
    for (SignalId q : nl.dffs()) {
      if (cone[q]) sources.push_back(q);
    }
    deps.push_back(std::move(sources));
  }
  return deps;
}

}  // namespace cl::netlist
