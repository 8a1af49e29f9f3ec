#include "netlist/topo.hpp"

#include <algorithm>
#include <stdexcept>

namespace cl::netlist {

Levelization levelize(const Netlist& nl) {
  const std::size_t n = nl.size();
  const std::span<const GateType> types = nl.types();
  Levelization out;
  // A gate's level is 1 + its highest fanin level; sources and DFF Qs are
  // level 0. Gates start unvisited, are on the stack while their fanins are
  // levelled, and reaching a gate on the stack again closes a cycle.
  constexpr int k_unvisited = -1;
  constexpr int k_on_stack = -2;
  out.level.resize(n);
  for (SignalId id = 0; id < n; ++id) {
    out.level[id] = is_comb_gate(types[id]) ? k_unvisited : 0;
  }
  // Iterative depth-first search over fanins from every unvisited gate in
  // ascending id: a frame resumes at its next fanin after a child finishes.
  struct Frame {
    SignalId id;
    std::uint32_t next;  // fanins [0, next) are levelled
    int best;            // their highest level
  };
  std::vector<Frame> stack;
  int max_level = 0;
  for (SignalId root = 0; root < n; ++root) {
    if (out.level[root] != k_unvisited) continue;
    out.level[root] = k_on_stack;
    stack.push_back({root, 0, 0});
    while (!stack.empty()) {
      Frame& top = stack.back();
      const std::span<const SignalId> fanins = nl.fanins(top.id);
      while (top.next < fanins.size()) {
        const int lf = out.level[fanins[top.next]];
        if (lf < 0) break;
        top.best = std::max(top.best, lf);
        ++top.next;
      }
      if (top.next == fanins.size()) {
        out.level[top.id] = top.best + 1;
        max_level = std::max(max_level, top.best + 1);
        stack.pop_back();
        continue;
      }
      const SignalId f = fanins[top.next];
      if (out.level[f] == k_on_stack) {
        throw std::logic_error("levelize: combinational cycle detected");
      }
      out.level[f] = k_on_stack;
      stack.push_back({f, 0, 0});
    }
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
