#include "netlist/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace cl::netlist {
namespace {

Netlist chain3() {
  // a -> g1 -> g2 -> g3 -> out; q feeds g2 as well.
  Netlist nl("chain3");
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(k_no_signal, DffInit::Zero, "q");
  const SignalId g1 = nl.add_not(a, "g1");
  const SignalId g2 = nl.add_and(g1, q, "g2");
  const SignalId g3 = nl.add_or(g2, a, "g3");
  nl.set_dff_input(q, g3);
  nl.add_output(g3);
  return nl;
}

TEST(Topo, OrderRespectsFaninBeforeGate) {
  const Netlist nl = chain3();
  const auto order = topo_order(nl);
  EXPECT_EQ(order.size(), nl.size());
  std::vector<std::size_t> pos(nl.size());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (SignalId id = 0; id < nl.size(); ++id) {
    if (!is_comb_gate(nl.type(id))) continue;
    for (SignalId f : nl.node(id).fanins) {
      EXPECT_LT(pos[f], pos[id]) << "fanin after gate";
    }
  }
}

TEST(Topo, LevelsIncreaseAlongChain) {
  const Netlist nl = chain3();
  const Levelization lv = levelize(nl);
  const auto& level = lv.level;
  EXPECT_EQ(level[nl.find("a")], 0);
  EXPECT_EQ(level[nl.find("q")], 0);
  EXPECT_EQ(level[nl.find("g1")], 1);
  EXPECT_EQ(level[nl.find("g2")], 2);
  EXPECT_EQ(level[nl.find("g3")], 3);
}

/// Levels by brute force: every gate starts at 1 and is raised to one past
/// its highest fanin until nothing changes; sources and DFF Qs stay at 0.
std::vector<int> fixpoint_levels(const Netlist& nl) {
  std::vector<int> level(nl.size(), 0);
  for (SignalId id = 0; id < nl.size(); ++id) {
    if (is_comb_gate(nl.type(id))) level[id] = 1;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (SignalId id = 0; id < nl.size(); ++id) {
      if (!is_comb_gate(nl.type(id))) continue;
      for (const SignalId f : nl.fanins(id)) {
        if (level[f] + 1 > level[id]) {
          level[id] = level[f] + 1;
          changed = true;
        }
      }
    }
  }
  return level;
}

/// A random netlist whose gates read gates of higher ids: every gate is
/// added over sources, then rewired to read gates of lower rank, ranks being
/// a random permutation of the gates (so the result stays acyclic).
Netlist out_of_order_netlist(util::Rng& rng) {
  Netlist nl("shuffled");
  const std::vector<SignalId> sources = {
      nl.add_input("a"), nl.add_input("b"), nl.add_key_input("k"),
      nl.add_const(true, "one"), nl.add_dff(k_no_signal, DffInit::Zero, "q")};
  const auto source = [&] { return sources[rng.next_below(sources.size())]; };
  constexpr GateType k_types[] = {GateType::Buf, GateType::Not, GateType::And,
                                  GateType::Or,  GateType::Xor, GateType::Mux};
  const std::size_t num_gates = 8 + rng.next_below(40);
  std::vector<SignalId> gates;
  for (std::size_t i = 0; i < num_gates; ++i) {
    const GateType type = k_types[rng.next_below(std::size(k_types))];
    const std::size_t arity = type == GateType::Buf || type == GateType::Not ? 1
                              : type == GateType::Mux ? 3
                                                      : 2 + rng.next_below(3);
    std::vector<SignalId> fanins;
    for (std::size_t p = 0; p < arity; ++p) fanins.push_back(source());
    gates.push_back(nl.add_gate(type, fanins, "g" + std::to_string(i)));
  }
  std::vector<std::size_t> rank(num_gates);
  for (std::size_t i = 0; i < num_gates; ++i) rank[i] = i;
  rng.shuffle(rank);
  for (std::size_t i = 0; i < num_gates; ++i) {
    // Each distinct source once: replace_fanin rewires every pin reading it.
    std::vector<SignalId> fanins(nl.fanins(gates[i]).begin(),
                                 nl.fanins(gates[i]).end());
    std::sort(fanins.begin(), fanins.end());
    fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
    for (const SignalId f : fanins) {
      const std::size_t j = rng.next_below(num_gates);
      if (rank[j] < rank[i] && rng.chance(3, 4)) {
        nl.replace_fanin(gates[i], f, gates[j]);
      }
    }
  }
  nl.set_dff_input(sources[4], gates[rng.next_below(num_gates)]);
  nl.add_output(gates[rng.next_below(num_gates)]);
  return nl;
}

void expect_cycle_error(const Netlist& nl) {
  try {
    (void)levelize(nl);
    ADD_FAILURE() << "no cycle reported";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "levelize: combinational cycle detected");
  }
}

TEST(Topo, LevelizeMatchesFixpointOnOutOfOrderIds) {
  util::Rng rng(0x1e7e1);
  std::size_t forward_reads = 0;
  for (int trial = 0; trial < 64; ++trial) {
    const Netlist nl = out_of_order_netlist(rng);
    for (SignalId id = 0; id < nl.size(); ++id) {
      if (!is_comb_gate(nl.type(id))) continue;
      for (const SignalId f : nl.fanins(id)) forward_reads += f > id ? 1 : 0;
    }
    const std::vector<int> want = fixpoint_levels(nl);
    std::vector<SignalId> order(nl.size());
    for (SignalId id = 0; id < nl.size(); ++id) order[id] = id;
    std::stable_sort(order.begin(), order.end(), [&](SignalId x, SignalId y) {
      return want[x] < want[y];
    });
    const int top = *std::max_element(want.begin(), want.end());
    std::vector<std::size_t> level_begin(static_cast<std::size_t>(top) + 2, 0);
    for (const int l : want) ++level_begin[static_cast<std::size_t>(l) + 1];
    for (std::size_t l = 1; l < level_begin.size(); ++l) {
      level_begin[l] += level_begin[l - 1];
    }
    const Levelization lv = levelize(nl);
    EXPECT_EQ(lv.level, want) << "trial " << trial;
    EXPECT_EQ(lv.order, order) << "trial " << trial;
    EXPECT_EQ(lv.level_begin, level_begin) << "trial " << trial;
  }
  EXPECT_GT(forward_reads, 0u);

  // A two-gate loop, a gate reading itself, and a three-gate loop reached
  // through a gate outside it.
  Netlist pair("pair");
  const SignalId a = pair.add_input("a");
  const SignalId b = pair.add_input("b");
  const SignalId g = pair.add_and(a, b, "g");
  const SignalId h = pair.add_or(g, a, "h");
  pair.replace_fanin(g, b, h);
  pair.add_output(h);
  expect_cycle_error(pair);

  Netlist self("self");
  const SignalId x = self.add_input("x");
  const SignalId y = self.add_input("y");
  const SignalId s = self.add_xor(x, y, "s");
  self.replace_fanin(s, y, s);
  self.add_output(s);
  expect_cycle_error(self);

  Netlist ring("ring");
  const SignalId i = ring.add_input("i");
  const SignalId entry = ring.add_not(i, "entry");
  const SignalId r1 = ring.add_and(i, i, "r1");
  const SignalId r2 = ring.add_not(r1, "r2");
  const SignalId r3 = ring.add_or(r2, i, "r3");
  ring.replace_fanin(r1, i, r3);
  ring.replace_fanin(entry, i, r2);
  ring.add_output(entry);
  expect_cycle_error(ring);
}

TEST(Topo, FanoutsListReaders) {
  const Netlist nl = chain3();
  const auto fo = fanouts(nl);
  const SignalId a = nl.find("a");
  // a feeds g1 and g3.
  EXPECT_EQ(fo[a].size(), 2u);
  // g3 feeds the DFF D-pin.
  const SignalId g3 = nl.find("g3");
  ASSERT_EQ(fo[g3].size(), 1u);
  EXPECT_EQ(fo[g3][0], nl.find("q"));
}

TEST(Topo, FanoutsKeepReaderOrderAndRepeats) {
  // x = AND(a, a) reads a twice; q is a self-looped DFF; y reads x, a, q.
  Netlist nl("repeats");
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(k_no_signal, DffInit::Zero, "q");
  const SignalId x = nl.add_gate(GateType::And, {a, a}, "x");
  const SignalId y = nl.add_gate(GateType::Or, {x, a, q}, "y");
  const SignalId z = nl.add_gate(GateType::Xor, {q, a}, "z");
  nl.add_output(y);
  nl.add_output(z);
  const Fanouts fo = fanouts(nl);
  ASSERT_EQ(fo.offsets.size(), nl.size() + 1);
  const auto list = [&](SignalId s) {
    return std::vector<SignalId>(fo[s].begin(), fo[s].end());
  };
  EXPECT_EQ(list(a), (std::vector<SignalId>{x, x, y, z}));
  EXPECT_EQ(list(q), (std::vector<SignalId>{q, y, z}));  // q reads itself
  EXPECT_EQ(list(x), (std::vector<SignalId>{y}));
  EXPECT_TRUE(fo[y].empty());  // outputs are not readers
  EXPECT_EQ(fo.readers.size(), nl.fanin_refs());
  // Every list ascends, one entry per fanin occurrence.
  for (SignalId s = 0; s < nl.size(); ++s) {
    EXPECT_TRUE(std::is_sorted(fo[s].begin(), fo[s].end()));
    for (SignalId r : fo[s]) {
      const auto fanins = nl.fanins(r);
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(fo[s].begin(), fo[s].end(), r)),
                static_cast<std::size_t>(
                    std::count(fanins.begin(), fanins.end(), s)));
    }
  }
}

TEST(Topo, ConeStopsAtDffOutputs) {
  const Netlist nl = chain3();
  const auto cone = comb_fanin_cone(nl, {nl.find("g2")});
  EXPECT_TRUE(cone[nl.find("g2")]);
  EXPECT_TRUE(cone[nl.find("g1")]);
  EXPECT_TRUE(cone[nl.find("a")]);
  EXPECT_TRUE(cone[nl.find("q")]);   // included as a cone leaf
  EXPECT_FALSE(cone[nl.find("g3")]); // not in the fanin of g2
}

TEST(Topo, DffDependenciesFormRegisterGraph) {
  // q2's D depends on q1; q1's D depends on input only.
  Netlist nl;
  const SignalId a = nl.add_input("a");
  const SignalId q1 = nl.add_dff(k_no_signal, DffInit::Zero, "q1");
  const SignalId q2 = nl.add_dff(k_no_signal, DffInit::Zero, "q2");
  nl.set_dff_input(q1, nl.add_not(a, "g1"));
  nl.set_dff_input(q2, nl.add_and(q1, a, "g2"));
  const auto deps = dff_dependencies(nl);
  ASSERT_EQ(deps.size(), 2u);
  EXPECT_TRUE(deps[0].empty());
  ASSERT_EQ(deps[1].size(), 1u);
  EXPECT_EQ(deps[1][0], q1);
  (void)q2;
}

TEST(Topo, SelfLoopThroughDffAllowed) {
  Netlist nl;
  SignalId q = nl.add_dff(k_no_signal, DffInit::Zero, "q");
  const SignalId g = nl.add_not(q, "g");
  nl.set_dff_input(q, g);
  nl.add_output(q);
  const auto deps = dff_dependencies(nl);
  ASSERT_EQ(deps.size(), 1u);
  ASSERT_EQ(deps[0].size(), 1u);
  EXPECT_EQ(deps[0][0], q);
}

}  // namespace
}  // namespace cl::netlist
