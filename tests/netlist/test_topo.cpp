#include "netlist/topo.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
  // Prebuilt fanout lists give the same levelization.
  const Levelization again = levelize(nl, fanouts(nl));
  EXPECT_EQ(again.level, lv.level);
  EXPECT_EQ(again.order, lv.order);
  EXPECT_EQ(again.level_begin, lv.level_begin);
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
