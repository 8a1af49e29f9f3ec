// The two-valued simulator at one lane word: gate semantics per lane,
// constants, N-ary gates, DFF power-up and the two-phase clock edge.
#include "sim/compiled.hpp"

#include <gtest/gtest.h>

namespace cl::sim {
namespace {

using netlist::Netlist;
using netlist::SignalId;

TEST(WideSim, CombinationalGateSemantics) {
  Netlist nl("gates");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId and_g = nl.add_and(a, b, "and_g");
  const SignalId or_g = nl.add_or(a, b, "or_g");
  const SignalId xor_g = nl.add_xor(a, b, "xor_g");
  const SignalId nand_g = nl.add_gate(netlist::GateType::Nand, {a, b}, "nand_g");
  const SignalId nor_g = nl.add_gate(netlist::GateType::Nor, {a, b}, "nor_g");
  const SignalId xnor_g = nl.add_xnor(a, b, "xnor_g");
  const SignalId not_g = nl.add_not(a, "not_g");
  nl.add_output(and_g);

  WideSim sim(nl);
  // Lanes encode the 4 input combinations: a=0101..., b=0011...
  sim.set_word(a, 0, 0b0101);
  sim.set_word(b, 0, 0b0011);
  sim.eval();
  EXPECT_EQ(sim.get_word(and_g, 0) & 0xf, 0b0001u);
  EXPECT_EQ(sim.get_word(or_g, 0) & 0xf, 0b0111u);
  EXPECT_EQ(sim.get_word(xor_g, 0) & 0xf, 0b0110u);
  EXPECT_EQ(sim.get_word(nand_g, 0) & 0xf, 0b1110u);
  EXPECT_EQ(sim.get_word(nor_g, 0) & 0xf, 0b1000u);
  EXPECT_EQ(sim.get_word(xnor_g, 0) & 0xf, 0b1001u);
  EXPECT_EQ(sim.get_word(not_g, 0) & 0xf, 0b1010u);
}

TEST(WideSim, MuxSelectsPerLane) {
  Netlist nl("mux");
  const SignalId s = nl.add_input("s");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId y = nl.add_mux(s, a, b, "y");
  nl.add_output(y);
  WideSim sim(nl);
  sim.set_word(s, 0, 0b01);
  sim.set_word(a, 0, 0b10);
  sim.set_word(b, 0, 0b11);
  sim.eval();
  // lane0: s=1 -> b=1 ; lane1: s=0 -> a=1
  EXPECT_EQ(sim.get_word(y, 0) & 0b11, 0b11u);
}

TEST(WideSim, ConstantsEvaluate) {
  Netlist nl("c");
  const SignalId one = nl.add_const(true, "one");
  const SignalId zero = nl.add_const(false, "zero");
  nl.add_output(one);
  WideSim sim(nl);
  sim.eval();
  EXPECT_EQ(sim.get_word(one, 0), ~0ULL);
  EXPECT_EQ(sim.get_word(zero, 0), 0ULL);
}

TEST(WideSim, MultiInputGates) {
  Netlist nl("multi");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId c = nl.add_input("c");
  const SignalId and3 = nl.add_gate(netlist::GateType::And, {a, b, c}, "and3");
  const SignalId xor3 = nl.add_gate(netlist::GateType::Xor, {a, b, c}, "xor3");
  nl.add_output(and3);
  WideSim sim(nl);
  sim.set_word(a, 0, 0b1111'0000);  // lanes 4..7
  sim.set_word(b, 0, 0b1100'1100);
  sim.set_word(c, 0, 0b1010'1010);
  sim.eval();
  EXPECT_EQ(sim.get_word(and3, 0) & 0xff, 0b1000'0000u);
  // xor3 = parity.
  EXPECT_EQ(sim.get_word(xor3, 0) & 0xff, 0b1001'0110u);
}

TEST(WideSim, SequentialCounterSteps) {
  // 1-bit toggler: q <= ~q, init 0.
  Netlist nl("tog");
  SignalId q = nl.add_dff(netlist::k_no_signal, netlist::DffInit::Zero, "q");
  nl.set_dff_input(q, nl.add_not(q, "nq"));
  nl.add_output(q);
  WideSim sim(nl);
  std::vector<std::uint64_t> seen;
  for (int t = 0; t < 4; ++t) {
    sim.eval();
    seen.push_back(sim.get_word(q, 0) & 1ULL);
    sim.step();
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 0, 1}));
}

TEST(WideSim, DffInitRespectedOnReset) {
  Netlist nl("init");
  const SignalId a = nl.add_input("a");
  const SignalId q1 = nl.add_dff(a, netlist::DffInit::One, "q1");
  const SignalId q0 = nl.add_dff(a, netlist::DffInit::Zero, "q0");
  nl.add_output(q1);
  WideSim sim(nl);
  EXPECT_EQ(sim.get_word(q1, 0), ~0ULL);
  EXPECT_EQ(sim.get_word(q0, 0), 0ULL);
  sim.set_word(a, 0, 0);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.get_word(q1, 0), 0ULL);
  sim.reset();
  EXPECT_EQ(sim.get_word(q1, 0), ~0ULL);
}

TEST(WideSim, RegisterToRegisterShiftIsTwoPhase) {
  // Shift register: q2 <= q1, q1 <= a. A one-cycle pulse on `a` must take
  // exactly two steps to reach q2 (no shoot-through).
  Netlist nl("shift");
  const SignalId a = nl.add_input("a");
  const SignalId q1 = nl.add_dff(a, netlist::DffInit::Zero, "q1");
  const SignalId q2 = nl.add_dff(q1, netlist::DffInit::Zero, "q2");
  nl.add_output(q2);
  WideSim sim(nl);
  sim.set_word(a, 0, ~0ULL);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.get_word(q1, 0), ~0ULL);
  EXPECT_EQ(sim.get_word(q2, 0), 0ULL);  // not yet
  sim.set_word(a, 0, 0);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.get_word(q2, 0), ~0ULL);
}

TEST(WideSim, SetRejectsNonInputs) {
  Netlist nl("x");
  const SignalId a = nl.add_input("a");
  const SignalId g = nl.add_not(a, "g");
  nl.add_output(g);
  WideSim sim(nl);
  EXPECT_THROW(sim.set_word(g, 0, 1), std::invalid_argument);
  EXPECT_THROW(sim.set_word(a, 1, 1), std::out_of_range);  // one lane word
}

}  // namespace
}  // namespace cl::sim
