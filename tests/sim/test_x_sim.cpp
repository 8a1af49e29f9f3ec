#include "sim/x_sim.hpp"

#include <gtest/gtest.h>

namespace cl::sim {
namespace {

using netlist::Netlist;
using netlist::SignalId;

TEST(Trit, KleeneConnectives) {
  EXPECT_EQ(trit_and(Trit::Zero, Trit::X), Trit::Zero);
  EXPECT_EQ(trit_and(Trit::One, Trit::X), Trit::X);
  EXPECT_EQ(trit_and(Trit::One, Trit::One), Trit::One);
  EXPECT_EQ(trit_or(Trit::One, Trit::X), Trit::One);
  EXPECT_EQ(trit_or(Trit::Zero, Trit::X), Trit::X);
  EXPECT_EQ(trit_xor(Trit::One, Trit::X), Trit::X);
  EXPECT_EQ(trit_xor(Trit::One, Trit::Zero), Trit::One);
  EXPECT_EQ(trit_not(Trit::X), Trit::X);
  EXPECT_EQ(trit_not(Trit::Zero), Trit::One);
}

TEST(Trit, MuxWithUnknownSelect) {
  // X select with agreeing data resolves; disagreeing stays X.
  EXPECT_EQ(trit_mux(Trit::X, Trit::One, Trit::One), Trit::One);
  EXPECT_EQ(trit_mux(Trit::X, Trit::Zero, Trit::One), Trit::X);
  EXPECT_EQ(trit_mux(Trit::Zero, Trit::One, Trit::Zero), Trit::One);
  EXPECT_EQ(trit_mux(Trit::One, Trit::One, Trit::Zero), Trit::Zero);
}

TEST(Trit, CharRendering) {
  EXPECT_EQ(trit_char(Trit::Zero), '0');
  EXPECT_EQ(trit_char(Trit::One), '1');
  EXPECT_EQ(trit_char(Trit::X), 'x');
}

TEST(XSim, PowerUpXPropagatesToOutput) {
  // q init X feeds output through a buffer: first cycle shows X, after one
  // clock with a known D the X clears.
  Netlist nl("x0");
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(a, netlist::DffInit::X, "q");
  nl.add_output(q);
  XSim sim(nl);
  sim.set(a, Trit::One);
  sim.eval();
  EXPECT_EQ(sim.outputs()[0], Trit::X);
  sim.step();
  sim.eval();
  EXPECT_EQ(sim.outputs()[0], Trit::One);
}

TEST(XSim, ControllingValuesMaskX) {
  Netlist nl("mask");
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(a, netlist::DffInit::X, "q");
  const SignalId g = nl.add_and(a, q, "g");
  const SignalId h = nl.add_or(a, q, "h");
  nl.add_output(g);
  nl.add_output(h);
  XSim sim(nl);
  sim.set(a, Trit::Zero);
  sim.eval();
  EXPECT_EQ(sim.get(g), Trit::Zero);  // 0 AND x = 0
  EXPECT_EQ(sim.get(h), Trit::X);     // 0 OR x = x
  sim.set(a, Trit::One);
  sim.eval();
  EXPECT_EQ(sim.get(g), Trit::X);     // 1 AND x = x
  EXPECT_EQ(sim.get(h), Trit::One);   // 1 OR x = 1
}

TEST(XSim, OutputsReadsLastEvalWithoutReEvaluating) {
  // outputs() is a pure reader: callers own eval().
  Netlist nl("outx");
  const SignalId a = nl.add_input("a");
  const SignalId g = nl.add_not(a, "g");
  nl.add_output(g);
  XSim sim(nl);
  sim.set(a, Trit::Zero);
  sim.eval();
  EXPECT_EQ(sim.outputs()[0], Trit::One);
  sim.set(a, Trit::One);  // no eval: stale input must not leak through
  EXPECT_EQ(sim.outputs()[0], Trit::One);
  sim.eval();
  EXPECT_EQ(sim.outputs()[0], Trit::Zero);
}

TEST(XSim, ResetRestoresInit) {
  Netlist nl("r");
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(a, netlist::DffInit::One, "q");
  nl.add_output(q);
  XSim sim(nl);
  EXPECT_EQ(sim.get(q), Trit::One);
  sim.set(a, Trit::Zero);
  sim.eval();
  sim.step();
  EXPECT_EQ(sim.get(q), Trit::Zero);
  sim.reset();
  EXPECT_EQ(sim.get(q), Trit::One);
}

TEST(XSim, XnorNorNandOfX) {
  Netlist nl("inv");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId xnor_g = nl.add_xnor(a, b, "xnor_g");
  const SignalId nand_g = nl.add_gate(netlist::GateType::Nand, {a, b}, "nand_g");
  nl.add_output(xnor_g);
  XSim sim(nl);
  sim.set(a, Trit::X);
  sim.set(b, Trit::Zero);
  sim.eval();
  EXPECT_EQ(sim.get(xnor_g), Trit::X);
  EXPECT_EQ(sim.get(nand_g), Trit::One);  // NAND with a 0 input is 1
}

}  // namespace
}  // namespace cl::sim
