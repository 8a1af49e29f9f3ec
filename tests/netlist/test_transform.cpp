#include "netlist/transform.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "netlist/bench_io.hpp"
#include "netlist/topo.hpp"

namespace cl::netlist {
namespace {

TEST(Transform, RemoveDanglingDropsUnreachableGates) {
  Netlist nl("d");
  const SignalId a = nl.add_input("a");
  const SignalId keep = nl.add_not(a, "keep");
  nl.add_and(a, keep, "dead");  // never used
  nl.add_output(keep);
  const Netlist out = remove_dangling(nl);
  EXPECT_EQ(out.find("dead"), k_no_signal);
  EXPECT_NE(out.find("keep"), k_no_signal);
  EXPECT_EQ(out.stats().gates, 1u);
}

TEST(Transform, RemoveDanglingKeepsPorts) {
  Netlist nl("p");
  nl.add_input("unused_in");
  nl.add_key_input("keyinput0");
  const SignalId a = nl.add_input("a");
  nl.add_output(nl.add_not(a, "y"));
  const Netlist out = remove_dangling(nl);
  EXPECT_NE(out.find("unused_in"), k_no_signal);
  EXPECT_NE(out.find("keyinput0"), k_no_signal);
}

TEST(Transform, RemoveDanglingKeepsSequentialLoops) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q = DFF(g)
g = XOR(q, a)
y = NOT(q)
)";
  const Netlist nl = read_bench_string(text);
  const Netlist out = remove_dangling(nl);
  EXPECT_EQ(out.dffs().size(), 1u);
  EXPECT_NE(out.find("g"), k_no_signal);
}

TEST(Transform, RemoveDanglingDropsDeadDff) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
deadq = DFF(a)
y = NOT(a)
)";
  const Netlist nl = read_bench_string(text);
  const Netlist out = remove_dangling(nl);
  EXPECT_EQ(out.dffs().size(), 0u);
  EXPECT_EQ(out.find("deadq"), k_no_signal);
}

TEST(Transform, DecomposeMuxesRemovesAllMuxGates) {
  Netlist nl("m");
  const SignalId s = nl.add_input("s");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  nl.add_output(nl.add_mux(s, a, b, "y"));
  const Netlist out = decompose_muxes(nl);
  for (SignalId id = 0; id < out.size(); ++id) {
    EXPECT_NE(out.type(id), GateType::Mux);
  }
  // y survives with the same name.
  EXPECT_NE(out.find("y"), k_no_signal);
}

TEST(Transform, StrashMergesDuplicateGates) {
  Netlist nl("s");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId g1 = nl.add_and(a, b, "g1");
  const SignalId g2 = nl.add_and(b, a, "g2");  // commutative duplicate
  nl.add_output(nl.add_xor(g1, g2, "y"));
  const Netlist out = strash(nl);
  // g1 and g2 merge; XOR(x, x) remains structurally (no const propagation).
  EXPECT_EQ(out.stats().gates, 2u);
}

TEST(Transform, StrashCollapsesBuffers) {
  Netlist nl("b");
  const SignalId a = nl.add_input("a");
  const SignalId buf = nl.add_gate(GateType::Buf, {a}, "buf");
  nl.add_output(nl.add_not(buf, "y"));
  const Netlist out = strash(nl);
  const SignalId y = out.find("y");
  ASSERT_NE(y, k_no_signal);
  EXPECT_EQ(out.node(y).fanins[0], out.find("a"));
}

TEST(Transform, StrashPreservesDffBoundary) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q1 = DFF(g)
q2 = DFF(g)
g = NOT(a)
y = XOR(q1, q2)
)";
  // Two DFFs with identical D must NOT merge (state duplication is
  // semantically meaningful under different init values).
  const Netlist nl = read_bench_string(text);
  const Netlist out = strash(nl);
  EXPECT_EQ(out.dffs().size(), 2u);
}

TEST(Transform, NameMapCoversEverySignal) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
y = NOT(a)
)";
  const Netlist nl = read_bench_string(text);
  EXPECT_EQ(nl.size(), 2u);
  for (SignalId id = 0; id < nl.size(); ++id) {
    EXPECT_EQ(nl.find(nl.signal_name(id)), id);
  }
  EXPECT_EQ(nl.find("a"), nl.inputs()[0]);
  EXPECT_EQ(nl.find("y"), nl.outputs()[0]);
}

TEST(Transform, PinSignalReplacesKeyInputWithConstant) {
  Netlist nl("pin");
  const SignalId a = nl.add_input("a");
  const SignalId k = nl.add_key_input("keyinput0");
  nl.add_output(nl.add_xor(a, k, "y"));
  const Netlist pinned = pin_signal(nl, k, true);
  EXPECT_EQ(pinned.key_inputs().size(), 0u);
  EXPECT_EQ(pinned.inputs().size(), 1u);
  const SignalId pk = pinned.find("keyinput0");
  ASSERT_NE(pk, k_no_signal);
  EXPECT_EQ(pinned.type(pk), GateType::Const1);
  EXPECT_EQ(pinned.outputs().size(), 1u);
}

TEST(Transform, PinSignalKeepsSequentialStructure) {
  const char* text = R"(
INPUT(a)
OUTPUT(y)
q = DFF(t)
t = AND(a, q)
y = NOT(q)
)";
  const Netlist nl = read_bench_string(text, "seq");
  const Netlist pinned = pin_signal(nl, nl.find("a"), false);
  EXPECT_EQ(pinned.inputs().size(), 0u);
  EXPECT_EQ(pinned.dffs().size(), 1u);
  EXPECT_EQ(pinned.type(pinned.find("a")), GateType::Const0);
  EXPECT_EQ(pinned.stats().gates, nl.stats().gates);
}

TEST(Transform, PinSignalRejectsNonPorts) {
  Netlist nl("bad");
  const SignalId a = nl.add_input("a");
  const SignalId g = nl.add_not(a, "g");
  nl.add_output(g);
  EXPECT_THROW((void)pin_signal(nl, g, true), std::invalid_argument);
}

}  // namespace
}  // namespace cl::netlist
