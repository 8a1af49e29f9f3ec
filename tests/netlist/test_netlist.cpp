#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace cl::netlist {
namespace {

Netlist tiny() {
  // q = DFF(a AND q); out = q XOR b
  Netlist nl("tiny");
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  SignalId q = nl.add_dff(k_no_signal, DffInit::Zero, "q");
  const SignalId g = nl.add_and(a, q, "g");
  nl.set_dff_input(q, g);
  const SignalId out = nl.add_xor(q, b, "out");
  nl.add_output(out);
  nl.check();
  return nl;
}

TEST(Netlist, BasicConstruction) {
  const Netlist nl = tiny();
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dffs().size(), 1u);
  const NetlistStats st = nl.stats();
  EXPECT_EQ(st.gates, 2u);
  EXPECT_EQ(st.key_inputs, 0u);
}

TEST(Netlist, FindByName) {
  const Netlist nl = tiny();
  EXPECT_NE(nl.find("g"), k_no_signal);
  EXPECT_EQ(nl.find("nope"), k_no_signal);
  EXPECT_EQ(nl.signal_name(nl.find("out")), "out");
}

TEST(Netlist, DuplicateNamesRejected) {
  Netlist nl;
  const SignalId x = nl.add_input("x");
  EXPECT_THROW(nl.add_input("x"), std::invalid_argument);
  nl.add_gate(GateType::Not, {x}, "g");
  const std::size_t before = nl.size();
  EXPECT_THROW(nl.add_gate(GateType::Buf, {x}, "g"), std::invalid_argument);
  EXPECT_THROW(nl.add_dff(x, DffInit::Zero, "x"), std::invalid_argument);
  EXPECT_THROW(nl.add_key_input("g"), std::invalid_argument);
  EXPECT_THROW(nl.add_const(true, "x"), std::invalid_argument);
  EXPECT_EQ(nl.size(), before);  // a rejected node leaves no trace
  EXPECT_EQ(nl.find("g"), x + 1);
  nl.check();
}

TEST(Netlist, BracedAndSpanAddGateBuildTheSameNode) {
  Netlist braced("braced");
  Netlist spanned("spanned");
  for (Netlist* nl : {&braced, &spanned}) {
    nl->add_input("a");
    nl->add_input("b");
    nl->add_input("c");
  }
  const SignalId x = braced.add_gate(GateType::Mux, {2, 0, 1}, "x");
  const std::vector<SignalId> fanins = {2, 0, 1};
  const SignalId y = spanned.add_gate(GateType::Mux, fanins, "x");
  ASSERT_EQ(x, y);
  const Node bx = braced.node(x);
  const Node sy = spanned.node(y);
  EXPECT_EQ(bx.name, sy.name);
  EXPECT_EQ(bx.type, sy.type);
  EXPECT_EQ(bx.init, sy.init);
  EXPECT_TRUE(std::equal(bx.fanins.begin(), bx.fanins.end(),
                         sy.fanins.begin(), sy.fanins.end()));
  EXPECT_EQ(braced.fanin_refs(), 3u);
  // A span viewing the netlist's own pool survives the pool growing under
  // the append.
  for (int i = 0; i < 100; ++i) {
    spanned.add_gate(GateType::Mux, spanned.fanins(y),
                     "copy" + std::to_string(i));
  }
  const SignalId last = spanned.find("copy99");
  const auto copied = spanned.fanins(last);
  EXPECT_TRUE(std::equal(copied.begin(), copied.end(), fanins.begin(),
                         fanins.end()));
  spanned.check();
}

TEST(Netlist, AccessorsRejectIdsPastTheEnd) {
  const Netlist nl = tiny();
  const SignalId past = static_cast<SignalId>(nl.size());
  EXPECT_THROW(nl.fanins(past), std::out_of_range);
  EXPECT_THROW(nl.fanins(k_no_signal), std::out_of_range);
  EXPECT_THROW(nl.node(past), std::out_of_range);
  EXPECT_THROW(nl.type(past), std::out_of_range);
  Netlist copy = nl.clone("copy");
  EXPECT_THROW(copy.replace_fanin(past, 0, 1), std::out_of_range);
}

TEST(Netlist, FreshNameSkipsNamesTakenAheadOfItsCounter) {
  // Take every even t<n> up to 198 first, so fresh_name must step over
  // them while the name index grows from 16 slots to 512.
  Netlist nl;
  for (int i = 0; i < 200; i += 2) nl.add_input("t" + std::to_string(i));
  for (int i = 1; i < 200; i += 2) {
    const std::string name = nl.fresh_name("t");
    EXPECT_EQ(name, "t" + std::to_string(i));
    nl.add_input(name);
  }
  EXPECT_EQ(nl.fresh_name("t"), "t200");
  // Auto-named nodes draw on the same counter and skip taken names.
  nl.add_input("n202");
  const SignalId g = nl.add_gate(GateType::Not, {0});
  EXPECT_EQ(nl.signal_name(g), "n201");
  EXPECT_EQ(nl.signal_name(nl.add_gate(GateType::Not, {0})), "n203");
  for (SignalId s = 0; s < nl.size(); ++s) {
    EXPECT_EQ(nl.find(nl.signal_name(s)), s);
  }
  nl.check();
}

TEST(Netlist, ArityValidation) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::And, {a}, "bad"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Not, {a, a}, "bad"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Mux, {a, a}, "bad"), std::invalid_argument);
}

TEST(Netlist, AddGateRejectsNonCombTypes) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  EXPECT_THROW(nl.add_gate(GateType::Dff, {a}, "bad"), std::invalid_argument);
  EXPECT_THROW(nl.add_gate(GateType::Input, {}, "bad"), std::invalid_argument);
}

TEST(Netlist, FaninOutOfRangeRejected) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  EXPECT_THROW(nl.add_and(a, 999, "bad"), std::invalid_argument);
}

TEST(Netlist, KeyInputsTrackedSeparately) {
  Netlist nl;
  nl.add_input("x");
  nl.add_key_input("keyinput0");
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.key_inputs().size(), 1u);
  EXPECT_EQ(nl.all_inputs().size(), 2u);
  EXPECT_EQ(nl.type(nl.find("keyinput0")), GateType::KeyInput);
}

TEST(Netlist, DffInitRoundTrip) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  const SignalId q = nl.add_dff(a, DffInit::One, "q");
  EXPECT_EQ(nl.dff_init(q), DffInit::One);
  nl.set_dff_init(q, DffInit::X);
  EXPECT_EQ(nl.dff_init(q), DffInit::X);
  EXPECT_EQ(nl.dff_input(q), a);
}

TEST(Netlist, DffAccessorsRejectNonDff) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  EXPECT_THROW(nl.dff_input(a), std::invalid_argument);
  EXPECT_THROW(nl.set_dff_init(a, DffInit::One), std::invalid_argument);
  EXPECT_THROW(nl.set_dff_input(a, a), std::invalid_argument);
}

TEST(Netlist, ReplaceFanin) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId c = nl.add_input("c");
  const SignalId g = nl.add_and(a, b, "g");
  nl.replace_fanin(g, a, c);
  EXPECT_EQ(nl.node(g).fanins[0], c);
  EXPECT_THROW(nl.replace_fanin(g, a, c), std::invalid_argument);
}

TEST(Netlist, ReplaceAllReadersRespectsExceptions) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  const SignalId b = nl.add_input("b");
  const SignalId g1 = nl.add_and(a, b, "g1");
  const SignalId g2 = nl.add_or(a, b, "g2");
  nl.add_output(a);
  const SignalId replacement = nl.add_not(a, "na");
  nl.replace_all_readers(a, replacement, {replacement, g2});
  EXPECT_EQ(nl.node(g1).fanins[0], replacement);
  EXPECT_EQ(nl.node(g2).fanins[0], a);          // excluded
  EXPECT_EQ(nl.node(replacement).fanins[0], a); // excluded (no self-loop)
  EXPECT_EQ(nl.outputs()[0], replacement);
}

TEST(Netlist, FreshNamesNeverCollide) {
  Netlist nl;
  nl.add_input("n0");
  const std::string f1 = nl.fresh_name("n");
  EXPECT_NE(f1, "n0");
  nl.add_input(f1);
  const std::string f2 = nl.fresh_name("n");
  EXPECT_NE(f2, f1);
}

TEST(Netlist, CheckDetectsCombinationalCycle) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  const SignalId g1 = nl.add_and(a, a, "g1");
  const SignalId g2 = nl.add_or(g1, a, "g2");
  // Manufacture a cycle g1 <- g2 via replace_fanin.
  nl.replace_fanin(g1, a, g2);
  EXPECT_THROW(nl.check(), std::logic_error);
}

TEST(Netlist, SequentialLoopIsLegal) {
  // DFF in the loop: q -> g -> q is fine.
  EXPECT_NO_THROW(tiny().check());
}

TEST(Netlist, CloneIsDeepAndRenames) {
  Netlist nl = tiny();
  Netlist copy = nl.clone("copy");
  EXPECT_EQ(copy.name(), "copy");
  EXPECT_EQ(copy.size(), nl.size());
  // Mutating the copy must not affect the original.
  copy.set_dff_init(copy.dffs()[0], DffInit::One);
  EXPECT_EQ(nl.dff_init(nl.dffs()[0]), DffInit::Zero);
}

TEST(Netlist, GateTypeNamesRoundTrip) {
  for (GateType t : {GateType::And, GateType::Nand, GateType::Or, GateType::Nor,
                     GateType::Xor, GateType::Xnor, GateType::Not, GateType::Buf,
                     GateType::Mux, GateType::Dff}) {
    const auto parsed = gate_type_from_name(gate_type_name(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_FALSE(gate_type_from_name("FROB").has_value());
  EXPECT_EQ(*gate_type_from_name("buff"), GateType::Buf);
  EXPECT_EQ(*gate_type_from_name("inv"), GateType::Not);
}

TEST(Netlist, OutputMayRepeat) {
  Netlist nl;
  const SignalId a = nl.add_input("a");
  nl.add_output(a);
  nl.add_output(a);
  EXPECT_EQ(nl.outputs().size(), 2u);
  nl.check();
}

}  // namespace
}  // namespace cl::netlist
