#include "analysis/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "benchgen/catalog.hpp"
#include "core/cute_lock_str.hpp"
#include "lock/comb_locks.hpp"
#include "lock/latch_lock.hpp"
#include "netlist/bench_io.hpp"
#include "util/rng.hpp"

namespace cl::analysis {
namespace {

using netlist::Netlist;

bool has_code(const LintReport& rep, const std::string& code) {
  return std::any_of(rep.diagnostics.begin(), rep.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const char* k_clean = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
t = AND(a, b)
y = NOT(t)
)";

TEST(Lint, CleanCircuitPasses) {
  const Netlist nl = netlist::read_bench_string(k_clean, "clean");
  const LintReport rep = lint(nl);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.diagnostics.size(), 0u);
}

TEST(Lint, NoOutputsIsAnError) {
  Netlist nl("noout");
  const auto a = nl.add_input("a");
  nl.add_not(a, "n");
  const LintReport rep = lint(nl);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep, "no-outputs"));
}

TEST(Lint, UnwiredDffSurfacesAsSelfLoopWarning) {
  // add_dff(k_no_signal) wires D to the DFF's own Q (the IR never leaves a
  // floating D pin), so a forgotten set_dff_input shows up as self-loop-dff.
  Netlist nl("float");
  const auto a = nl.add_input("a");
  nl.add_dff(netlist::k_no_signal, netlist::DffInit::Zero, "q");
  nl.add_output(a);
  const LintReport rep = lint(nl);
  EXPECT_TRUE(has_code(rep, "self-loop-dff"));
}

TEST(Lint, SelfLoopDffIsAWarning) {
  Netlist nl("loopff");
  const auto a = nl.add_input("a");
  const auto q = nl.add_dff(netlist::k_no_signal, netlist::DffInit::Zero, "q");
  nl.set_dff_input(q, q);
  nl.add_output(a);
  nl.add_output(q);
  const LintReport rep = lint(nl);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_code(rep, "self-loop-dff"));
}

TEST(Lint, CombinationalLoopIsAnError) {
  Netlist nl("loop");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto g = nl.add_and(a, b, "g");
  const auto h = nl.add_or(g, a, "h");
  nl.replace_fanin(g, b, h);  // g <- h <- g
  nl.add_output(h);
  const LintReport rep = lint(nl);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep, "comb-loop"));
}

TEST(Lint, DeadLogicAndUnusedInputsWarn) {
  const char* text = R"(
INPUT(a)
INPUT(unused)
OUTPUT(y)
dead = AND(a, a)
y = NOT(a)
)";
  const Netlist nl = netlist::read_bench_string(text, "warns");
  const LintReport rep = lint(nl);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_code(rep, "dead-logic"));
  EXPECT_TRUE(has_code(rep, "unused-input"));
  EXPECT_EQ(rep.warnings(), rep.diagnostics.size());
}

TEST(Lint, DuplicateGatesWarn) {
  const char* text = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
g1 = AND(a, b)
g2 = AND(b, a)
y = OR(g1, g2)
)";
  const Netlist nl = netlist::read_bench_string(text, "dup");
  const LintReport rep = lint(nl);
  EXPECT_TRUE(has_code(rep, "duplicate-gates"));
}

/// The count a `duplicate-gates` warning reports, 0 when there is none.
std::size_t duplicate_count(const LintReport& rep) {
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.code == "duplicate-gates") return std::stoul(d.message);
  }
  return 0;
}

TEST(Lint, DuplicateGateCountsAreExact) {
  const struct {
    const char* name;
    const char* body;
    std::size_t duplicates;
  } cases[] = {
      // A commutative gate written with its fanins in both orders.
      {"commutative", "g1 = AND(a, b)\ng2 = AND(b, a)\ng3 = NAND(a, b)\n"
                      "y = OR(g1, g2, g3)\n", 1},
      // Swapping a MUX's data inputs changes its function.
      {"mux", "g1 = MUX(s, a, b)\ng2 = MUX(s, b, a)\ng3 = MUX(a, s, b)\n"
              "y = OR(g1, g2, g3)\n", 0},
      // Every repeat of one NOT is a duplicate of the first.
      {"not", "g1 = NOT(a)\ng2 = NOT(a)\ng3 = NOT(a)\ng4 = NOT(b)\n"
              "y = OR(g1, g2, g3, g4)\n", 2},
      // N-ary gates match on the sorted fanin list, arity and type.
      {"n-ary", "g1 = OR(a, b, s)\ng2 = OR(s, a, b)\ng3 = OR(b, s, a)\n"
                "g4 = OR(a, b)\ng5 = NOR(a, b, s)\ng6 = XOR(a, b, s)\n"
                "g7 = XOR(s, b, a)\ny = AND(g1, g2, g3, g4, g5, g6, g7)\n", 3},
  };
  for (const auto& c : cases) {
    const std::string text =
        std::string("INPUT(a)\nINPUT(b)\nINPUT(s)\nOUTPUT(y)\n") + c.body;
    const LintReport rep = lint(netlist::read_bench_string(text, c.name));
    EXPECT_EQ(duplicate_count(rep), c.duplicates)
        << c.name << "\n" << format_diagnostics(rep);
  }
}

TEST(Lint, ConstantOutputWarns) {
  Netlist nl("constout");
  nl.add_input("a");
  const auto c = nl.add_const(true, "c1");
  nl.add_output(c);
  const LintReport rep = lint(nl);
  EXPECT_TRUE(has_code(rep, "constant-output"));
  EXPECT_TRUE(has_code(rep, "unused-input"));
}

TEST(Lint, AttackInputsAcceptAProperPair) {
  const Netlist nl = netlist::read_bench_string(k_clean, "ref");
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  const LintReport rep = lint_attack_inputs(lr.locked, nl);
  EXPECT_TRUE(rep.ok()) << format_diagnostics(rep);
}

TEST(Lint, AttackInputsRejectKeylessLocked) {
  const Netlist nl = netlist::read_bench_string(k_clean, "ref");
  const LintReport rep = lint_attack_inputs(nl, nl);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep, "no-key-inputs"));
}

TEST(Lint, AttackInputsRejectKeyedOracle) {
  const Netlist nl = netlist::read_bench_string(k_clean, "ref");
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  const LintReport rep = lint_attack_inputs(lr.locked, lr.locked);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep, "keyed-oracle"));
}

TEST(Lint, AttackInputsRejectInterfaceMismatch) {
  const Netlist nl = netlist::read_bench_string(k_clean, "ref");
  const char* other = R"(
INPUT(p)
OUTPUT(q)
q = NOT(p)
)";
  const Netlist small = netlist::read_bench_string(other, "small");
  util::Rng rng(1);
  const auto lr = lock::xor_lock(nl, 2, rng);
  const LintReport rep = lint_attack_inputs(lr.locked, small);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_code(rep, "interface-mismatch"));
}

TEST(Lint, SubmissionDiagnosticsNameTheSide) {
  Netlist locked("locked");
  const auto a = locked.add_input("a");
  locked.add_key_input("keyinput0");
  locked.add_dff(netlist::k_no_signal, netlist::DffInit::Zero, "q");
  locked.add_output(a);
  const Netlist oracle = netlist::read_bench_string(k_clean, "oracle");
  const LintReport rep = lint_attack_inputs(locked, oracle);
  EXPECT_FALSE(rep.ok());
  const std::string text = format_diagnostics(rep);
  EXPECT_NE(text.find("locked/q"), std::string::npos) << text;
}

TEST(Lint, FormatDiagnosticsRendersCodes) {
  Netlist nl("noout");
  nl.add_input("a");
  const std::string text = format_diagnostics(lint(nl));
  EXPECT_NE(text.find("error[no-outputs]"), std::string::npos) << text;
}

const char* k_seq = R"(
INPUT(a)
INPUT(b)
OUTPUT(y)
q = DFF(t)
t = AND(a, b)
u = OR(t, q)
y = NOT(u)
)";

TEST(Lint, LatchLockDecoysAreInfoNotDeadLogic) {
  // Regression: latch-based locking plants decoy cones (key input -> MUX ->
  // self-refreshing DFF, never observable). These used to count as
  // dead-logic; they must surface as the info-level latch-only-key finding
  // instead, and must never gate an attack (errors stay 0).
  const Netlist nl = netlist::read_bench_string(k_seq, "seq");
  util::Rng rng(3);
  const auto lr = lock::latch_lock(nl, 2, 2, rng);
  const LintReport rep = lint(lr.locked);
  EXPECT_TRUE(rep.ok()) << format_diagnostics(rep);
  EXPECT_FALSE(has_code(rep, "dead-logic")) << format_diagnostics(rep);
  EXPECT_TRUE(has_code(rep, "latch-only-key"));
  EXPECT_EQ(rep.infos(), lr.decoy_key_bits.size());
  for (const Diagnostic& d : rep.diagnostics) {
    if (d.code == "latch-only-key") {
      EXPECT_EQ(d.severity, Severity::Info);
    }
  }
  EXPECT_NE(format_diagnostics(rep).find("info[latch-only-key]"),
            std::string::npos)
      << format_diagnostics(rep);
}

TEST(Lint, LatchLockDecoyConesKeepTheirNodeCounts) {
  // Each decoy key's walk covers its whole cone (key -> MUX -> DFF -> MUX
  // refresh loop), while an observable key's walk ends at its first live
  // node; the report is the one the full walks gave.
  const Netlist nl = netlist::read_bench_string(k_seq, "seq");
  util::Rng rng(3);
  const auto lr = lock::latch_lock(nl, 2, 2, rng);
  EXPECT_EQ(format_diagnostics(lint(lr.locked)),
            "info[latch-only-key] keyinput1: key input drives only "
            "unobservable sequential logic (a latch-style decoy cone of 4 "
            "node(s))\n"
            "info[latch-only-key] keyinput3: key input drives only "
            "unobservable sequential logic (a latch-style decoy cone of 4 "
            "node(s))\n");
}

TEST(Lint, Syn64kCuteLockStrPairFindings) {
  // perfbench's mega-encode lock (syn64k, k=2, ki=4, 4 FFs, the bench's
  // lock seed 0x3e6a + gates + k): exactly these two warnings on the
  // locked side, none on the oracle.
  const auto circuit = benchgen::make_circuit("syn64k");
  core::StrOptions options;
  options.num_keys = 2;
  options.key_bits = 4;
  options.locked_ffs = 4;
  options.seed = 0x3e6a + 65536 + 2;
  const auto lr = core::cute_lock_str(circuit.netlist, options);
  const LintReport rep = lint_attack_inputs(lr.locked, circuit.netlist);
  EXPECT_EQ(format_diagnostics(rep),
            "warning[dead-logic] locked: 1 gate(s)/flip-flop(s) are "
            "unreachable from every output\n"
            "warning[duplicate-gates] locked: 23 gate(s) duplicate another "
            "gate's function (strash would merge them)\n");
  EXPECT_TRUE(lint(circuit.netlist).diagnostics.empty());
}

TEST(Lint, DeadKeyConeWithoutStateIsStillDeadLogic) {
  // The carve-out is specific: a dead key cone with no sequential element is
  // ordinary dead logic, not a latch decoy.
  Netlist nl("deadkey");
  const auto a = nl.add_input("a");
  const auto k = nl.add_key_input("keyinput0");
  nl.add_and(a, k, "deadgate");
  nl.add_output(nl.add_not(a, "y"));
  const LintReport rep = lint(nl);
  EXPECT_TRUE(has_code(rep, "dead-logic"));
  EXPECT_FALSE(has_code(rep, "latch-only-key"));
}

TEST(Lint, WarningsExcludeInfos) {
  const Netlist nl = netlist::read_bench_string(k_seq, "seq");
  util::Rng rng(5);
  const auto lr = lock::latch_lock(nl, 2, 1, rng);
  const LintReport rep = lint(lr.locked);
  EXPECT_EQ(rep.errors() + rep.warnings() + rep.infos(),
            rep.diagnostics.size());
  EXPECT_GE(rep.infos(), 1u);
}

}  // namespace
}  // namespace cl::analysis
